#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"

namespace sensrep::geometry {

/// Uniform-grid spatial index over point objects identified by integer keys.
///
/// The wireless medium uses this to answer "who is within transmission range
/// of this position?" without scanning every node. Bucket size should be on
/// the order of the dominant query radius; range queries then touch O(1)
/// buckets on average at WSN densities.
class SpatialHash {
 public:
  /// `cell_size` must be positive.
  explicit SpatialHash(double cell_size);

  /// Inserts or moves an object. Keys are caller-defined (node ids).
  void upsert(std::uint32_t key, Vec2 pos);

  /// Removes an object; no-op if absent.
  void erase(std::uint32_t key);

  /// True if the key is present.
  [[nodiscard]] bool contains(std::uint32_t key) const noexcept;

  /// Current position of an object. Requires contains(key).
  [[nodiscard]] Vec2 position(std::uint32_t key) const;

  /// All keys with position within `radius` of `center` (closed ball),
  /// in ascending key order for determinism.
  [[nodiscard]] std::vector<std::uint32_t> query_ball(Vec2 center, double radius) const;

  /// Same keys, same order, written over `out` (cleared first) so a caller
  /// on a hot path reuses one buffer's capacity instead of allocating.
  void query_ball(Vec2 center, double radius, std::vector<std::uint32_t>& out) const;

  /// Key of the nearest object to `center`, excluding `exclude` (pass a key
  /// not in the index, e.g. the querying node itself, or UINT32_MAX for
  /// none). Returns false when the index has no eligible object.
  bool nearest(Vec2 center, std::uint32_t exclude, std::uint32_t& out_key) const;

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }

 private:
  struct CellCoord {
    std::int64_t cx;
    std::int64_t cy;
  };
  [[nodiscard]] CellCoord cell_of(Vec2 p) const noexcept;
  [[nodiscard]] static std::uint64_t pack(CellCoord c) noexcept;

  /// Bucket entries carry the position inline so range queries never chase
  /// a per-key hash lookup; positions_ stays authoritative for point
  /// lookups and relocation.
  struct BucketEntry {
    std::uint32_t key;
    Vec2 pos;
  };

  double cell_size_;
  std::unordered_map<std::uint64_t, std::vector<BucketEntry>> buckets_;
  std::unordered_map<std::uint32_t, Vec2> positions_;
};

}  // namespace sensrep::geometry
