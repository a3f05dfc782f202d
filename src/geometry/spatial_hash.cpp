#include "geometry/spatial_hash.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sensrep::geometry {

SpatialHash::SpatialHash(double cell_size) : cell_size_(cell_size) {
  if (cell_size <= 0.0) throw std::invalid_argument("SpatialHash: cell_size must be positive");
}

SpatialHash::CellCoord SpatialHash::cell_of(Vec2 p) const noexcept {
  return {static_cast<std::int64_t>(std::floor(p.x / cell_size_)),
          static_cast<std::int64_t>(std::floor(p.y / cell_size_))};
}

std::uint64_t SpatialHash::pack(CellCoord c) noexcept {
  // Interleave-free packing: 32 bits per axis, offset to keep negatives.
  const auto ux = static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.cx));
  const auto uy = static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.cy));
  return (ux << 32) | uy;
}

void SpatialHash::upsert(std::uint32_t key, Vec2 pos) {
  if (auto it = positions_.find(key); it != positions_.end()) {
    const std::uint64_t old_bucket = pack(cell_of(it->second));
    const std::uint64_t new_bucket = pack(cell_of(pos));
    it->second = pos;
    if (old_bucket == new_bucket) {
      auto& vec = buckets_[old_bucket];
      for (BucketEntry& e : vec) {
        if (e.key == key) {
          e.pos = pos;
          break;
        }
      }
      return;
    }
    auto& vec = buckets_[old_bucket];
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [key](const BucketEntry& e) { return e.key == key; }),
              vec.end());
    if (vec.empty()) buckets_.erase(old_bucket);
    buckets_[new_bucket].push_back({key, pos});
    return;
  }
  positions_.emplace(key, pos);
  buckets_[pack(cell_of(pos))].push_back({key, pos});
}

void SpatialHash::erase(std::uint32_t key) {
  auto it = positions_.find(key);
  if (it == positions_.end()) return;
  const std::uint64_t bucket = pack(cell_of(it->second));
  auto& vec = buckets_[bucket];
  vec.erase(std::remove_if(vec.begin(), vec.end(),
                           [key](const BucketEntry& e) { return e.key == key; }),
            vec.end());
  if (vec.empty()) buckets_.erase(bucket);
  positions_.erase(it);
}

bool SpatialHash::contains(std::uint32_t key) const noexcept {
  return positions_.contains(key);
}

Vec2 SpatialHash::position(std::uint32_t key) const {
  auto it = positions_.find(key);
  if (it == positions_.end()) throw std::out_of_range("SpatialHash::position: unknown key");
  return it->second;
}

std::vector<std::uint32_t> SpatialHash::query_ball(Vec2 center, double radius) const {
  std::vector<std::uint32_t> out;
  query_ball(center, radius, out);
  return out;
}

void SpatialHash::query_ball(Vec2 center, double radius,
                             std::vector<std::uint32_t>& out) const {
  assert(radius >= 0.0);
  out.clear();
  const CellCoord lo = cell_of(center - Vec2{radius, radius});
  const CellCoord hi = cell_of(center + Vec2{radius, radius});
  const double r2 = radius * radius;
  for (std::int64_t cy = lo.cy; cy <= hi.cy; ++cy) {
    for (std::int64_t cx = lo.cx; cx <= hi.cx; ++cx) {
      auto it = buckets_.find(pack({cx, cy}));
      if (it == buckets_.end()) continue;
      for (const BucketEntry& e : it->second) {
        if (distance2(e.pos, center) <= r2) out.push_back(e.key);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

bool SpatialHash::nearest(Vec2 center, std::uint32_t exclude, std::uint32_t& out_key) const {
  // Full scan with deterministic tie-breaking: nearest() is called rarely
  // (guardian selection, task dispatch), so O(n) beats ring-search complexity.
  if (positions_.empty() ||
      (positions_.size() == 1 && positions_.contains(exclude))) {
    return false;
  }
  double best_d2 = std::numeric_limits<double>::infinity();
  std::uint32_t best = 0;
  bool found = false;
  for (const auto& [key, pos] : positions_) {
    if (key == exclude) continue;
    const double d2 = distance2(pos, center);
    if (d2 < best_d2 || (d2 == best_d2 && found && key < best)) {
      best_d2 = d2;
      best = key;
      found = true;
    }
  }
  if (found) out_key = best;
  return found;
}

}  // namespace sensrep::geometry
