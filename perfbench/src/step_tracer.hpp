#pragma once

// Step attribution for the traced run.
//
// The benchmark times every executed event from outside the program and
// charges it to one bucket: the transmission category whose counter grew
// during the event, `telemetry` for a telemetry sampling tick, `silent` when
// nothing grew (timers, motion legs, supervision sweeps that found nothing)
// and `mixed` when more than one category grew.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

class StepLedger {
 public:
  static constexpr std::size_t kCategories =
      static_cast<std::size_t>(sensrep::metrics::MessageCategory::kCount);
  static constexpr std::size_t kTelemetry = kCategories;
  static constexpr std::size_t kSilent = kCategories + 1;
  static constexpr std::size_t kMixed = kCategories + 2;
  static constexpr std::size_t kBuckets = kCategories + 3;

  /// Remembers the counters a step starts from.
  void before(const sensrep::metrics::TransmissionCounters& c, std::uint64_t telemetry_samples);

  /// Charges `ns` to the bucket the counters' growth since before() selects.
  void after(const sensrep::metrics::TransmissionCounters& c, std::uint64_t telemetry_samples,
             std::int64_t ns, std::size_t pending);

  /// Bucket names as BENCHMARK.json spells them (`step.<name>.*`).
  [[nodiscard]] static std::string bucket_name(std::size_t bucket);

  [[nodiscard]] std::uint64_t count(std::size_t bucket) const { return count_[bucket]; }
  [[nodiscard]] std::int64_t ns(std::size_t bucket) const { return ns_[bucket]; }
  [[nodiscard]] std::uint64_t steps() const { return step_ns_.size(); }
  [[nodiscard]] std::int64_t total_ns() const;
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }

  /// Nearest-rank percentile of the step durations (q in [0, 1]).
  [[nodiscard]] double step_ns_quantile(double q);

 private:
  std::array<std::uint64_t, kCategories> start_{};
  std::uint64_t start_telemetry_ = 0;
  std::array<std::uint64_t, kBuckets> count_{};
  std::array<std::int64_t, kBuckets> ns_{};
  std::vector<std::uint32_t> step_ns_;
  std::size_t pending_peak_ = 0;
};

/// Nearest-rank percentile of `xs` (q in [0, 1]); 0 for an empty sample.
/// Reorders `xs`.
template <typename T>
[[nodiscard]] double quantile(std::vector<T>& xs, double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  const auto k = rank == 0 ? 0 : rank - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
  return static_cast<double>(xs[k]);
}

}  // namespace perfbench
