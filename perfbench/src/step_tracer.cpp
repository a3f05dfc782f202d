#include "step_tracer.hpp"

#include <limits>
#include <numeric>

namespace perfbench {

using sensrep::metrics::MessageCategory;

void StepLedger::before(const sensrep::metrics::TransmissionCounters& c,
                        std::uint64_t telemetry_samples) {
  for (std::size_t i = 0; i < kCategories; ++i) {
    start_[i] = c.get(static_cast<MessageCategory>(i));
  }
  start_telemetry_ = telemetry_samples;
}

void StepLedger::after(const sensrep::metrics::TransmissionCounters& c,
                       std::uint64_t telemetry_samples, std::int64_t ns,
                       std::size_t pending) {
  std::size_t bucket = kSilent;
  std::size_t grown = 0;
  for (std::size_t i = 0; i < kCategories; ++i) {
    if (c.get(static_cast<MessageCategory>(i)) != start_[i]) {
      bucket = i;
      ++grown;
    }
  }
  if (telemetry_samples != start_telemetry_) {
    bucket = kTelemetry;
    ++grown;
  }
  if (grown > 1) bucket = kMixed;
  ++count_[bucket];
  ns_[bucket] += ns;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  step_ns_.push_back(ns <= 0 ? 0 : ns >= kMax ? kMax : static_cast<std::uint32_t>(ns));
  if (pending > pending_peak_) pending_peak_ = pending;
}

std::string StepLedger::bucket_name(std::size_t bucket) {
  if (bucket < kCategories) {
    return std::string(sensrep::metrics::to_string(static_cast<MessageCategory>(bucket)));
  }
  if (bucket == kTelemetry) return "telemetry";
  if (bucket == kSilent) return "silent";
  return "mixed";
}

std::int64_t StepLedger::total_ns() const {
  return std::accumulate(ns_.begin(), ns_.end(), std::int64_t{0});
}

double StepLedger::step_ns_quantile(double q) { return quantile(step_ns_, q); }

}  // namespace perfbench
