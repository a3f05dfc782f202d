// Equivalence suite for the pooled event queue.
//
// The EventQueue's slab-allocated slots, generation-tagged ids and 4-ary
// structure-of-arrays heap exist for speed; none of it may change behavior.
// This file holds it to that three ways:
//
//  1. a randomized differential property suite driving identical
//     schedule/cancel/pop sequences through the pooled queue and a
//     test-only reference queue (the map + std::function design the pool
//     replaced), requiring identical pop order, timestamps and cancel
//     results (run under ASAN in CI, where any slot-lifetime slip — double
//     destroy, stale generation, inline-buffer overrun — faults);
//  2. unit tests of the pool's own contract: inline vs boxed storage,
//     capture destruction timing, slot reuse generations;
//  3. end-to-end: full simulations of all three algorithms, with and
//     without robot fault/repair chaos, must reproduce bit for bit the
//     runs recorded in pinned_runs.hpp, and stay byte-identical across
//     runner worker counts (run under TSAN in CI).

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pinned_runs.hpp"
#include "runner/executor.hpp"
#include "runner/sink.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace sensrep::sim {
namespace {

// --- pool contract -----------------------------------------------------------

TEST(EventPool, OversizedCallableFallsBackToBoxedStorage) {
  EventQueue q;
  // Deliberately larger than any inline slot: the pool must box it on the
  // heap, and ASAN must see it freed exactly once.
  std::array<double, 64> payload{};
  payload[0] = 1.0;
  payload[63] = 2.0;
  static_assert(sizeof(payload) > EventQueue::kInlineBytes);
  double sum = 0.0;
  double* out = &sum;
  q.schedule(1.0, [payload, out] { *out = payload[0] + payload[63]; });
  q.pop().callback();
  EXPECT_DOUBLE_EQ(sum, 3.0);
}

// The hottest event in the simulation, net::Medium's per-broadcast fan-out,
// carries a pool index rather than its Packet; src/net/medium.cpp
// static_asserts that it takes the inline path, never the boxed one above.

TEST(EventPool, CancelDestroysCapturesImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(5.0, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // queue holds the capture
  EXPECT_TRUE(q.cancel(id));
  // The old map-based queue erased the boxed std::function on cancel; the
  // pool must match that lifetime, not defer to compaction or pop.
  EXPECT_TRUE(watch.expired());
}

TEST(EventPool, PoppedHandleKeepsCaptureAliveThroughInvocation) {
  // The run loop invokes the callback from the slot, then releases the slot
  // when the Popped handle dies. A callback that reschedules itself (every()
  // timers capture their own series state) must survive its own invocation.
  EventQueue q;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  q.schedule(1.0, [token] { ++*token; });
  token.reset();
  {
    auto ev = q.pop();
    ev.callback();
    EXPECT_FALSE(watch.expired());  // handle still owns the capture
  }
  EXPECT_TRUE(watch.expired());  // released with the handle
}

TEST(EventPool, SlotsAreReusedNotAccumulated) {
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    q.schedule(static_cast<double>(i), [] {});
    q.pop().callback();
  }
  // One pending event at a time: one chunk of slots covers the whole run.
  EXPECT_LE(q.pool_slots(), 256u);
}

// --- differential property suite: pooled vs reference ------------------------

/// The simplest correct event queue, kept as the oracle: a binary heap on
/// (time, schedule seq) plus a map of live callbacks keyed by seq — the map +
/// std::function design the pooled queue replaced. cancel() erases from the
/// map, so it returns false for fired, cancelled and never-issued ids alike;
/// pops skip heap entries whose seq is no longer live.
class ReferenceQueue {
 public:
  using Id = std::uint64_t;

  Id schedule(double t, std::function<void()> cb) {
    const Id seq = next_seq_++;
    heap_.push({t, seq});
    live_.emplace(seq, std::move(cb));
    return seq;
  }
  bool cancel(Id id) { return live_.erase(id) != 0; }
  [[nodiscard]] bool empty() const { return live_.empty(); }
  [[nodiscard]] std::size_t size() const { return live_.size(); }
  [[nodiscard]] double next_time() {
    skim();
    return heap_.top().time;
  }
  /// Removes the earliest live event; returns its time and callback.
  std::pair<double, std::function<void()>> pop() {
    skim();
    const Entry top = heap_.top();
    heap_.pop();
    const auto it = live_.find(top.seq);
    auto cb = std::move(it->second);
    live_.erase(it);
    return {top.time, std::move(cb)};
  }

 private:
  struct Entry {
    double time;
    Id seq;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  void skim() {
    while (!heap_.empty() && !live_.contains(heap_.top().seq)) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<Id, std::function<void()>> live_;
  Id next_seq_ = 1;
};

// Both queues receive the same operation sequence; every popped event must
// surface in the same order, at the same timestamp, running the same payload,
// and every cancel — of a pending event, or of one already fired or
// cancelled (a stale id) — must return the same answer.
TEST(EventQueueDifferential, RandomScheduleCancelPopMatchesLegacyExactly) {
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    EventQueue pooled;
    ReferenceQueue reference;

    std::vector<int> pooled_log;
    std::vector<int> reference_log;
    // Ids by payload tag, so cancels hit the same logical event in both
    // queues even though their id encodings differ.
    using Ids = std::pair<EventId, ReferenceQueue::Id>;
    std::vector<Ids> pending;
    std::vector<int> pending_tag;
    std::vector<Ids> retired;  // fired or cancelled
    const auto retire = [&](std::size_t i) {
      retired.push_back(pending[i]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      pending_tag.erase(pending_tag.begin() + static_cast<std::ptrdiff_t>(i));
    };
    int next_tag = 0;

    for (int op = 0; op < 600; ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.55 || pending.empty()) {
        const double t = rng.uniform01() * 100.0;
        const int tag = next_tag++;
        const EventId a = pooled.schedule(t, [&pooled_log, tag] { pooled_log.push_back(tag); });
        const auto b = reference.schedule(t, [&reference_log, tag] { reference_log.push_back(tag); });
        pending.emplace_back(a, b);
        pending_tag.push_back(tag);
      } else if (roll < 0.70) {
        const std::size_t pick = rng.below(pending.size());
        EXPECT_EQ(pooled.cancel(pending[pick].first), reference.cancel(pending[pick].second));
        retire(pick);
      } else if (roll < 0.75 && !retired.empty()) {
        const Ids stale = retired[rng.below(retired.size())];
        EXPECT_FALSE(pooled.cancel(stale.first));
        EXPECT_FALSE(reference.cancel(stale.second));
      } else {
        ASSERT_EQ(pooled.empty(), reference.empty());
        if (pooled.empty()) continue;
        ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
        auto pa = pooled.pop();
        auto pb = reference.pop();
        ASSERT_DOUBLE_EQ(pa.time, pb.first);
        pa.callback();
        pb.second();
        ASSERT_FALSE(pooled_log.empty());
        ASSERT_EQ(pooled_log.back(), reference_log.back());
        for (std::size_t i = 0; i < pending_tag.size(); ++i) {
          if (pending_tag[i] != pooled_log.back()) continue;
          retire(i);
          break;
        }
      }
      ASSERT_EQ(pooled.size(), reference.size()) << "round " << round << " op " << op;
    }

    // Drain both queues; the tails must match one-for-one, and with no more
    // schedules interleaved the drain must be nondecreasing in time.
    double last = -1.0;
    while (!pooled.empty()) {
      ASSERT_FALSE(reference.empty());
      ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
      EXPECT_GE(pooled.next_time(), last);
      last = pooled.next_time();
      pooled.pop().callback();
      reference.pop().second();
    }
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(pooled_log, reference_log) << "round " << round;
  }
}

// --- end to end: whole runs must match the recorded run ----------------------
//
// Before the map-backed queue and the per-node reads were deleted, each of
// these runs was bit-identical with the data-oriented path on and off;
// pinned_runs.hpp holds that shared result, so the surviving path must still
// reproduce it bit for bit.

class HotPathEquivalence : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(HotPathEquivalence, DefaultRunIsBitIdenticalWithDataOrientedOnAndOff) {
  core::pinned::expect_matches_recorded_run(GetParam(), /*chaos=*/false);
}

TEST_P(HotPathEquivalence, FaultChaosRunIsBitIdenticalWithDataOrientedOnAndOff) {
  core::pinned::expect_matches_recorded_run(GetParam(), /*chaos=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, HotPathEquivalence,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& tpi) {
                           return std::string(core::to_string(tpi.param));
                         });

// The parallel runner must keep its byte-identical-across-worker-counts
// guarantee: the event pool and the SoA mirrors are per-simulation state, so
// workers must never share them. TSAN runs this in CI.
TEST(HotPathRunnerDeterminism, CsvIsByteIdenticalAcrossWorkerCountsWithPooledQueue) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
                     core::Algorithm::kDynamicDistributed};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 800.0;
  grid.base.robot_faults.mtbf = 400.0;  // cancel/reschedule churn in every job
  grid.base.robot_faults.mttr = 200.0;

  const auto run_with = [&grid](std::size_t workers) {
    std::ostringstream out;
    runner::CsvSink sink(out);
    runner::ExecutorOptions options;
    options.jobs = workers;
    runner::Executor exec(options);
    const auto batch = exec.run(grid, &sink);
    EXPECT_TRUE(batch.ok());
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sensrep::sim
