#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "geometry/rect.hpp"
#include "net/medium.hpp"
#include "runner/thread_pool.hpp"
#include "shard/halo.hpp"
#include "shard/robot_ledger.hpp"
#include "shard/ticker.hpp"
#include "shard/topology.hpp"
#include "sim/simulator.hpp"
#include "wsn/sensor_field.hpp"

namespace sensrep::shard {

/// Tile-per-worker beacon tick scheduler (FieldConfig::shards > 1).
///
/// The field is partitioned into grid-aligned column tiles (Topology); each
/// sensor's beacon tick series lives in its tile's TileTicker instead of the
/// global event queue. Simulation time advances in lock-step *windows*
/// bounded by (a) the horizon, (b) one beacon period and (c) the earliest
/// queued global event, so no queue event ever executes mid-window. Inside a
/// window, tile workers classify their due ticks in parallel with pure reads
/// (SensorNode::quiet_tick_viable against the frozen window state); at the
/// tick barrier the per-tile halo queues are merged in canonical
/// (time, seq, origin-tile) order and committed on the driver thread —
/// self-local quiet commits directly, escalations as full tick() replays
/// interleaved with the queue in exact time order. The schedule is bitwise
/// equivalent to shards=1 (tests/shard_test.cpp holds it to that); the
/// argument is written out in docs/SHARDING.md §3.
class ShardedDriver final : public wsn::TickDriver {
 public:
  /// Window/tick accounting (diagnostics + tests).
  struct Stats {
    std::uint64_t windows = 0;            // lock-step windows processed
    std::uint64_t parallel_windows = 0;   // classified on the worker pool
    std::uint64_t escalation_windows = 0; // took the sorted-replay path
    std::uint64_t quiet_ticks = 0;        // committed via commit_quiet_tick()
    std::uint64_t escalated_ticks = 0;    // replayed as full tick()
    std::uint64_t bridged_ticks = 0;      // mid-window revivals routed in-queue
    std::uint64_t stale_skips = 0;        // lazily discarded disarmed entries
  };

  /// `bounds` is the deployment area the tiles partition; tile boundaries
  /// align to sensor-TX-range grid columns (the UniformGrid2D cell size).
  ShardedDriver(sim::Simulator& sim, net::Medium& medium, wsn::SensorField& field,
                const geometry::Rect& bounds, std::size_t shards);

  // --- wsn::TickDriver -----------------------------------------------------

  void arm_tick(net::NodeId slot, sim::SimTime first, double period) override;
  void disarm_tick(net::NodeId slot) override;

  // --- schedule ------------------------------------------------------------

  /// Advances the simulation to `horizon` through lock-step windows.
  /// Replaces sim::Simulator::run_until as the top-level advance; the clock
  /// always comes to rest on a window boundary (the only states the sharded
  /// schedule shares bit-for-bit with the sequential one), so a cooperative
  /// interrupt is honored with window granularity.
  void run_until(sim::SimTime horizon);

  /// Armed tick series currently resident in tile tickers. The sequential
  /// schedule keeps exactly one pending queue event per armed series, so
  /// Simulation::pending_events() adds armed_count() back.
  [[nodiscard]] std::size_t armed_count() const noexcept { return armed_ - bridged_; }

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] RobotLedger& ledger() noexcept { return ledger_; }
  [[nodiscard]] const RobotLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Per-slot series state. `gen` is bumped on every arm/disarm so heap
  /// entries from dead incarnations are discarded lazily on pop, exactly like
  /// the pooled EventQueue treats cancelled events.
  struct SlotArm {
    std::uint32_t gen = 0;
    std::uint32_t tile = 0;
    double period = 0.0;
    bool armed = false;
    std::optional<sim::EventId> bridge;  // mid-window first fire, in-queue
  };

  struct Tile {
    TileTicker ticker;
    HaloQueue halo;
    std::size_t escalated = 0;
    std::size_t stale = 0;
  };

  /// Returns true when an interrupt fired during the window's replays.
  bool process_window(sim::SimTime w_end);

  /// Phase A, per tile: drain due ticks, classify quiet/escalated with pure
  /// reads, requeue quiet rearms tile-locally. Runs on a pool worker when the
  /// window is busy enough; the identical code runs inline otherwise.
  void classify_tile(std::size_t t, sim::SimTime w_end);

  sim::Simulator* sim_;
  net::Medium* medium_;
  wsn::SensorField* field_;
  Topology topo_;
  RobotLedger ledger_;
  double period_;
  std::vector<Tile> tiles_;
  std::vector<SlotArm> arms_;
  std::unique_ptr<runner::ThreadPool> pool_;
  std::vector<TickRecord> scratch_;  // barrier merge buffer, reused
  std::size_t armed_ = 0;
  std::size_t bridged_ = 0;
  bool in_window_ = false;
  sim::SimTime window_end_ = 0.0;
  Stats stats_;
};

}  // namespace sensrep::shard
