// Differential equivalence suite for the spatially sharded simulation.
//
// PR 10 partitions the field into grid-aligned column tiles and runs each
// tile's beacon tick series on a worker pool between deterministic tick
// barriers — purely for throughput: none of it may change behavior. This
// file is the single-shard bitwise equivalence oracle:
//
//  1. unit tests of the partition contract: Topology totality and grid-cell
//     alignment, TileTicker pop order, halo merge determinism under permuted
//     insertion orders;
//  2. a 1000-trial property/fuzz suite for robot tile hand-off conservation
//     (no robot owned by zero or two tiles under random walks across random
//     topologies) — cheap enough to run under TSAN in CI;
//  3. end-to-end: full simulations at 1, 2 and 4 shards must produce
//     bit-identical ExperimentResults AND StateDigests for all three
//     algorithms, with and without robot fault/repair chaos, and stay
//     byte-identical across runner worker counts (run under TSAN in CI);
//  4. the chaos oracle must keep working across tiles: an out-of-band robot
//     death under shards=4 still trips the robot-bookkeeping invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariant_checker.hpp"
#include "core/simulation.hpp"
#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"
#include "robot/robot.hpp"
#include "runner/executor.hpp"
#include "runner/sink.hpp"
#include "shard/driver.hpp"
#include "shard/halo.hpp"
#include "shard/robot_ledger.hpp"
#include "shard/ticker.hpp"
#include "shard/topology.hpp"
#include "sim/rng.hpp"

namespace sensrep::shard {
namespace {

// --- topology contract -------------------------------------------------------

geometry::Rect rect(double w, double h) { return {{0.0, 0.0}, {w, h}}; }

TEST(Topology, EveryColumnHasExactlyOneOwnerAndOwnersAreContiguous) {
  for (const std::size_t tiles : {1u, 2u, 3u, 4u, 7u, 16u}) {
    Topology topo(rect(1000.0, 1000.0), 100.0, tiles);
    ASSERT_EQ(topo.columns(), 10u);
    std::size_t prev = 0;
    std::vector<std::size_t> per_tile(tiles, 0);
    for (std::size_t c = 0; c < topo.columns(); ++c) {
      const std::size_t owner = topo.tile_of({static_cast<double>(c) * 100.0 + 50.0, 500.0});
      ASSERT_LT(owner, tiles);
      ASSERT_GE(owner, prev);  // column ownership is monotone left-to-right
      prev = owner;
      ++per_tile[owner];
    }
    // Whole-column balance: tile loads differ by at most one column.
    std::size_t lo = std::numeric_limits<std::size_t>::max(), hi = 0;
    for (const std::size_t n : per_tile) {
      if (n == 0) continue;  // surplus tiles (tiles > columns) own nothing
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    EXPECT_LE(hi - lo, 1u) << tiles << " tiles";
  }
}

TEST(Topology, BoundariesLieOnGridCellEdges) {
  Topology topo(rect(950.0, 400.0), 100.0, 4);  // ragged width: 10 columns
  for (std::size_t t = 0; t < topo.tiles(); ++t) {
    const double x = topo.boundary_x(t);
    const double cells = (x - 0.0) / topo.cell_size();
    EXPECT_DOUBLE_EQ(cells, std::floor(cells)) << "tile " << t;
  }
}

TEST(Topology, TileOfIsTotalOverThePlane) {
  Topology topo(rect(1000.0, 1000.0), 250.0, 4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Outside-the-bounds, infinite and NaN positions all clamp to a real tile.
  for (const geometry::Vec2 p : {geometry::Vec2{-50.0, 500.0},
                                 geometry::Vec2{2000.0, 500.0},
                                 geometry::Vec2{-inf, 0.0},
                                 geometry::Vec2{inf, 0.0},
                                 geometry::Vec2{nan, nan}}) {
    EXPECT_LT(topo.tile_of(p), topo.tiles());
  }
  EXPECT_EQ(topo.tile_of({-50.0, 500.0}), 0u);
  EXPECT_EQ(topo.tile_of({2000.0, 500.0}), 3u);
  EXPECT_EQ(topo.tile_of({nan, nan}), 0u);
}

TEST(Topology, MoreTilesThanColumnsLeavesSurplusTilesEmpty) {
  Topology topo(rect(300.0, 300.0), 100.0, 8);  // 3 columns, 8 tiles
  std::vector<bool> owns(8, false);
  for (std::size_t c = 0; c < 3; ++c) owns[topo.tile_of({static_cast<double>(c) * 100.0 + 1.0, 0.0})] = true;
  EXPECT_EQ(std::count(owns.begin(), owns.end(), true), 3);
}

TEST(Topology, RejectsDegenerateArguments) {
  EXPECT_THROW(Topology(rect(100.0, 100.0), 100.0, 0), std::invalid_argument);
  EXPECT_THROW(Topology(rect(100.0, 100.0), 0.0, 2), std::invalid_argument);
}

// --- tile ticker pop order ---------------------------------------------------

TEST(TileTicker, DrainsInTimeThenSlotOrderRegardlessOfArmOrder) {
  TileTicker ticker;
  // Armed deliberately out of order, with an exact time tie on slots 9/3.
  ticker.arm(7, 30.0, 0);
  ticker.arm(9, 10.0, 0);
  ticker.arm(3, 10.0, 0);
  ticker.arm(1, 20.0, 0);
  std::vector<net::NodeId> order;
  ticker.drain(25.0, [&](sim::SimTime, net::NodeId slot, std::uint32_t) {
    order.push_back(slot);
  });
  EXPECT_EQ(order, (std::vector<net::NodeId>{3, 9, 1}));
  EXPECT_EQ(ticker.size(), 1u);  // the 30.0 entry waits past the horizon
}

// --- halo merge determinism --------------------------------------------------

TEST(HaloMerge, CanonicalOrderIsIndependentOfQueueFillOrder) {
  // Build a fixed set of records spread over 4 tiles, then insert them in
  // several permutations of "which worker finished first". The merged order
  // must be a pure function of the record contents.
  std::vector<TickRecord> records;
  sim::Rng rng(42);
  for (std::uint32_t tile = 0; tile < 4; ++tile) {
    double t = 100.0;
    for (std::uint64_t seq = 0; seq < 25; ++seq) {
      t += rng.uniform(0.0, 3.0);
      records.push_back({t, seq, tile, static_cast<net::NodeId>(tile * 100 + seq),
                         /*gen=*/1, /*quiet=*/(seq % 3 != 0)});
    }
  }

  std::vector<TickRecord> reference;
  {
    std::vector<HaloQueue> queues(4);
    for (const TickRecord& r : records) queues[r.origin_tile].push(r);
    merge_halo(queues, reference);
  }
  ASSERT_EQ(reference.size(), records.size());
  ASSERT_TRUE(std::is_sorted(reference.begin(), reference.end(), canonical_less));

  for (int perm = 0; perm < 16; ++perm) {
    // Interleave tiles differently each round (worker finish order shuffle);
    // within a tile the order is fixed, as the single-writer queue guarantees.
    std::vector<HaloQueue> queues(4);
    std::vector<std::size_t> cursor(4, 0);
    std::vector<std::uint32_t> tiles_left{0, 1, 2, 3};
    sim::Rng shuffle(1000 + perm);
    while (!tiles_left.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(shuffle.uniform(0.0, 1.0) * static_cast<double>(tiles_left.size()));
      const std::uint32_t tile = tiles_left[std::min(pick, tiles_left.size() - 1)];
      std::size_t pushed = 0;
      for (const TickRecord& r : records) {
        if (r.origin_tile != tile) continue;
        if (pushed++ < cursor[tile]) continue;
        queues[tile].push(r);
        ++cursor[tile];
        break;
      }
      if (cursor[tile] >= 25) {
        tiles_left.erase(std::find(tiles_left.begin(), tiles_left.end(), tile));
      }
    }
    std::vector<TickRecord> merged;
    merge_halo(queues, merged);
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].slot, reference[i].slot) << "perm " << perm << " pos " << i;
      EXPECT_EQ(merged[i].time, reference[i].time);
      EXPECT_EQ(merged[i].origin_tile, reference[i].origin_tile);
    }
  }
}

// --- robot hand-off conservation fuzz (satellite: 1000 trials) ---------------

// Random walks across random topologies: after every single move the ledger
// must stay conserved — each robot owned by exactly one tile, per-tile counts
// agreeing with the owner map. This is the property the barrier hand-off
// relies on; it runs in milliseconds, so CI exercises it under TSAN too.
TEST(RobotLedgerFuzz, RandomWalksConserveOwnershipAcross1000Trials) {
  sim::Rng rng(20260808);
  std::uint64_t total_migrations = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const double width = 200.0 + rng.uniform(0.0, 1800.0);
    const double cell = 50.0 + rng.uniform(0.0, 200.0);
    const std::size_t tiles = 1 + static_cast<std::size_t>(rng.uniform(0.0, 8.0));
    Topology topo(rect(width, width), cell, tiles);

    const std::size_t robots = 1 + static_cast<std::size_t>(rng.uniform(0.0, 16.0));
    std::vector<geometry::Vec2> pos(robots);
    for (auto& p : pos) p = {rng.uniform(0.0, width), rng.uniform(0.0, width)};

    RobotLedger ledger(topo);
    ledger.reset(pos);
    ASSERT_TRUE(ledger.conserved());
    ASSERT_EQ(ledger.robots(), robots);

    for (int step = 0; step < 32; ++step) {
      const std::size_t r = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * static_cast<double>(robots)) % robots;
      // Mix local jitter with cross-field teleports so boundary crossings in
      // both directions happen constantly; occasionally step out of bounds.
      if (step % 5 == 0) {
        pos[r] = {rng.uniform(-100.0, width + 100.0), rng.uniform(0.0, width)};
      } else {
        pos[r].x += rng.uniform(-1.5 * cell, 1.5 * cell);
        pos[r].y += rng.uniform(-10.0, 10.0);
      }
      ledger.on_robot_moved(r, pos[r]);
      ASSERT_TRUE(ledger.conserved()) << "trial " << trial << " step " << step;
      ASSERT_EQ(ledger.owner(r), topo.tile_of(pos[r]));

      std::size_t sum = 0;
      for (const std::size_t n : ledger.tile_counts()) sum += n;
      ASSERT_EQ(sum, robots);  // no robot owned by zero or two tiles
    }
    total_migrations += ledger.migrations();

    // Re-seeding resets the migration counter and stays conserved.
    ledger.reset(pos);
    ASSERT_TRUE(ledger.conserved());
    ASSERT_EQ(ledger.migrations(), 0u);
  }
  // The walk parameters are tuned so hand-offs actually happen; a silent
  // zero here would mean the fuzz stopped testing anything.
  EXPECT_GT(total_migrations, 1000u);
}

TEST(RobotLedger, OutOfRangeRobotIndexIsIgnored) {
  Topology topo(rect(400.0, 400.0), 100.0, 2);
  RobotLedger ledger(topo);
  ledger.reset({{50.0, 50.0}});
  ledger.on_robot_moved(7, {350.0, 50.0});  // fleet grew behind our back
  EXPECT_TRUE(ledger.conserved());
  EXPECT_EQ(ledger.migrations(), 0u);
}

// --- end-to-end bitwise equivalence ------------------------------------------

struct ShardRun {
  core::ExperimentResult result;
  core::StateDigest digest;
  ShardedDriver::Stats stats;
};

ShardRun run_sharded(std::size_t shards, core::Algorithm algo, bool chaos) {
  core::SimulationConfig cfg;
  cfg.algorithm = algo;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = chaos ? 4000.0 : 8000.0;
  cfg.field.shards = shards;
  if (chaos) {
    // Robot deaths, MTTR resurrections and packet loss drive the paths that
    // disturb the tick schedule mid-run: disarm on sensor death, replacement
    // revivals (the bridge path), and guardian churn that flips quiet ticks
    // into escalations.
    cfg.robot_faults.mtbf = 1200.0;
    cfg.robot_faults.mttr = 600.0;
    cfg.robot_faults.heartbeat_period = 40.0;
    cfg.robot_faults.lease_auto_tune = true;
    cfg.radio.loss_probability = 0.05;
  }
  core::Simulation s(cfg);
  s.run();
  ShardRun r{s.result(), s.digest(), {}};
  if (const ShardedDriver* d = s.shard_driver()) r.stats = d->stats();
  return r;
}

void expect_identical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.reported, b.reported);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.unreported, b.unreported);
  EXPECT_EQ(a.router_drops, b.router_drops);
  // Bitwise, not NEAR: the sharded schedule commits the exact tick sequence
  // the sequential schedule would execute, so any ULP of drift is a bug.
  EXPECT_EQ(a.avg_travel_per_repair, b.avg_travel_per_repair);
  EXPECT_EQ(a.avg_report_hops, b.avg_report_hops);
  EXPECT_EQ(a.avg_request_hops, b.avg_request_hops);
  EXPECT_EQ(a.location_update_tx_per_repair, b.location_update_tx_per_repair);
  EXPECT_EQ(a.avg_detection_latency, b.avg_detection_latency);
  EXPECT_EQ(a.avg_repair_latency, b.avg_repair_latency);
  EXPECT_EQ(a.p95_repair_latency, b.p95_repair_latency);
  EXPECT_EQ(a.total_robot_distance, b.total_robot_distance);
  EXPECT_EQ(a.motion_energy_j, b.motion_energy_j);
  EXPECT_EQ(a.robot_failures, b.robot_failures);
  EXPECT_EQ(a.tasks_lost, b.tasks_lost);
  EXPECT_EQ(a.redispatches, b.redispatches);
  EXPECT_EQ(a.failover_events, b.failover_events);
  EXPECT_EQ(a.adoptions, b.adoptions);
  EXPECT_EQ(a.robot_repairs, b.robot_repairs);
  EXPECT_EQ(a.elections, b.elections);
  EXPECT_EQ(a.handbacks, b.handbacks);
  EXPECT_EQ(a.ownership_transfers, b.ownership_transfers);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

class ShardEquivalence : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(ShardEquivalence, DefaultRunIsBitIdenticalAcross1And2And4Shards) {
  const ShardRun one = run_sharded(1, GetParam(), /*chaos=*/false);
  const ShardRun two = run_sharded(2, GetParam(), /*chaos=*/false);
  const ShardRun four = run_sharded(4, GetParam(), /*chaos=*/false);
  expect_identical(one.result, two.result);
  expect_identical(one.result, four.result);
  // The digest folds in clock, executed-event and pending-event counts —
  // equality here means the schedules are indistinguishable at the final
  // observation point, not merely that the metrics agree.
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
  // The sharded runs actually sharded: windows were processed and the quiet
  // fast path carried the bulk of the ticks.
  EXPECT_GT(four.stats.windows, 0u);
  EXPECT_GT(four.stats.quiet_ticks, four.stats.escalated_ticks);
}

TEST_P(ShardEquivalence, FaultChaosRunIsBitIdenticalAcross1And2And4Shards) {
  const ShardRun one = run_sharded(1, GetParam(), /*chaos=*/true);
  const ShardRun two = run_sharded(2, GetParam(), /*chaos=*/true);
  const ShardRun four = run_sharded(4, GetParam(), /*chaos=*/true);
  expect_identical(one.result, two.result);
  expect_identical(one.result, four.result);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
}

TEST_P(ShardEquivalence, RepeatedShardedRunsAreDeterministic) {
  // Same config twice at shards=4: worker scheduling varies between the runs,
  // the observable state must not (the halo merge and the barrier commits are
  // pure functions of simulation state, never of thread timing).
  const ShardRun a = run_sharded(4, GetParam(), /*chaos=*/true);
  const ShardRun b = run_sharded(4, GetParam(), /*chaos=*/true);
  expect_identical(a.result, b.result);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.stats.quiet_ticks, b.stats.quiet_ticks);
  EXPECT_EQ(a.stats.escalated_ticks, b.stats.escalated_ticks);
  EXPECT_EQ(a.stats.bridged_ticks, b.stats.bridged_ticks);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ShardEquivalence,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& tpi) {
                           return std::string(core::to_string(tpi.param));
                         });

// The parallel classification path (not just the inline fallback) must run:
// at 4 robots x 50 sensors/robot the default window carries ~200 expected
// ticks, so scale the fleet up until the 256-tick threshold trips.
TEST(ShardDriver, ParallelClassificationPathIsExercised) {
  core::SimulationConfig cfg;
  cfg.robots = 9;  // 450 sensors: expected ticks per window > threshold
  cfg.seed = 7;
  cfg.sim_duration = 2000.0;
  cfg.field.shards = 4;
  core::Simulation s(cfg);
  s.run();
  const ShardedDriver* d = s.shard_driver();
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->stats().parallel_windows, 0u);
  EXPECT_GT(d->stats().quiet_ticks, 0u);
  // Robots crossed tile boundaries while servicing repairs.
  EXPECT_TRUE(d->ledger().conserved());
}

// --- config guard rails ------------------------------------------------------

TEST(ShardConfig, ValidateRejectsUnshardableConfigs) {
  core::SimulationConfig cfg;
  cfg.field.shards = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.field.shards = 257;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.field.shards = 4;
  cfg.field.stale_beacon_count = 1;  // breaks the frozen-verdict guarantee
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.field.stale_beacon_count = 3;
  EXPECT_NO_THROW(cfg.validate());
}

// --- chaos oracle across tiles (satellite 4) ---------------------------------

// The invariant checker aggregates over state that sharded execution updates
// at barriers; a robot killed behind the coordination algorithm's back in a
// sharded run must still trip the robot-bookkeeping invariant.
TEST(ShardChaosOracle, OutOfBandRobotDeathStillTripsInvariantUnderShards) {
  core::SimulationConfig cfg;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = 8000.0;
  cfg.field.shards = 4;
  core::Simulation sim(cfg);

  chaos::InvariantCheckerOptions opts;
  opts.fail_fast = false;
  chaos::InvariantChecker checker(sim, opts);

  sim.run_until(1000.0);
  checker.check_now();
  ASSERT_TRUE(checker.ok()) << checker.report();

  sim.robots()[0]->fail();  // out-of-band: no fault machinery armed
  checker.check_now();
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().invariant, "robot-bookkeeping");
}

// --- runner determinism across worker counts (satellite 3 lives in
//     runner_test; this is the sharded-cells variant) -------------------------

TEST(ShardRunnerDeterminism, CsvIsByteIdenticalAcrossWorkerCountsWithShardedCells) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
                     core::Algorithm::kDynamicDistributed};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 800.0;
  grid.base.field.shards = 2;  // sharded simulations inside pooled workers
  grid.base.robot_faults.mtbf = 400.0;
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
}  // namespace sensrep::shard
