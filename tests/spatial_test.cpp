// Differential equivalence suite for the spatial-index subsystem.
//
// The UniformGrid2D exists to make proximity queries cheap, not to change
// behavior: every grid-backed answer must be *identical* — not merely close —
// to the brute-force scan it replaces, including floating-point tie-breaking.
// This file proves that three ways:
//
//  1. unit tests of the grid's own contract (iteration order, incremental
//     move semantics, loud failure on index desync);
//  2. a randomized property suite (1000 trials) comparing every query kind
//     against an independent brute-force reference, and a fuzz-style
//     interleaving of insert/move/remove against a naive position map
//     (run under ASAN in CI);
//  3. field level: SensorField's grid-backed slot queries and adjacency
//     against brute scans of every slot, and whole runs staying
//     byte-identical across runner worker counts (run under TSAN in CI).
//     Whole runs of all three algorithms, with and without fault chaos,
//     must reproduce bit for bit the runs recorded in pinned_runs.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "pinned_runs.hpp"
#include "runner/executor.hpp"
#include "runner/sink.hpp"
#include "sim/rng.hpp"
#include "spatial/uniform_grid.hpp"

namespace sensrep::spatial {
namespace {

using geometry::Rect;
using geometry::Vec2;

constexpr Rect kField{{0.0, 0.0}, {400.0, 400.0}};

// --- grid contract ----------------------------------------------------------

TEST(UniformGrid, SizingCoversTheBounds) {
  const UniformGrid2D<int> g(kField, 63.0);
  EXPECT_EQ(g.cols(), 7u);  // ceil(400 / 63)
  EXPECT_EQ(g.rows(), 7u);
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0u);
}

TEST(UniformGrid, RejectsNonPositiveCellSize) {
  EXPECT_THROW(UniformGrid2D<int>(kField, 0.0), std::invalid_argument);
  EXPECT_THROW(UniformGrid2D<int>(kField, -1.0), std::invalid_argument);
}

TEST(UniformGrid, DegenerateBoundsStillGetOneCell) {
  const UniformGrid2D<int> g({{5.0, 5.0}, {5.0, 5.0}}, 10.0);
  EXPECT_EQ(g.cols(), 1u);
  EXPECT_EQ(g.rows(), 1u);
}

TEST(UniformGrid, InsertRemoveContains) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(3, {10, 10});
  EXPECT_TRUE(g.contains(3));
  EXPECT_EQ(g.position(3), (Vec2{10, 10}));
  EXPECT_THROW(g.insert(3, {20, 20}), std::logic_error);  // duplicate id
  g.remove(3);
  EXPECT_FALSE(g.contains(3));
  g.remove(3);  // absent: no-op by contract
  EXPECT_THROW(static_cast<void>(g.position(3)), std::out_of_range);
}

TEST(UniformGrid, MoveUnknownIdThrows) {
  UniformGrid2D<int> g(kField, 50.0);
  EXPECT_THROW(g.move(1, {0, 0}), std::out_of_range);
}

TEST(UniformGrid, CheckedMoveDetectsIndexDesync) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(1, {10, 10});
  EXPECT_NO_THROW(g.move(1, {10, 10}, {200, 200}));
  // A caller whose belief of the old position is stale forgot an update
  // somewhere; the grid fails loudly instead of silently fragmenting.
  EXPECT_THROW(g.move(1, {10, 10}, {30, 30}), std::logic_error);
  EXPECT_EQ(g.position(1), (Vec2{200, 200}));
}

TEST(UniformGrid, OutOfBoundsPointsClampIntoBorderCellsButKeepTruePositions) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(1, {-100, -100});
  g.insert(2, {900, 900});
  EXPECT_EQ(g.position(1), (Vec2{-100, -100}));
  // Queries still use exact stored positions, so the nearest answer is
  // correct even though both points live in (clamped) border cells.
  EXPECT_EQ(g.nearest({0, 0}).value(), 1);
  // From the field center both are outside, but 1 is nearer; from (400,400)
  // they would be exactly equidistant (tie to 1) — query off-center instead.
  EXPECT_EQ(g.nearest({410, 410}).value(), 2);
  EXPECT_EQ(g.within_radius({-100, -100}, 1.0), std::vector<int>{1});
}

TEST(UniformGrid, ForEachIsCellMajorThenInsertionOrder) {
  UniformGrid2D<int> g(kField, 100.0);  // 4x4 cells
  g.insert(9, {350, 350});  // last cell
  g.insert(5, {10, 10});    // first cell, first
  g.insert(7, {20, 20});    // first cell, second
  g.insert(1, {10, 150});   // row 1
  std::vector<int> order;
  g.for_each([&](int id, Vec2) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<int>{5, 7, 1, 9}));
}

TEST(UniformGrid, SameCellMovePreservesInsertionOrder) {
  UniformGrid2D<int> g(kField, 100.0);
  g.insert(5, {10, 10});
  g.insert(7, {20, 20});
  g.move(5, {30, 30});  // stays in cell (0,0); must not re-append
  std::vector<int> order;
  g.for_each([&](int id, Vec2) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<int>{5, 7}));
  EXPECT_EQ(g.position(5), (Vec2{30, 30}));
}

TEST(UniformGrid, NearestBreaksDistanceTiesByLowestId) {
  UniformGrid2D<int> g(kField, 50.0);
  // Exactly equidistant from the origin (3-4-5 triangles): d = 50 both ways.
  g.insert(8, {30, 40});
  g.insert(2, {40, 30});
  EXPECT_EQ(g.nearest({0, 0}).value(), 2);
  EXPECT_EQ(g.nearest_euclid({0, 0}, [](int) { return true; }).value(), 2);
  // The filter resolves the tie the other way once 2 is unacceptable.
  EXPECT_EQ(g.nearest({0, 0}, [](int id) { return id != 2; }).value(), 8);
}

TEST(UniformGrid, NearestOnEmptyOrFullyFilteredGridIsNullopt) {
  UniformGrid2D<int> g(kField, 50.0);
  EXPECT_FALSE(g.nearest({0, 0}).has_value());
  g.insert(1, {10, 10});
  EXPECT_FALSE(g.nearest({0, 0}, [](int) { return false; }).has_value());
}

TEST(UniformGrid, NearestCrossesManyEmptyRings) {
  // One point in the far corner: the ring search must expand all the way
  // across the grid instead of giving up on empty rings.
  UniformGrid2D<int> g(kField, 10.0);  // 40x40 cells
  g.insert(42, {399, 399});
  EXPECT_EQ(g.nearest({0, 0}).value(), 42);
}

TEST(UniformGrid, InRectIsClosedAndAscending) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(3, {100, 100});  // on the min corner: included (closed)
  g.insert(1, {150, 150});  // on the max corner: included (closed)
  g.insert(2, {99, 100});   // just outside
  EXPECT_EQ(g.in_rect({{100, 100}, {150, 150}}), (std::vector<int>{1, 3}));
}

// --- randomized property suite: grid vs brute force -------------------------

/// Independent reference: the scans the simulator used before the index.
struct BruteRef {
  std::vector<std::pair<int, Vec2>> pts;  // ascending id

  /// d2 comparator, first-wins over ascending ids == ties to the lowest id.
  template <typename Filter>
  [[nodiscard]] std::optional<int> nearest_d2(Vec2 p, Filter accept) const {
    std::optional<int> best;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (const auto& [id, pos] : pts) {
      if (!accept(id)) continue;
      const double d2 = geometry::distance2(pos, p);
      if (!best || d2 < best_d2) {
        best = id;
        best_d2 = d2;
      }
    }
    return best;
  }

  /// fl(sqrt(d2)) comparator — what brute scans using geometry::distance
  /// compare. sqrt rounding can merge distinct d2 keys, so this and
  /// nearest_d2 can legitimately disagree; each must match its grid twin.
  template <typename Filter>
  [[nodiscard]] std::optional<int> nearest_euclid(Vec2 p, Filter accept) const {
    std::optional<int> best;
    double best_d = std::numeric_limits<double>::infinity();
    for (const auto& [id, pos] : pts) {
      if (!accept(id)) continue;
      const double d = geometry::distance(pos, p);
      if (!best || d < best_d) {
        best = id;
        best_d = d;
      }
    }
    return best;
  }

  [[nodiscard]] std::vector<int> within_radius(Vec2 p, double r) const {
    std::vector<int> out;
    for (const auto& [id, pos] : pts) {
      if (geometry::distance2(pos, p) <= r * r) out.push_back(id);
    }
    return out;
  }

  [[nodiscard]] std::vector<int> in_rect(const Rect& r) const {
    std::vector<int> out;
    for (const auto& [id, pos] : pts) {
      if (r.contains(pos)) out.push_back(id);
    }
    return out;
  }
};

TEST(UniformGridProperty, AllQueriesMatchBruteForceOverRandomizedTrials) {
  sim::Rng rng(20260805);
  for (int trial = 0; trial < 1000; ++trial) {
    // Vary the geometry every trial: cell sizes from "everything in one
    // cell" to "one point per cell", point counts from sparse to dense,
    // and a few points pushed outside the bounds (clamped border cells).
    const double cell = 5.0 + rng.uniform01() * 200.0;
    const int n = 1 + static_cast<int>(rng.uniform01() * 60.0);
    UniformGrid2D<int> grid(kField, cell);
    BruteRef brute;
    for (int id = 0; id < n; ++id) {
      Vec2 p{rng.uniform01() * 440.0 - 20.0, rng.uniform01() * 440.0 - 20.0};
      if (rng.uniform01() < 0.1) p = {p.x * 10.0 - 1000.0, p.y};  // far outside
      grid.insert(id, p);
      brute.pts.emplace_back(id, p);
    }
    // Duplicate positions force genuine distance ties.
    if (n >= 2) {
      grid.move(n - 1, brute.pts[0].second);
      brute.pts[n - 1].second = brute.pts[0].second;
    }

    const Vec2 q{rng.uniform01() * 480.0 - 40.0, rng.uniform01() * 480.0 - 40.0};
    const auto accept_all = [](int) { return true; };
    const auto accept_even = [](int id) { return id % 2 == 0; };

    EXPECT_EQ(grid.nearest(q), brute.nearest_d2(q, accept_all)) << "trial " << trial;
    EXPECT_EQ(grid.nearest(q, accept_even), brute.nearest_d2(q, accept_even))
        << "trial " << trial;
    EXPECT_EQ(grid.nearest_euclid(q, accept_all), brute.nearest_euclid(q, accept_all))
        << "trial " << trial;
    EXPECT_EQ(grid.nearest_euclid(q, accept_even), brute.nearest_euclid(q, accept_even))
        << "trial " << trial;

    const double r = rng.uniform01() * 150.0;
    EXPECT_EQ(grid.within_radius(q, r), brute.within_radius(q, r)) << "trial " << trial;

    const Vec2 a{rng.uniform01() * 400.0, rng.uniform01() * 400.0};
    const Vec2 b{rng.uniform01() * 400.0, rng.uniform01() * 400.0};
    const Rect rect{{std::min(a.x, b.x), std::min(a.y, b.y)},
                    {std::max(a.x, b.x), std::max(a.y, b.y)}};
    EXPECT_EQ(grid.in_rect(rect), brute.in_rect(rect)) << "trial " << trial;
  }
}

// --- fuzz: incremental mutation vs a naive reference ------------------------

// Random interleavings of insert / move / checked-move / remove, with the
// grid's full contents and query answers checked against a std::map of
// positions after every operation. ASAN (CI) turns any bucket bookkeeping
// slip — double erase, stale Entry, leaked cell slot — into a hard fault.
TEST(UniformGridFuzz, IncrementalMutationsNeverDesyncFromNaiveReference) {
  sim::Rng rng(77);
  for (int round = 0; round < 40; ++round) {
    const double cell = 10.0 + rng.uniform01() * 120.0;
    UniformGrid2D<int> grid(kField, cell);
    std::map<int, Vec2> ref;
    int next_id = 0;

    for (int op = 0; op < 400; ++op) {
      const double roll = rng.uniform01();
      const Vec2 p{rng.uniform01() * 500.0 - 50.0, rng.uniform01() * 500.0 - 50.0};
      if (roll < 0.4 || ref.empty()) {
        grid.insert(next_id, p);
        ref.emplace(next_id, p);
        ++next_id;
      } else {
        // Pick an existing id, biased toward the low end like robot fleets.
        auto it = ref.lower_bound(static_cast<int>(rng.uniform01() * next_id));
        if (it == ref.end()) it = ref.begin();
        if (roll < 0.65) {
          grid.move(it->first, p);
          it->second = p;
        } else if (roll < 0.85) {
          grid.move(it->first, it->second, p);  // checked move (robot path)
          it->second = p;
        } else {
          grid.remove(it->first);
          ref.erase(it);
        }
      }

      ASSERT_EQ(grid.size(), ref.size());
      if (op % 20 != 0) continue;  // full audits are O(n); sample them
      std::vector<std::pair<int, Vec2>> seen;
      grid.for_each([&](int id, Vec2 pos) { seen.emplace_back(id, pos); });
      ASSERT_EQ(seen.size(), ref.size());
      std::sort(seen.begin(), seen.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto rit = ref.begin();
      for (const auto& [id, pos] : seen) {
        ASSERT_EQ(id, rit->first);
        ASSERT_EQ(pos, rit->second);
        ++rit;
      }
      // And a spot query: the naive nearest must agree.
      const Vec2 q{rng.uniform01() * 400.0, rng.uniform01() * 400.0};
      std::optional<int> naive;
      double naive_d2 = std::numeric_limits<double>::infinity();
      for (const auto& [id, pos] : ref) {
        const double d2 = geometry::distance2(pos, q);
        if (!naive || d2 < naive_d2) {
          naive = id;
          naive_d2 = d2;
        }
      }
      ASSERT_EQ(grid.nearest(q), naive);
    }
  }
}

// --- field level: the grid-backed queries against a brute scan ---------------

// SensorField answers every proximity question from its grid; a scan of every
// slot with the same sqrt-form predicate (and, for adjacency, the d^2 form)
// is the reference both must reproduce exactly, boundary points included.
TEST(SensorFieldQueries, SlotsWithinAndAdjacencyMatchBruteScans) {
  core::SimulationConfig cfg;
  cfg.algorithm = core::Algorithm::kFixedDistributed;
  cfg.robots = 4;
  cfg.seed = 2026;
  core::Simulation s(cfg);
  const wsn::SensorField& field = s.field();
  ASSERT_GT(field.size(), 100u);
  const double tx = cfg.field.sensor_tx_range;

  const auto brute_within = [&field](Vec2 center, double range) {
    std::vector<net::NodeId> out;
    for (net::NodeId id = 0; id < field.size(); ++id) {
      if (geometry::distance(field.node(id).position(), center) <= range) out.push_back(id);
    }
    return out;
  };

  sim::Rng rng(77);
  const Rect area = cfg.field_area();
  const auto random_sensor = [&] {
    return field.node(static_cast<net::NodeId>(rng.below(field.size()))).position();
  };
  for (int trial = 0; trial < 300; ++trial) {
    // A third of the queries are centred on a sensor with the range set to
    // the exact distance of another, which then lies on the closed ball's
    // boundary; the rest are random centres and ranges.
    Vec2 center;
    double range = 0.0;
    if (trial % 3 == 0) {
      center = random_sensor();
      range = geometry::distance(center, random_sensor());
    } else {
      center = {area.min.x + rng.uniform01() * area.width(),
                area.min.y + rng.uniform01() * area.height()};
      range = rng.uniform01() * 3.0 * tx;
    }
    ASSERT_EQ(field.slots_within(center, range), brute_within(center, range))
        << "trial " << trial;
  }

  for (net::NodeId id = 0; id < field.size(); ++id) {
    const Vec2 p = field.node(id).position();
    std::vector<net::NodeId> want;
    for (net::NodeId m = 0; m < field.size(); ++m) {
      if (m != id && geometry::distance2(field.node(m).position(), p) <= tx * tx) {
        want.push_back(m);
      }
    }
    std::vector<net::NodeId> got;
    for (const auto& e : field.static_neighbors(id)) got.push_back(e.id);
    ASSERT_EQ(got, want) << "sensor " << id;
  }
}

// --- end to end: whole runs must match the recorded run ----------------------
//
// Before the brute-force scans were deleted, each of these runs was
// bit-identical with the spatial index on and off; pinned_runs.hpp holds that
// shared result, so the surviving path must still reproduce it bit for bit.

class SpatialEquivalence : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(SpatialEquivalence, DefaultRunIsBitIdenticalWithIndexOnAndOff) {
  core::pinned::expect_matches_recorded_run(GetParam(), /*chaos=*/false);
}

TEST_P(SpatialEquivalence, FaultChaosRunIsBitIdenticalWithIndexOnAndOff) {
  core::pinned::expect_matches_recorded_run(GetParam(), /*chaos=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SpatialEquivalence,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& tpi) {
                           return std::string(core::to_string(tpi.param));
                         });

// The parallel runner must keep its byte-identical-across-worker-counts
// guarantee: the grid is per-simulation state, so workers must never share
// one. TSAN runs this in CI.
TEST(SpatialRunnerDeterminism, CsvIsByteIdenticalAcrossWorkerCountsWithIndexOn) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
                     core::Algorithm::kDynamicDistributed};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 800.0;
  grid.base.robot_faults.mtbf = 400.0;  // exercise supervision in every job
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
}  // namespace sensrep::spatial
