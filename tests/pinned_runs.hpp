// Whole-run behaviour pins, shared by hot_path_test.cpp and spatial_test.cpp.
//
// Six full simulations — each algorithm with the default configuration
// (8000 s) and under robot fault/repair chaos with packet loss (4000 s) —
// must reproduce, bit for bit, the results and final state digest recorded
// before the map-backed event queue, the per-node reads and the brute-force
// spatial scans were deleted from the program. Each recorded run is the one
// both twins produced: pooled queue and legacy queue, uniform grid and brute
// scans gave the same bits run-for-run. These pins keep the surviving paths
// honest without them. The chaos runs put heavy cancel/reschedule churn
// through the queue and drive every fleet-index query (supervision sweeps,
// adoption floods, failover nearest-robot picks).
//
// Doubles are hex-float literals: EXPECT_EQ, not NEAR — any ULP of drift is
// a behaviour change. If a change is *meant* to alter behaviour, re-record
// the table and the goldens under tests/goldens/ together and say why.

#pragma once

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace sensrep::core::pinned {

struct PinnedRun {
  Algorithm algorithm;
  bool chaos;
  ExperimentResult result;
  StateDigest digest;
};

// clang-format off
inline const PinnedRun kPinned[] = {
    {core::Algorithm::kCentralized, /*chaos=*/false,
     {.avg_travel_per_repair = 0x1.9547ae4e74ff5p+6,
      .avg_report_hops = 0x1.cb4b4b4b4b4b5p+1,
      .avg_request_hops = 0x1.0f0f0f0f0f0f3p+0,
      .location_update_tx_per_repair = 0x1.6cac5b3f5dc84p+3,
      .failures = 105,
      .detected = 102,
      .reported = 102,
      .repaired = 101,
      .unreported = 0,
      .router_drops = 0,
      .avg_detection_latency = 0x1.d33bd506ced33p+4,
      .avg_repair_latency = 0x1.2b547fe04a171p+7,
      .p95_repair_latency = 0x1.15a5d9ba2968p+8,
      .total_robot_distance = 0x1.41aa8f89e8518p+13,
      .motion_energy_j = 0x1.2d8fe69149cc6p+17,
      .robot_failures = 0,
      .tasks_lost = 0,
      .redispatches = 0,
      .failover_events = 0,
      .adoptions = 0,
      .robot_repairs = 0,
      .elections = 0,
      .handbacks = 0,
      .ownership_transfers = 0,
      .transmissions = {409, 158477, 392, 371, 108, 1151, 301, 0, 0, 0}},
     {.clock = 0x1.f4p+12,
      .events_executed = 234307,
      .pending_events = 397,
      .failures = 105,
      .repaired = 101,
      .robot_failures = 0,
      .robot_repairs = 0,
      .live_robots = 4,
      .pending_tasks = 1,
      .transmissions = 161209}},
    {core::Algorithm::kFixedDistributed, /*chaos=*/false,
     {.avg_travel_per_repair = 0x1.a392abd51a282p+6,
      .avg_report_hops = 0x1.3ebebebebebe8p+1,
      .avg_request_hops = 0x0p+0,
      .location_update_tx_per_repair = 0x1.20cd4e930288ep+8,
      .failures = 103,
      .detected = 102,
      .reported = 102,
      .repaired = 101,
      .unreported = 0,
      .router_drops = 0,
      .avg_detection_latency = 0x1.d31e8b66bea58p+4,
      .avg_repair_latency = 0x1.3d7c90fb7ad91p+7,
      .p95_repair_latency = 0x1.1e26ec95837dp+8,
      .total_robot_distance = 0x1.4b11bb9626a3ap+13,
      .motion_energy_j = 0x1.36609fdcc4396p+17,
      .robot_failures = 0,
      .tasks_lost = 0,
      .redispatches = 0,
      .failover_events = 0,
      .adoptions = 0,
      .robot_repairs = 0,
      .elections = 0,
      .handbacks = 0,
      .ownership_transfers = 0,
      .transmissions = {404, 158383, 391, 254, 0, 29169, 301, 0, 0, 0}},
     {.clock = 0x1.f4p+12,
      .events_executed = 588346,
      .pending_events = 399,
      .failures = 103,
      .repaired = 101,
      .robot_failures = 0,
      .robot_repairs = 0,
      .live_robots = 4,
      .pending_tasks = 1,
      .transmissions = 188902}},
    {core::Algorithm::kDynamicDistributed, /*chaos=*/false,
     {.avg_travel_per_repair = 0x1.97da1a8b9d34cp+6,
      .avg_report_hops = 0x1.2a409f1165e73p+1,
      .avg_request_hops = 0x0p+0,
      .location_update_tx_per_repair = 0x1.615cdcdcdcdcep+8,
      .failures = 104,
      .detected = 103,
      .reported = 103,
      .repaired = 102,
      .unreported = 0,
      .router_drops = 0,
      .avg_detection_latency = 0x1.d1fff17590565p+4,
      .avg_repair_latency = 0x1.4632986bb3cbfp+7,
      .p95_repair_latency = 0x1.5448ca8c1d85ap+8,
      .total_robot_distance = 0x1.45a1cd274145fp+13,
      .motion_energy_j = 0x1.3147b054cd319p+17,
      .robot_failures = 0,
      .tasks_lost = 0,
      .redispatches = 0,
      .failover_events = 0,
      .adoptions = 0,
      .robot_repairs = 0,
      .elections = 0,
      .handbacks = 0,
      .ownership_transfers = 0,
      .transmissions = {685, 158334, 390, 240, 0, 36043, 306, 0, 0, 0}},
     {.clock = 0x1.f4p+12,
      .events_executed = 675436,
      .pending_events = 398,
      .failures = 104,
      .repaired = 102,
      .robot_failures = 0,
      .robot_repairs = 0,
      .live_robots = 4,
      .pending_tasks = 1,
      .transmissions = 195998}},
    {core::Algorithm::kCentralized, /*chaos=*/true,
     {.avg_travel_per_repair = 0x1.0b07d1a8f73a5p+7,
      .avg_report_hops = 0x1.9d89d89d89d89p+1,
      .avg_request_hops = 0x1.04ec4ec4ec4ecp+0,
      .location_update_tx_per_repair = 0x1.0ac234f72c235p+5,
      .failures = 53,
      .detected = 52,
      .reported = 52,
      .repaired = 29,
      .unreported = 0,
      .router_drops = 87,
      .avg_detection_latency = 0x1.c6e421284d546p+4,
      .avg_repair_latency = 0x1.783572dfb37c8p+9,
      .p95_repair_latency = 0x1.edfbb089dce5fp+10,
      .total_robot_distance = 0x1.58cab08c10a72p+12,
      .motion_energy_j = 0x1.433e05834f9ccp+16,
      .robot_failures = 13,
      .tasks_lost = 92,
      .redispatches = 99,
      .failover_events = 0,
      .adoptions = 0,
      .robot_repairs = 11,
      .elections = 0,
      .handbacks = 0,
      .ownership_transfers = 0,
      .transmissions = {409, 75056, 286, 5561, 3075, 967, 87, 0, 20154, 0}},
     {.clock = 0x1.f4p+11,
      .events_executed = 161511,
      .pending_events = 516,
      .failures = 53,
      .repaired = 29,
      .robot_failures = 13,
      .robot_repairs = 11,
      .live_robots = 2,
      .pending_tasks = 34,
      .transmissions = 105595}},
    {core::Algorithm::kFixedDistributed, /*chaos=*/true,
     {.avg_travel_per_repair = 0x1.f7d4b4b264defp+6,
      .avg_report_hops = 0x1.f627627627628p+1,
      .avg_request_hops = 0x0p+0,
      .location_update_tx_per_repair = 0x1.63ccccccccccdp+10,
      .failures = 53,
      .detected = 52,
      .reported = 52,
      .repaired = 25,
      .unreported = 0,
      .router_drops = 108,
      .avg_detection_latency = 0x1.c7020d0a53e8bp+4,
      .avg_repair_latency = 0x1.abe66163ea02ep+8,
      .p95_repair_latency = 0x1.11caf7dc4cf57p+10,
      .total_robot_distance = 0x1.e538020982c6ep+11,
      .motion_energy_j = 0x1.c6e481e8ea9a7p+15,
      .robot_failures = 13,
      .tasks_lost = 45,
      .redispatches = 0,
      .failover_events = 0,
      .adoptions = 16,
      .robot_repairs = 11,
      .elections = 0,
      .handbacks = 0,
      .ownership_transfers = 5,
      .transmissions = {404, 74993, 278, 3427, 0, 35580, 75, 0, 2666, 0}},
     {.clock = 0x1.f4p+11,
      .events_executed = 518589,
      .pending_events = 350,
      .failures = 53,
      .repaired = 25,
      .robot_failures = 13,
      .robot_repairs = 11,
      .live_robots = 2,
      .pending_tasks = 32,
      .transmissions = 117423}},
    {core::Algorithm::kDynamicDistributed, /*chaos=*/true,
     {.avg_travel_per_repair = 0x1.e38097e616aa5p+6,
      .avg_report_hops = 0x1.e000000000001p+1,
      .avg_request_hops = 0x0p+0,
      .location_update_tx_per_repair = 0x1.8e3bbbbbbbbbcp+10,
      .failures = 53,
      .detected = 52,
      .reported = 52,
      .repaired = 30,
      .unreported = 1,
      .router_drops = 85,
      .avg_detection_latency = 0x1.c6b8d2c8e8e4p+4,
      .avg_repair_latency = 0x1.3c99ed8937defp+9,
      .p95_repair_latency = 0x1.b6659d83c533bp+10,
      .total_robot_distance = 0x1.538e0a93d3d04p+12,
      .motion_energy_j = 0x1.3e5529ea96934p+16,
      .robot_failures = 13,
      .tasks_lost = 80,
      .redispatches = 0,
      .failover_events = 0,
      .adoptions = 0,
      .robot_repairs = 11,
      .elections = 0,
      .handbacks = 0,
      .ownership_transfers = 0,
      .transmissions = {707, 75073, 286, 2655, 0, 47788, 90, 0, 0, 0}},
     {.clock = 0x1.f4p+11,
      .events_executed = 670117,
      .pending_events = 360,
      .failures = 53,
      .repaired = 30,
      .robot_failures = 13,
      .robot_repairs = 11,
      .live_robots = 2,
      .pending_tasks = 29,
      .transmissions = 126599}},
};
// clang-format on

inline SimulationConfig config_for(const PinnedRun& pin) {
  SimulationConfig cfg;
  cfg.algorithm = pin.algorithm;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = pin.chaos ? 4000.0 : 8000.0;
  if (pin.chaos) {
    cfg.robot_faults.mtbf = 1200.0;
    cfg.robot_faults.mttr = 600.0;
    cfg.robot_faults.heartbeat_period = 40.0;
    cfg.robot_faults.lease_auto_tune = true;
    cfg.radio.loss_probability = 0.05;
  }
  return cfg;
}

// Runs the pinned configuration for (algorithm, chaos) and compares every
// ExperimentResult field and the final StateDigest with the recorded run.
inline void expect_matches_recorded_run(Algorithm algorithm, bool chaos) {
  const PinnedRun* found = nullptr;
  for (const PinnedRun& pin : kPinned) {
    if (pin.algorithm == algorithm && pin.chaos == chaos) found = &pin;
  }
  ASSERT_NE(found, nullptr) << "no pinned run for " << to_string(algorithm);
  const PinnedRun& pin = *found;
  Simulation s(config_for(pin));
  s.run();
  const ExperimentResult a = s.result();
  const ExperimentResult& b = pin.result;
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.reported, b.reported);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.unreported, b.unreported);
  EXPECT_EQ(a.router_drops, b.router_drops);
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
  EXPECT_EQ(s.digest(), pin.digest) << s.digest().to_string();
}

}  // namespace sensrep::core::pinned
