// perfbench_selftest — invariants the benchmark's numbers rest on.
//
//   perfbench_selftest      (exit 0 when every check passes)
//
// 1. The traced run's step loop and the untraced run's sliced advance reach
//    the state Simulation::run() reaches, bitwise, for all three algorithms.
// 2. The serve_replay command stream is a pure function of its seed, every
//    line is a valid protocol command, and no sensor is failed twice.
//
// That every emitted metric is declared in BENCHMARK.json, and every
// declared one emitted, run.py checks on every benchmark run.

#include <cstdio>
#include <set>
#include <string>

#include "core/simulation.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using sensrep::core::Algorithm;
using sensrep::core::Simulation;
using sensrep::core::SimulationConfig;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void driving_modes_agree(Algorithm algorithm) {
  SimulationConfig cfg;
  cfg.algorithm = algorithm;
  cfg.robots = 4;
  cfg.seed = 7;
  cfg.sim_duration = 3000.0;
  const std::string name(sensrep::core::to_string(algorithm));

  Simulation plain(cfg);
  plain.run();
  const std::string want = cell_line(plain);

  Simulation stepped(cfg);
  StepLedger ledger;
  run_stepped(stepped, ledger);
  check(cell_line(stepped) == want, name + ": step-driven loop == Simulation::run()");
  check(stepped.digest() == plain.digest(), name + ": step-driven StateDigest bitwise equal");
  check(ledger.steps() == plain.simulator().executed(),
        name + ": ledger saw every executed event");

  Simulation sliced(cfg);
  run_sliced(sliced, 100.0);
  check(cell_line(sliced) == want, name + ": sliced advance == Simulation::run()");
}

void command_stream_is_seeded() {
  const SimulationConfig cfg = serve_options(11).simulation_config();
  const auto a = serve_commands(11, cfg);
  const auto b = serve_commands(11, cfg);
  const auto c = serve_commands(12, cfg);
  check(!a.empty() && a == b, "serve_replay: same seed, same command stream");
  check(a != c, "serve_replay: another seed, another command stream");
  bool parse = true;
  std::set<std::uint64_t> failed;
  bool distinct = true;
  for (const auto& line : a) {
    try {
      const auto cmd = sensrep::service::parse_command(line);
      parse = parse && cmd.has_value();
      if (cmd && cmd->kind == sensrep::service::CommandKind::kFail) {
        distinct = failed.insert(cmd->id).second && distinct;
      }
    } catch (const std::exception&) {
      parse = false;
    }
  }
  check(parse, "serve_replay: every command parses");
  check(distinct && !failed.empty(), "serve_replay: no sensor is failed twice");
}

}  // namespace

int main() {
  for (const Algorithm a : {Algorithm::kCentralized, Algorithm::kFixedDistributed,
                            Algorithm::kDynamicDistributed}) {
    driving_modes_agree(a);
  }
  command_stream_is_seeded();
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
