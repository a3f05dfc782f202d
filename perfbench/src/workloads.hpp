#pragma once

// The benchmark's two workloads and the pieces the self-test reuses.
//
//   paper_grid    the paper's §4.3 grid (3 algorithms x {4, 9, 16} robots)
//                 at paper parameters and a reduced horizon
//   serve_replay  an in-process service::Daemon driven by a seeded command
//                 stream, ending with a snapshot and a restore from it
//
// Every workload is a closed loop: one caller waits for each result before
// issuing the next call. Both run the default program (one shard,
// pooled queue, grid index).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "metrics.hpp"
#include "service/options.hpp"
#include "step_tracer.hpp"

namespace perfbench {

/// The seed whose outputs are committed under reference/.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

/// Output lines of one pass over a workload: one per simulation cell (digest
/// plus the key ExperimentResult fields), or the reply-transcript hash and
/// final digest of a service session.
using Outputs = std::vector<std::string>;

/// Counts output checks. Every pass's outputs are compared line by line
/// with the expected ones: the committed reference when there is one, else
/// the first pass of this run (so traced and untraced passes must agree).
class Checker {
 public:
  explicit Checker(std::optional<Outputs> reference) : want_(std::move(reference)) {}

  void compare(const Outputs& got);
  void expect(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Outputs of the first pass compared (what --write-reference saves).
  [[nodiscard]] const Outputs& first() const noexcept { return first_; }

 private:
  std::optional<Outputs> want_;
  Outputs first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs workload `name` for about `options.seconds` and reports the
/// end-to-end metrics, or with `options.trace` the per-layer ones. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const std::string& name, const RunOptions& options,
                                  Checker& check);

// --- pieces shared with the self-test ----------------------------------------

/// The nine simulation cells of paper_grid.
[[nodiscard]] std::vector<sensrep::core::SimulationConfig> paper_cells(std::uint64_t seed);

/// Untraced driving: run_until in slices of `slice` virtual seconds up to
/// the horizon; returns each slice's wall nanoseconds.
std::vector<std::int64_t> run_sliced(sensrep::core::Simulation& sim, double slice);

/// Traced driving: Simulator::step() while the next event is within the
/// horizon, each step timed into `ledger`, then run_until(horizon) to land
/// the clock exactly where Simulation::run() leaves it.
void run_stepped(sensrep::core::Simulation& sim, StepLedger& ledger);

/// One checked output line for a finished cell.
[[nodiscard]] std::string cell_line(const sensrep::core::Simulation& sim);

[[nodiscard]] sensrep::service::DaemonOptions serve_options(std::uint64_t seed);

/// The serve_replay command stream: a pure function of its arguments.
[[nodiscard]] std::vector<std::string> serve_commands(
    std::uint64_t seed, const sensrep::core::SimulationConfig& cfg);

}  // namespace perfbench
