// perfbench_driver — runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--reference FILE] [--write-reference FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": value, ...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// run.py checks the names against BENCHMARK.json and adds their units.
// `attempted` counts output checks and `failed` the mismatches among them.
// With --seed 1 (the default seed) and --reference, each pass's outputs are
// compared with the committed reference; on other seeds every pass, traced
// or not, must reproduce the first pass's outputs. --write-reference saves
// the first pass's outputs instead (used to refresh reference/*.txt).
//
// Exit codes: 0 with a result line, 2 on bad arguments or a failed run.

#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::optional<Outputs> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Outputs lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const auto n = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument(flag + ": not an integer: " + v);
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);

    std::string workload, reference, write_reference;
    RunOptions options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      if (i + 1 >= args.size()) throw std::invalid_argument(flag + ": missing value");
      const std::string& v = args[++i];
      if (flag == "--workload") {
        workload = v;
      } else if (flag == "--seed") {
        options.seed = parse_u64(flag, v);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = static_cast<double>(parse_u64(flag, v));
        have_seconds = true;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") throw std::invalid_argument("--trace: expected 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (flag == "--reference") {
        reference = v;
      } else if (flag == "--write-reference") {
        write_reference = v;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
      throw std::invalid_argument("--workload, --seed, --seconds and --trace are required");
    }

    std::optional<Outputs> want;
    if (!reference.empty() && write_reference.empty() && options.seed == kDefaultSeed) {
      want = read_lines(reference);
      if (!want) throw std::runtime_error("cannot read reference " + reference);
    }
    Checker check(std::move(want));
    const Report report = run_workload(workload, options, check);

    if (!write_reference.empty()) {
      std::ofstream out(write_reference);
      for (const std::string& line : check.first()) out << line << '\n';
      if (!out) throw std::runtime_error("cannot write " + write_reference);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                check.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(check.attempted()),
                static_cast<unsigned long long>(check.failed()), report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
