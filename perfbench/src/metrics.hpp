#pragma once

// The metrics one run reports.
//
// BENCHMARK.json at the repository root is the only list of metric names
// and units: perfbench_driver prints `{"name": value, ...}` in the order the
// values were set, and run.py attaches each unit from BENCHMARK.json and
// fails the run when a declared metric is missing or an undeclared one is
// present.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// Records `name`, replacing an earlier value of the same name.
  void set(std::string_view name, double value);

  /// `{"name": v, ...}` in the order first set, values in shortest
  /// round-trip form. Throws std::logic_error on a non-finite value.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Shortest decimal form that reads back as the same double.
[[nodiscard]] std::string format_number(double v);

}  // namespace perfbench
