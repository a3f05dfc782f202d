#include "metrics.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

void Report::set(std::string_view name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(std::string(name), value);
}

std::string Report::json() const {
  std::string out = "{";
  for (const auto& [name, value] : values_) {
    if (out.size() > 1) out += ", ";
    out += '"';
    out += name;
    out += "\": ";
    out += format_number(value);
  }
  return out + "}";
}

std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("metric value is not finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
