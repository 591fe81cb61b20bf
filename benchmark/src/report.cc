#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rdbench {

void Metrics::set(std::string_view name, std::string_view unit, double value,
                  double min, double max) {
  Metric m{std::string(name), std::string(unit), value, min, max};
  for (Metric& existing : metrics_) {
    if (existing.name == name) {
      existing = std::move(m);
      return;
    }
  }
  metrics_.push_back(std::move(m));
}

const Metric* Metrics::find(std::string_view name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Metrics::set_median(std::string_view name, std::string_view unit,
                         const std::vector<double>& samples) {
  if (samples.empty()) {
    set(name, unit, 0.0);
    return;
  }
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  set(name, unit, median(samples), *lo, *hi);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace rdbench
