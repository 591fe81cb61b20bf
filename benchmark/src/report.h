// rdbench/report.h
//
// Metric values and the small statistics and JSON helpers rdbench prints
// them with.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rdbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double min = 0.0;  ///< Over the repetitions the value is a median of;
  double max = 0.0;  ///< equal to value for single measurements.
};

/// Metrics in insertion order; set() on an existing name replaces it.
class Metrics {
 public:
  void set(std::string_view name, std::string_view unit, double value) {
    set(name, unit, value, value, value);
  }
  void set(std::string_view name, std::string_view unit, double value,
           double min, double max);
  /// Median of `samples` with their min and max (0 when empty).
  void set_median(std::string_view name, std::string_view unit,
                  const std::vector<double>& samples);

  const std::vector<Metric>& all() const { return metrics_; }
  /// The metric named `name`, or nullptr.
  const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// `text` as a quoted JSON string.
std::string json_string(std::string_view text);

/// A finite number as JSON with every significant digit (%.17g), which
/// round-trips exactly; NaN and infinities, which JSON cannot carry, as 0.
std::string json_number(double value);

}  // namespace rdbench
