// rdsim/common/stats.h
//
// Statistical primitives shared across the simulator: the standard normal
// pdf/cdf/quantile (used for analytic RBER overlap integrals and tail
// probabilities), streaming moment accumulators, and ordinary least squares
// line fitting (used to recover Fig. 3's RBER-per-read slopes).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rdsim {

/// Standard normal probability density at x.
double normal_pdf(double x);

/// Standard normal cumulative distribution function.
double normal_cdf(double x);

/// Upper-tail probability Q(x) = 1 - Phi(x), computed via erfc so it stays
/// accurate deep into the tail (needed for pass-through error rates ~1e-9).
double normal_sf(double x);

/// Inverse standard normal CDF (Acklam's rational approximation, |eps| <
/// 1.15e-9). Requires 0 < p < 1.
double normal_quantile(double p);

/// Streaming mean/variance via Welford's algorithm.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance; 0 when fewer than 2 samples.
  double variance() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Result of an ordinary least-squares straight-line fit y = slope*x +
/// intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< Coefficient of determination.
};

/// Fits a line through (x[i], y[i]). Requires x.size() == y.size() >= 2.
LineFit fit_line(std::span<const double> x, std::span<const double> y);

/// p-th percentile (p in [0,100]) with linear interpolation; the input is
/// copied and sorted. Requires a non-empty input.
double percentile(std::vector<double> values, double p);

/// Arithmetic mean of a span. Requires non-empty input.
double mean_of(std::span<const double> values);

/// Geometric mean of strictly positive values. Requires non-empty input.
double geometric_mean(std::span<const double> values);

}  // namespace rdsim
