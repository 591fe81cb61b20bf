// rdsim/common/histogram.h
//
// Fixed-bin histogram used to reconstruct threshold-voltage distributions
// (Figs. 2 and 9) and victim-cell count distributions (Fig. 12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdsim {

/// Uniform-bin histogram over [lo, hi). Out-of-range samples are clamped
/// into the first/last bin so that probability mass is conserved.
class Histogram {
 public:
  /// Requires hi > lo and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  std::size_t bin_count() const { return counts_.size(); }
  double bin_width() const { return width_; }
  std::uint64_t total() const { return total_; }

  /// Raw count of bin i.
  std::uint64_t count(std::size_t i) const { return counts_[i]; }

  /// Center x-coordinate of bin i.
  double bin_center(std::size_t i) const;

  /// Probability density estimate at bin i (count / (total * bin_width)),
  /// i.e. integrates to ~1. Returns 0 when the histogram is empty.
  double pdf(std::size_t i) const;

  /// Fraction of total mass in bin i. Returns 0 when empty.
  double mass(std::size_t i) const;

  /// Empirical mean of the binned samples (bin centers weighted by counts).
  double mean() const;

  /// Empirical q-quantile (q in [0, 1], clamped): the upper edge of the
  /// first bin whose cumulative count reaches ceil(q * total). This is the
  /// smallest bin boundary guaranteed to cover a q-fraction of the mass,
  /// which is the conservative convention for latency percentiles (p99 of
  /// completions is never under-reported by more than one bin width).
  /// Returns lo() when the histogram is empty.
  double quantile(double q) const;

  /// One point of an empirical CDF: cumulative `fraction` of the mass is
  /// at or below `value`.
  struct CdfPoint {
    double value;
    double fraction;
  };

  /// Empirical CDF as (value, cumulative-fraction) pairs, one per
  /// non-empty bin, with `value` the bin's upper edge (matching the
  /// conservative quantile() convention: the fraction at or below that
  /// edge is never under-reported). The last point's fraction is exactly
  /// 1.0. Empty histogram yields an empty vector.
  std::vector<CdfPoint> cdf_points() const;

  /// Resets all counts to zero.
  void clear();

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace rdsim
