// rdsim/workload/zipf.h
//
// Zipf(theta) sampler over [0, n). Contemporary storage workloads
// concentrate reads on a small set of hot data — the paper names this
// uneven read distribution as the reason some blocks rapidly exceed the
// read counts at which read disturb errors appear (§1) — and Zipfian
// popularity is the standard model for it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rdsim::workload {

class ZipfSampler {
 public:
  /// Zipf over n items with skew theta >= 0 (0 = uniform). Items are
  /// ranked: item 0 is the most popular.
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t n() const { return n_; }

  /// Draws one rank in [0, n).
  std::uint64_t sample(Rng& rng) const;

  /// Probability mass of the given rank.
  double pmf(std::uint64_t rank) const;

 private:
  std::uint64_t n_;
  double theta_;
  /// CDF over the first `kHead` ranks; the tail is sampled via the
  /// continuous approximation (bounded-pareto inversion), which is accurate
  /// for large ranks and keeps construction O(kHead) even for huge n.
  std::vector<double> head_cdf_;
  double head_mass_ = 0.0;
  double tail_norm_ = 0.0;
  double harmonic_ = 0.0;  ///< Generalized harmonic number H_{n,theta}.

  static constexpr std::uint64_t kHead = 4096;
};

}  // namespace rdsim::workload
