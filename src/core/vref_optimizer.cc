#include "core/vref_optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/histogram.h"
#include "flash/types.h"

namespace rdsim::core {

ReadRefs VrefOptimizer::defaults(const nand::Block& block) {
  const auto& p = block.model().params();
  return {p.vref_a, p.vref_b, p.vref_c};
}

ReadRefs VrefOptimizer::learn(const nand::Block& block,
                              std::uint32_t wl) const {
  return learn(block, block.present_vth_page(wl));
}

ReadRefs VrefOptimizer::learn(const nand::Block& block,
                              std::span<const double> vth) const {
  const auto& p = block.model().params();
  const double lo = 0.0;
  const double hi = p.vpass_nominal + 8.0;
  std::vector<double> scan(vth.begin(), vth.end());
  nand::quantize_retry(scan, lo, hi, options_.scan_step);

  const auto bins = static_cast<std::size_t>((hi - lo) / options_.scan_step);
  Histogram hist(lo, hi, bins);
  for (const double v : scan) hist.add(v);

  // Smoothed density to suppress shot noise in sparse valleys.
  const int radius = static_cast<int>(options_.smoothing);
  std::vector<double> density(bins, 0.0);
  for (std::size_t i = 0; i < bins; ++i) {
    double sum = 0.0;
    int n = 0;
    for (int d = -radius; d <= radius; ++d) {
      const auto j = static_cast<std::int64_t>(i) + d;
      if (j < 0 || j >= static_cast<std::int64_t>(bins)) continue;
      sum += static_cast<double>(hist.count(static_cast<std::size_t>(j)));
      ++n;
    }
    density[i] = sum / n;
  }

  auto valley_near = [&](double center) {
    const double from = center - options_.search_radius;
    const double to = center + options_.search_radius;
    std::size_t best = 0;
    double best_density = 1e300;
    for (std::size_t i = 0; i < bins; ++i) {
      const double x = hist.bin_center(i);
      if (x < from || x > to) continue;
      if (density[i] < best_density) {
        best_density = density[i];
        best = i;
      }
    }
    return hist.bin_center(best);
  };

  ReadRefs refs;
  refs.va = valley_near(p.vref_a);
  refs.vb = valley_near(p.vref_b);
  refs.vc = valley_near(p.vref_c);
  return refs;
}

int VrefOptimizer::count_errors_with_refs(const nand::Block& block,
                                          std::uint32_t wl,
                                          const ReadRefs& refs) {
  assert(refs.va < refs.vb && refs.vb < refs.vc);
  const std::vector<double> vth = block.present_vth_page(wl);
  std::vector<std::uint8_t> sensed(vth.size());
  flash::VthModel::classify_batch(vth.data(), vth.size(), refs.va, refs.vb,
                                  refs.vc, sensed.data());
  return flash::bit_errors(sensed.data(), block.wordline_states(wl).data(),
                           sensed.size());
}

}  // namespace rdsim::core
