#include "core/rfr.h"

#include <array>
#include <cassert>
#include <cmath>

namespace rdsim::core {

using flash::CellState;

RfrResult RetentionFailureRecovery::recover(nand::Block& block,
                                            std::uint32_t wl) const {
  assert(block.programmed());
  const auto& geom = block.geometry();
  const auto& model = block.model();
  const auto& params = model.params();
  const double pe = block.pe_cycles();
  const std::size_t n = geom.bitlines;

  RfrResult result;
  result.bits = static_cast<int>(2 * geom.bitlines);
  result.corrected_states.resize(n);
  std::uint8_t* observed = flash::state_bytes(result.corrected_states.data());

  // Step 1: measure the aged page.
  const std::vector<double> scan1 = block.read_retry_scan(
      wl, options_.retry_lo, options_.retry_hi, options_.retry_step);
  const double days_before = block.retention_days();
  const std::uint8_t* truth = block.wordline_states(wl).data();
  model.classify_batch(scan1.data(), n, observed);
  result.errors_before = flash::bit_errors(observed, truth, n);

  // Step 2: controlled extra retention, then re-measure.
  block.advance_time(options_.extra_days);
  const std::vector<double> scan2 = block.read_retry_scan(
      wl, options_.retry_lo, options_.retry_hi, options_.retry_step);
  const double days_after = block.retention_days();

  // Expected additional downward drift of a nominal (leak_rate = 1) cell
  // currently sitting at voltage v. The drift law depends on the cell's
  // *programmed* voltage; approximate v0 by the present voltage, which is
  // accurate near the boundaries where re-labeling happens.
  auto drift_at = [&](double v) {
    return model.retention_shift(v, days_after, pe) -
           model.retention_shift(v, days_before, pe);  // <= 0.
  };

  // Step 3: per-boundary windows just below each read reference.
  const double dose = block.dose_for_wordline(wl);
  struct Boundary {
    CellState lower;
    double lo;  // Intersection - margin.
    double hi;  // Read reference.
  };
  const std::array<double, 3> refs = {params.vref_a, params.vref_b,
                                      params.vref_c};
  std::array<Boundary, 3> boundaries{};
  for (int b = 0; b < 3; ++b) {
    const auto lower = static_cast<CellState>(b);
    boundaries[b].lower = lower;
    boundaries[b].hi = refs[b];
    boundaries[b].lo =
        model.pdf_intersection(lower, pe, days_after, dose) -
        options_.lower_margin;
    // Retention moves distributions down; the ambiguous region cannot
    // extend above the reference itself.
    boundaries[b].lo = std::min(boundaries[b].lo, boundaries[b].hi - 1.0);
  }

  // Step 4: fast-leaking cells below a boundary belong to the higher
  // state.
  model.classify_batch(scan2.data(), n, observed);
  for (std::size_t bl = 0; bl < n; ++bl) {
    const double v = scan2[bl];
    const Boundary* hit = nullptr;
    for (const auto& b : boundaries) {
      if (v >= b.lo && v < b.hi) {
        hit = &b;
        break;
      }
    }
    if (hit != nullptr) {
      ++result.cells_in_window;
      const double drift = scan2[bl] - scan1[bl];  // <= 0 for leakers.
      const double threshold = options_.fast_factor * drift_at(v);
      const auto higher = static_cast<std::uint8_t>(
          static_cast<int>(hit->lower) + 1);
      if (drift < threshold && observed[bl] != higher) {
        ++result.cells_relabeled;
        observed[bl] = higher;
      }
    }
  }
  result.errors_after = flash::bit_errors(observed, truth, n);
  return result;
}

}  // namespace rdsim::core
