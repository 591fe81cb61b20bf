#include "core/rdr.h"

#include <array>
#include <cassert>

namespace rdsim::core {

using flash::CellState;

RdrResult ReadDisturbRecovery::recover(nand::Block& block,
                                       std::uint32_t wl) const {
  return recover(block, wl, block.present_vth_page(wl));
}

RdrResult ReadDisturbRecovery::recover(nand::Block& block, std::uint32_t wl,
                                       std::span<const double> vth) const {
  assert(block.programmed());
  const auto& geom = block.geometry();
  assert(geom.wordlines_per_block >= 2 && vth.size() == geom.bitlines);
  const auto& model = block.model();
  const double pe = block.pe_cycles();
  const double days = block.retention_days();
  const std::size_t n = geom.bitlines;

  RdrResult result;
  result.bits = static_cast<int>(2 * geom.bitlines);
  result.corrected_states.resize(n);
  std::uint8_t* observed = flash::state_bytes(result.corrected_states.data());

  // Step 1: measure current threshold voltages via read-retry.
  std::vector<double> scan1(vth.begin(), vth.end());
  nand::quantize_retry(scan1, options_.retry_lo, options_.retry_hi,
                       options_.retry_step);
  const double dose_before = block.dose_for_wordline(wl);

  // Errors before recovery, from the pre-disturb measurement.
  const std::uint8_t* truth = block.wordline_states(wl).data();
  model.classify_batch(scan1.data(), n, observed);
  result.errors_before = flash::bit_errors(observed, truth, n);

  // Step 2: induce additional disturbs so susceptible cells reveal
  // themselves. Reads are addressed at a sibling wordline; the dose lands
  // on every *other* wordline, including `wl`.
  const std::uint32_t sibling = wl == 0 ? 1 : wl - 1;
  block.apply_reads(sibling, options_.extra_reads);
  const std::vector<double> scan2 = block.read_retry_scan(
      wl, options_.retry_lo, options_.retry_hi, options_.retry_step);
  const double extra_dose = block.dose_for_wordline(wl) - dose_before;

  // Step 3: per-boundary re-labeling windows. The lower edge is the read
  // reference (below it cells already read as the lower state); the upper
  // edge is the disturb-aware PDF intersection of the two adjacent states
  // plus a small margin — beyond it cells overwhelmingly belong to the
  // higher state. Boundary b separates states b and b + 1.
  const double dose_now = block.dose_for_wordline(wl);
  const auto& params = model.params();
  const std::array<double, 3> lo = {params.vref_a, params.vref_b,
                                   params.vref_c};
  std::array<double, 3> hi{};
  for (int b = 0; b < 3; ++b)
    hi[b] = model.pdf_intersection(static_cast<CellState>(b), pe, days,
                                   dose_now) +
            options_.upper_margin;
  // The first boundary whose window holds v (3: none).
  auto window_of = [&](double v) {
    for (int b = 0; b < 3; ++b)
      if (v >= lo[b] && v <= hi[b]) return b;
    return 3;
  };

  // Decisiveness threshold per cell: prone_factor * dVref, where dVref
  // is the shift a nominal-susceptibility cell already sitting at the
  // cell's scan2 voltage would experience from the induced dose alone.
  std::vector<double> dvref(n);
  model.disturb_shift_batch(scan2.data(), n, extra_dose, dvref.data());
  model.classify_batch(scan2.data(), n, observed);

  // Step 4: re-label cells in the ambiguous overlap region just above a
  // boundary. Disturb-prone cells (dVth decisively above dVref) are
  // predicted to belong to the lower distribution — they were disturbed
  // upward across the reference; disturb-resistant ones stay with the
  // higher distribution they read as. The hit boundary's index is its
  // lower state.
  int in_window = 0;
  int relabeled = 0;
  for (std::size_t bl = 0; bl < n; ++bl) {
    const double v = scan2[bl];
    const int hit = window_of(v);
    // Selects rather than branches: whether a cell is in a window and
    // whether it is prone are both coin flips to the branch predictor.
    const auto lower = static_cast<std::uint8_t>(hit);
    const bool in = hit < 3;
    const bool prone = v - scan1[bl] > options_.prone_factor * dvref[bl];
    const bool relabel = in & prone & (observed[bl] != lower);
    in_window += in;
    relabeled += relabel;
    observed[bl] = relabel ? lower : observed[bl];
  }
  result.cells_in_window = in_window;
  result.cells_relabeled = relabeled;
  result.errors_after = flash::bit_errors(observed, truth, n);
  return result;
}

}  // namespace rdsim::core
