// rdsim/core/rdr.h
//
// Read Disturb Recovery (RDR) — the paper's *recovery* mechanism (§4).
//
// When a page has more raw bit errors than ECC can correct, RDR:
//   1. measures every cell's threshold voltage with read-retry;
//   2. deliberately applies a large number of additional read disturbs
//      (e.g. 100K) and re-measures, obtaining each cell's disturb-induced
//      shift dVth;
//   3. classifies cells near a state boundary as disturb-prone
//      (dVth > dVref) or disturb-resistant (dVth < dVref), where dVref is
//      the expected shift of a nominal cell sitting at the intersection of
//      the two adjacent states' probability density functions;
//   4. predicts that disturb-prone boundary cells belong to the *lower*
//      state (they were disturbed upward into the boundary region) and
//      disturb-resistant ones to the *higher* state, then rewrites the
//      sensed states accordingly before handing the page back to ECC.
//
// This exploits exactly the process variation the characterization found:
// cells differ in disturb susceptibility, and the susceptible ones are the
// ones that crossed a read reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flash/vth_model.h"
#include "nand/block.h"

namespace rdsim::core {

struct RdrOptions {
  double extra_reads = 100000.0;  ///< Induced disturbs for classification.
  /// The re-labeling window for each boundary spans from the read
  /// reference up to the (disturb-aware) PDF intersection of the two
  /// adjacent states plus this margin. Cells below the read reference
  /// already read as the lower state; cells beyond the intersection margin
  /// overwhelmingly belong to the higher state.
  double upper_margin = 6.0;
  /// Decisiveness: a cell is declared disturb-prone only when its measured
  /// shift exceeds prone_factor * dVref, where dVref is the shift a
  /// nominal-susceptibility cell at the same measured voltage would see
  /// from the induced dose. This guards against re-labeling genuine
  /// higher-state cells whose susceptibility is merely average.
  double prone_factor = 2.0;
  double retry_lo = 0.0;   ///< Read-retry scan range and step; RDR uses the
  double retry_hi = 520.0;  ///< chip's fine-grained retry mode so the shift
  double retry_step = 0.5;  ///< measurement resolves sub-unit deltas.
};

/// Per-wordline recovery outcome (both MLC pages).
struct RdrResult {
  int bits = 0;                ///< Total data bits examined (2 per cell).
  int errors_before = 0;       ///< Raw bit errors before recovery.
  int errors_after = 0;        ///< Raw bit errors after RDR re-labeling.
  int cells_relabeled = 0;     ///< Cells whose state RDR overrode.
  int cells_in_window = 0;     ///< Cells that fell in a boundary window.
  /// Recovered per-cell states (size = bitlines): what the controller
  /// hands to ECC after the probabilistic correction.
  std::vector<flash::CellState> corrected_states;
  double rber_before() const {
    return bits == 0 ? 0.0 : static_cast<double>(errors_before) / bits;
  }
  double rber_after() const {
    return bits == 0 ? 0.0 : static_cast<double>(errors_after) / bits;
  }
};

class ReadDisturbRecovery {
 public:
  explicit ReadDisturbRecovery(RdrOptions options = {})
      : options_(options) {}

  const RdrOptions& options() const { return options_; }

  /// Runs RDR on wordline `wl` of `block`. Mutates the block: the induced
  /// extra reads are real disturbs (they are applied to a sibling wordline
  /// so that `wl`'s cells receive the dose). Returns before/after error
  /// accounting against the block's ground truth. The block needs at
  /// least two wordlines (one to read, one to be disturbed).
  RdrResult recover(nand::Block& block, std::uint32_t wl) const;

  /// The same, with the first measurement derived from `vth` — the
  /// wordline's present Vth (Block::present_vth_page) sensed on the
  /// block's current state — instead of a fresh sense. Bit-identical to
  /// recover(block, wl) on that state.
  RdrResult recover(nand::Block& block, std::uint32_t wl,
                    std::span<const double> vth) const;

 private:
  RdrOptions options_;
};

}  // namespace rdsim::core
