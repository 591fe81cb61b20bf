// rdsim/core/vref_optimizer.h
//
// Read-reference voltage optimization (ROR-style, after the authors' HPCA
// 2015 / DATE 2013 line of work summarized in the retrospective's
// "Voltage Optimization" related work): periodically learn, per block, the
// read reference voltages that sit at the *present* valleys between state
// distributions — which drift with retention age, wear, and read disturb —
// instead of the factory defaults.
//
// The optimizer performs a read-retry sweep, histograms the measured
// threshold voltages, and places each reference at the minimum-density
// point between the two adjacent state populations. Orthogonal to Vpass
// Tuning (which targets the *pass-through* voltage); both can run side by
// side, as the paper notes.
#pragma once

#include <cstdint>
#include <span>

#include "nand/block.h"

namespace rdsim::core {

/// A set of read reference voltages (Va, Vb, Vc).
struct ReadRefs {
  double va = 0.0;
  double vb = 0.0;
  double vc = 0.0;
};

struct VrefOptimizerOptions {
  double scan_step = 4.0;     ///< Retry resolution of the learning sweep
                              ///< (coarse: the mechanism is meant to be
                              ///< low-latency).
  double search_radius = 45;  ///< Search window around each default ref.
  double smoothing = 2;       ///< +/- bins of moving-average smoothing.
};

class VrefOptimizer {
 public:
  explicit VrefOptimizer(VrefOptimizerOptions options = {})
      : options_(options) {}

  /// Learns the optimal references for wordline `wl` from one retry sweep.
  ReadRefs learn(const nand::Block& block, std::uint32_t wl) const;

  /// The same, with the sweep quantized from `vth` — the wordline's
  /// present Vth on the block's current state — instead of a fresh sense.
  ReadRefs learn(const nand::Block& block, std::span<const double> vth) const;

  /// Default (factory) references of the block's model.
  static ReadRefs defaults(const nand::Block& block);

  /// Raw bit errors of both pages of `wl` when sensed with `refs`
  /// (ignores pass-through blocking; evaluation helper).
  static int count_errors_with_refs(const nand::Block& block,
                                    std::uint32_t wl, const ReadRefs& refs);

 private:
  VrefOptimizerOptions options_;
};

}  // namespace rdsim::core
