// rdsim/flash/vth_model.h
//
// Cell-level threshold-voltage physics: how a cell's Vth depends on its
// programmed state, process variation, program/erase wear, retention age,
// and accumulated read-disturb dose. This is the ground-truth model that the
// Monte Carlo chip simulator (src/nand) evaluates per cell, and that the
// analytic RBER model approximates in closed form.
//
// The chip simulator stores cells as structure-of-arrays and senses whole
// wordlines at a time: the per-page loop invariants are hoisted once into
// SenseCoeffs, and present_vth_batch/classify_batch are straight-line
// loops over contiguous arrays that auto-vectorize. The scalar entry
// points dispatch to the same per-cell arithmetic, so batch and scalar
// sensing are bit-identical.
//
// Repeat senses are incremental. Read disturb only raises Vth: with the
// retention age, wear and ground truth fixed, a cell's present Vth is
// monotone in dose, so its sensed state can change only once the dose
// reaches a per-cell crossing dose. sense_first_batch evaluates every
// cell and records, per cell, its sensed state and a guarded crossing
// dose (the crossing row, one float per cell); resense_batch then costs
// one `dose >= cross` compare per cell plus the exact per-cell sense of
// the few cells past their crossing dose, which it also refreshes. The
// states equal a full sense bit for bit (tests/test_incremental_sense.cc).
//
// The six batch entry points run in the widest instruction-set variant
// the CPU supports (flash/vth_kernels.h), chosen once per process; every
// variant returns the same bits.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "flash/params.h"
#include "flash/types.h"

namespace rdsim::flash {

/// Immutable per-cell ground truth, sampled at program time.
struct CellGroundTruth {
  CellState programmed = CellState::kEr;  ///< Intended state.
  float v0 = 0.0F;           ///< Vth right after programming (normalized).
  float susceptibility = 1.0F;  ///< Per-cell disturb multiplier (lognormal).
  float leak_rate = 1.0F;    ///< Per-cell retention-leak multiplier
                             ///< (lognormal); RFR's classification signal.
};

/// Structure-of-arrays view of a contiguous run of cells (one wordline).
/// All pointers address `n` elements; none may be null.
struct CellSoaView {
  const std::uint8_t* programmed;  ///< Intended CellState per cell.
  const float* v0;                 ///< Post-program Vth.
  const float* susceptibility;     ///< Disturb multiplier.
  const float* leak_rate;          ///< Retention-leak multiplier.
  std::size_t n;
};

/// Evaluates the Vth physics for a given parameter set.
///
/// The read-disturb state of a block is summarized by a scalar *dose*
///   D = sum_i n_i * exp(disturb_c * (vpass_i - vpass_nominal))
/// accumulated over reads; the cell's present Vth is then the closed-form
/// integral of the tunneling law (see params.h), shifted down by retention
/// leakage. This lets the chip simulator apply millions of reads in O(1).
class VthModel {
 public:
  explicit VthModel(const FlashModelParams& params);

  const FlashModelParams& params() const { return params_; }

  /// Mean Vth of `state` on a block with `pe_cycles` of wear (no retention,
  /// no disturb).
  double state_mean(CellState state, double pe_cycles) const;

  /// Vth standard deviation of `state` under wear.
  double state_sd(CellState state, double pe_cycles) const;

  /// Samples the post-program Vth of a cell intended to hold `state`,
  /// including the program-error channel (cell lands one state off with a
  /// wear-dependent probability). Returns the ground truth record.
  ///
  /// Draw discipline (shared with the batch below): one uniform for the
  /// mis-program channel (its sub-perr/2 half also decides the direction
  /// for middle states), then three normals — v0 (standard, scaled by the
  /// landed state's mean/sd), susceptibility exponent N(0, disturb_sigma),
  /// leak exponent N(0, ret_sigma). The lognormal exponentials use
  /// vmath::vexp so scalar and batch sampling are bit-identical.
  CellGroundTruth sample_program(CellState state, double pe_cycles,
                                 Rng& rng) const;

  /// The per-cell program-sampling arithmetic, factored out of the RNG:
  /// `u` is the mis-program uniform, `z0` the standard normal for v0,
  /// `zs`/`zl` the (already sigma-scaled) susceptibility/leak exponents.
  /// Single source of truth for sample_program and sample_program_batch.
  CellGroundTruth sample_program_from_draws(CellState state, double pe_cycles,
                                            double u, double z0, double zs,
                                            double zl) const;

  /// Reusable workspace for sample_program_batch (uniforms, one normal
  /// lane, landed states). Owned by the caller so the const model stays
  /// thread-compatible.
  struct ProgramSampleScratch {
    std::vector<double> u;              ///< Mis-program uniforms.
    std::vector<double> z;              ///< Normal draws, one field at a time.
    std::vector<std::uint8_t> landed;   ///< Post-mis-program landed states.
  };

  /// Batched program sampling of one wordline: cells[i] intends state
  /// `intended[i]`; writes the sampled ground truth into the SoA rows
  /// v0/susceptibility/leak_rate (the intended states are the caller's —
  /// they are input here, not output). Consumes `rng` in four documented
  /// passes — fill_uniform(n) for the mis-program channel, then three
  /// fill_normal(n) passes (standard for v0, sigma-scaled for the two
  /// lognormal exponents) — so the per-cell values equal
  /// sample_program_from_draws over the pass-ordered draws, with the
  /// Marsaglia-serial normals batched per field and the exponentials a
  /// vectorized vmath::vexp pass instead of 2n scalar std::exp calls.
  void sample_program_batch(const std::uint8_t* intended, std::size_t n,
                            double pe_cycles, Rng& rng,
                            ProgramSampleScratch& scratch, float* v0,
                            float* susceptibility, float* leak_rate) const;

  /// Read-disturb dose contributed by `reads` read operations performed at
  /// pass-through voltage `vpass` on a block with `pe_cycles` of wear.
  double disturb_dose(double reads, double vpass, double pe_cycles) const;

  /// Vth after applying disturb dose `dose` to a cell that had voltage `v0`
  /// and per-cell `susceptibility`. Monotonically increasing in dose;
  /// lower-v0 cells shift more.
  double apply_disturb(double v0, double susceptibility, double dose) const;

  /// Batched disturb shift of nominal cells: out[i] = apply_disturb(v[i],
  /// 1, dose) - v[i], bit for bit, as one straight-line pass (RDR's dVref
  /// across a scanned row).
  void disturb_shift_batch(const double* v, std::size_t n, double dose,
                           double* out) const;

  /// Retention leakage: Vth shift (<= 0 for programmed cells) after
  /// `days` of retention on a block with `pe_cycles` wear, for a cell
  /// programmed at `v0`.
  double retention_shift(double v0, double days, double pe_cycles) const;

  /// Full evaluation: present Vth of a cell given its ground truth, the
  /// block's disturb dose, retention age, and wear.
  double present_vth(const CellGroundTruth& cell, double dose, double days,
                     double pe_cycles) const;

  /// Page-invariant sense coefficients, hoisted once per wordline. Opaque
  /// to callers; produced by sense_coeffs() and consumed by the batch and
  /// per-cell entry points below.
  struct SenseCoeffs {
    double dose = 0.0;       ///< Block dose experienced by the wordline.
    double days = 0.0;       ///< Retention age.
    double ret_l = 0.0;      ///< log1p(days / ret_tau_days).
    double ret_w = 0.0;      ///< 1 + pe/ret_wear_pe.
    bool has_dose = false;   ///< dose > 0 (disturb stage enabled).
    bool has_ret = false;    ///< days > 0 (retention stage enabled).
  };
  SenseCoeffs sense_coeffs(double dose, double days, double pe_cycles) const;

  /// Batched present Vth: writes the present threshold voltage of
  /// cells[0..n) to out[0..n) in one pass. Bit-identical to calling
  /// present_vth per cell.
  void present_vth_batch(const CellSoaView& cells, const SenseCoeffs& coeffs,
                         double* out) const;

  /// Scalar companion of present_vth_batch for one cell.
  double present_vth_cell(const SenseCoeffs& coeffs, double v0,
                          double susceptibility, double leak_rate) const;

  /// Guard band of the crossing row: a cell within kCrossingGuardVth of a
  /// read reference is re-sensed exactly at every sense, and every other
  /// cell's crossing dose is the dose at which it would reach its next
  /// reference minus kCrossingGuardVth, shrunk by kCrossingGuardRel. Both
  /// dwarf the few-ulp error of vmath and of the float row.
  static constexpr double kCrossingGuardVth = 0.01;
  static constexpr double kCrossingGuardRel = 1e-3;

  /// First sense of a wordline in an epoch (fixed ground truth, retention
  /// age and wear): writes the sensed state of cells[0..n) to states[0..n)
  /// (equal to present_vth_batch followed by classify_batch) and fills
  /// cross[0..n), the crossing row. Each entry is the dose below which
  /// that cell's state provably cannot change (-FLT_MAX: re-sense always;
  /// FLT_MAX: never crosses), with the sensed state packed into its two
  /// low mantissa bits.
  void sense_first_batch(const CellSoaView& cells, const SenseCoeffs& coeffs,
                         float* cross, std::uint8_t* states) const;

  /// A later sense of the same epoch at a dose no lower than the one the
  /// row was built (or last refreshed) at: states come from the row, and
  /// only the cells whose crossing dose `coeffs.dose` reached are sensed
  /// again, refreshing their row entries. States equal a full sense.
  void resense_batch(const CellSoaView& cells, const SenseCoeffs& coeffs,
                     float* cross, std::uint8_t* states) const;

  /// The state packed into a crossing-row entry (the entry itself is the
  /// crossing dose, to within the guard band).
  static std::uint8_t crossing_state(float entry) {
    return static_cast<std::uint8_t>(std::bit_cast<std::uint32_t>(entry) & 3U);
  }

  /// Branchless batched classification of vth[0..n) against the read
  /// references; out[i] is the CellState as a byte. Identical to classify.
  void classify_batch(const double* vth, std::size_t n,
                      std::uint8_t* out) const;
  /// The same against explicit ordered references va < vb < vc (a read
  /// with learned references).
  static void classify_batch(const double* vth, std::size_t n, double va,
                             double vb, double vc, std::uint8_t* out);

  /// Hard-decision state for a threshold voltage using the three read
  /// references (Va, Vb, Vc).
  CellState classify(double vth) const;

  /// Vth at which the PDFs of two adjacent states intersect (the optimal
  /// read point and RDR's boundary), for the given wear/retention and an
  /// optional accumulated disturb dose (which shifts both distributions,
  /// the lower one more). `lower` must be ER..P2; the pair is
  /// (lower, lower+1).
  double pdf_intersection(CellState lower, double pe_cycles, double days,
                          double dose = 0.0) const;

  /// Expected disturb-induced Vth shift of a cell sitting exactly at the
  /// boundary `pdf_intersection(lower,...)` when `extra_dose` more dose is
  /// applied; RDR uses this as its delta-Vref classification threshold.
  double boundary_shift(CellState lower, double pe_cycles, double days,
                        double base_dose, double extra_dose) const;

 private:
  friend struct VthKernelBodies;  // The batch bodies (vth_model.cc).

  FlashModelParams params_;
  /// exp(B * (R - kCrossingGuardVth)) for R = Va, Vb, Vc: the crossing
  /// computation's constants, hoisted out of every sense.
  std::array<double, 3> crossing_k_{};
};

}  // namespace rdsim::flash
