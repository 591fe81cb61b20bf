// rdsim/core/vpass_tuning.h
//
// Vpass Tuning — the paper's read disturb *mitigation* mechanism (§3).
//
// For each block, once a day, the controller:
//   1. estimates the block's maximum error count (MEE) with a single read
//      of the predicted worst-case page, and derives the unused ECC margin
//      M = (1 - reserved) * C - MEE;
//   2. finds the lowest pass-through voltage whose extra read errors
//      ("number of 0s" = bitlines incorrectly switched off) stay within M,
//      via the paper's three-step aggressive-lower/roll-back search;
//   3. on non-refresh days only verifies/raises Vpass (Action 1); on
//      refresh days re-learns it from scratch (Action 2);
//   4. falls back to the nominal Vpass whenever the margin is exhausted.
//
// The controller talks to blocks through the BlockProbe interface so that
// the same logic runs against the Monte Carlo chip (integration tests,
// examples) and against the analytic RBER model (whole-SSD lifetime
// simulation, Fig. 8).
#pragma once

#include <cstdint>

#include "ecc/ecc_model.h"
#include "flash/rber_model.h"
#include "nand/block.h"

namespace rdsim::core {

/// Controller's view of one block. Implementations must answer the two
/// measurements the mechanism performs on real hardware.
class BlockProbe {
 public:
  virtual ~BlockProbe() = default;

  /// One read of the predicted worst-case page; returns its raw bit error
  /// count as reported by ECC (the MEE sample).
  virtual int measure_worst_page_errors() = 0;

  /// Number of bitlines incorrectly switched off when the block is read
  /// with pass-through voltage `vpass` (Step 2's N).
  virtual int count_read_zeros(double vpass) = 0;

  /// ECC codewords per page of this block (defines the page-level margin
  /// the controller may spend).
  virtual int codewords_per_page() const = 0;
};

/// Probe over a Monte Carlo nand::Block. The predicted worst-case page is
/// discovered post-"manufacturing" by scanning all pages once, as §3
/// prescribes.
class McBlockProbe : public BlockProbe {
 public:
  /// Scans the (programmed) block once to find the worst page.
  /// `codeword_data_bits` defines how many codewords one page spans.
  explicit McBlockProbe(nand::Block& block, int codeword_data_bits = 8192);

  int measure_worst_page_errors() override;
  int count_read_zeros(double vpass) override;
  int codewords_per_page() const override;

  nand::PageAddress worst_page() const { return worst_page_; }
  /// Reads consumed by probe operations so far (overhead accounting).
  std::uint64_t reads_used() const { return reads_used_; }

 private:
  nand::Block* block_;
  int codeword_data_bits_;
  nand::PageAddress worst_page_{};
  std::uint64_t reads_used_ = 0;
};

/// Probe over the analytic model: a block summarized by a BlockCondition.
/// `worst_page_factor` models inter-page variation (the worst page sees a
/// constant multiple of the block's mean RBER).
class AnalyticBlockProbe : public BlockProbe {
 public:
  AnalyticBlockProbe(const flash::RberModel& model,
                     const ecc::EccModel& ecc,
                     flash::BlockCondition condition,
                     double worst_page_factor = 1.3);

  int measure_worst_page_errors() override;
  int count_read_zeros(double vpass) override;
  int codewords_per_page() const override { return codewords_per_page_; }

  void set_condition(const flash::BlockCondition& c) { condition_ = c; }

 private:
  const flash::RberModel* model_;
  int page_bits_;
  int codewords_per_page_;
  flash::BlockCondition condition_;
  double worst_page_factor_;
};

/// Tuning policy knobs.
struct VpassTuningOptions {
  double delta = 2.0;          ///< Smallest Vpass step (normalized units).
  double min_vpass_frac = 0.90;  ///< Never tune below this fraction of
                                 ///< nominal (physical device limit).
};

/// Outcome of one daily tuning pass on one block.
struct TuningDecision {
  double vpass = 0.0;      ///< Chosen pass-through voltage.
  int mee = 0;             ///< Measured maximum estimated error.
  int margin = 0;          ///< Page-level margin M used by the search.
  bool fallback = false;   ///< True if the margin was exhausted and the
                           ///< controller fell back to nominal Vpass.
  int probe_steps = 0;     ///< Step-2/3 probes performed (overhead).
};

class VpassTuningController {
 public:
  VpassTuningController(const ecc::EccModel& ecc, double vpass_nominal,
                        VpassTuningOptions options = {});

  /// Full Vpass identification (paper Steps 1-3), starting from nominal.
  /// Used on refresh days (Action 2).
  TuningDecision relearn(BlockProbe& probe);

  /// Non-refresh daily check (Action 1): keeps `current_vpass` unless the
  /// shrinking margin forces it upward (or to nominal on fallback).
  TuningDecision verify_or_raise(BlockProbe& probe, double current_vpass);

  /// Page-level usable correction capability ((1-reserved) * C per
  /// codeword, times the probe's codewords per page).
  int usable_page_capability(const BlockProbe& probe) const;

 private:
  /// Margin M for a measured MEE; negative means fallback territory.
  int page_margin(const BlockProbe& probe, int mee) const;

  ecc::EccModel ecc_;
  double vpass_nominal_;
  VpassTuningOptions options_;
};

}  // namespace rdsim::core
