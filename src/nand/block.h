// rdsim/nand/block.h
//
// Monte Carlo model of one NAND flash block: a wordlines x bitlines array
// of MLC cells with per-cell ground truth, block-level disturb dose
// accounting, retention aging, and read operations that reproduce the two
// error channels the paper studies:
//   (1) read disturb — every page read adds tunneling dose to the *other*
//       wordlines, shifting their threshold voltages upward;
//   (2) pass-through failures — with a relaxed Vpass, the highest-Vth cell
//       elsewhere on a bitline can fail to conduct, corrupting the sensed
//       value of the cell actually being read.
//
// Cells are stored structure-of-arrays (one contiguous array per ground
// truth field, wordline-major) so a page sense is a handful of
// auto-vectorized passes over contiguous memory instead of a per-cell
// scalar loop, followed by a bit-compare against the programmed data
// pages. Senses are incremental within an epoch — the span over which a
// wordline's ground truth, retention age and wear are fixed, so only its
// dose moves, and only upwards. The first sense of a wordline in an epoch
// evaluates every cell and keeps a crossing row (flash::VthModel::
// sense_first_batch: each cell's sensed state and the dose below which it
// cannot change); every later sense compares the dose against that row
// and re-evaluates only the cells that reached their crossing dose
// (resense_batch). Materializing or programming a wordline, erase,
// program_random, the end of an explicit program pass and every
// advance_time end the epoch. Full Vth rows (present_vth_page,
// read_retry_scan) always evaluate every cell.
//
// Programming is O(bookkeeping): program_random() records the program
// event (epoch, P/E at program time, random-data intent) and draws only
// the per-bitline blocking thresholds; the per-cell ground truth of a
// wordline is materialized lazily on first touch from the counter-based
// stream Rng::at(block seed, program epoch, wl) — a pure function of
// that triple, so the cells are bit-identical no matter which wordlines
// are touched first (or whether some are never touched at all).
// Characterization experiments rebuild and program a whole chip per
// measurement point but sense only a few wordlines; deferring the
// sampling removes ~95% of chip-construction cost.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "flash/params.h"
#include "flash/vth_model.h"
#include "nand/geometry.h"

namespace rdsim::nand {

/// One page's worth of bits (values 0/1, one byte per bit).
using PageBits = std::vector<std::uint8_t>;

/// Result of reading a page.
struct ReadResult {
  PageBits bits;            ///< Sensed data.
  int raw_bit_errors = 0;   ///< Mismatches vs programmed ground truth.
};

/// The read-retry quantization, in place: each present Vth becomes the
/// first retry level (lo + k * step) at which the cell conducts, clamped
/// to [lo, hi]. Lets a caller that already holds a wordline's present Vth
/// derive any retry scan of it without sensing again.
void quantize_retry(std::span<double> vth, double lo, double hi, double step);

/// Raw bit errors of the `kind` page between sensed and intended state
/// rows of equal length.
int page_bit_errors(PageKind kind, std::span<const std::uint8_t> sensed,
                    std::span<const std::uint8_t> truth);

class Block {
 public:
  /// `model` must outlive the block.
  Block(const Geometry& geometry, const flash::VthModel& model, Rng rng);

  const Geometry& geometry() const { return geometry_; }
  const flash::VthModel& model() const { return *model_; }
  std::uint32_t pe_cycles() const { return pe_cycles_; }
  double dose() const { return dose_total_; }
  double vpass() const { return vpass_; }
  bool programmed() const { return programmed_; }
  /// Retention age of the resident data in days.
  double retention_days() const { return now_days_ - programmed_day_; }

  /// Sets the pass-through voltage used by subsequent reads (the knob the
  /// paper's Vpass Tuning mechanism controls).
  void set_vpass(double vpass) { vpass_ = vpass; }

  /// Erases the block (one P/E half) — data is gone, dose resets.
  void erase();

  /// Pre-ages the block by `pe` program/erase cycles without simulating
  /// each cycle's data (the paper pre-cycles blocks the same way before
  /// characterizing them). Leaves the block erased.
  void add_wear(std::uint32_t pe);

  /// Programs every wordline with pseudo-random data, counting one P/E
  /// cycle together with the preceding erase. Requires erased state.
  /// O(bitlines) bookkeeping: per-cell sampling is deferred to the first
  /// touch of each wordline (see the header comment); only the
  /// per-bitline blocking thresholds are drawn here.
  void program_random();

  /// Programs one wordline with explicit LSB/MSB pages (bits 0/1, size ==
  /// bitlines). Wordlines must be programmed in order after an erase.
  void program_wordline(std::uint32_t wl, const PageBits& lsb,
                        const PageBits& msb);

  /// Advances wall-clock time; affects retention age. Ends every
  /// wordline's sense epoch (even for `days == 0`).
  void advance_time(double days);

  /// Applies `count` read operations addressed at wordline `wl` (any page
  /// kind) without materializing the data: disturb dose accumulates on all
  /// *other* wordlines. This is how characterization loops apply millions
  /// of disturbs in O(1). Throws std::invalid_argument unless `count` is
  /// finite and non-negative and so is the dose it adds at the current
  /// Vpass: the incremental sense relies on dose never falling.
  void apply_reads(std::uint32_t wl, double count);

  /// Reads a page: senses each cell against the read references, honoring
  /// pass-through blocking at the current Vpass, then accounts the read's
  /// disturb dose. Ground-truth mismatches are reported.
  ReadResult read_page(PageAddress address);

  /// Number of raw bit errors a read of `address` would return right now,
  /// without disturbing the block (used by tests and the tuning oracle).
  int count_errors(PageAddress address) const;

  /// States a read of wordline `wl` senses right now, pass-through
  /// blocking included, as CellState bytes; does not disturb the block.
  /// The first sense of the wordline in its epoch evaluates every cell,
  /// later ones only the cells past their crossing dose (see the header
  /// comment). Valid until the next sense on this block.
  std::span<const std::uint8_t> sensed_states(std::uint32_t wl) const;

  /// Count of bitlines that fail to conduct (read as all-off) for a read
  /// of wordline `wl` at pass-through voltage `vpass` — Step 2 of the
  /// paper's Vpass identification counts exactly this "number of 0s".
  /// O(log bitlines): a binary search over the sorted blocking thresholds
  /// kept since program time, so Vpass sweeps don't rescan the block.
  int count_blocked_bitlines(std::uint32_t wl, double vpass) const;

  /// Present threshold voltage of one cell.
  double present_vth(std::uint32_t wl, std::uint32_t bl) const;

  /// Present threshold voltages of every cell on wordline `wl`, computed
  /// by one batched pass (bit-identical to present_vth per cell).
  std::vector<double> present_vth_page(std::uint32_t wl) const;

  /// Intended (programmed) states of every cell on wordline `wl`, as
  /// CellState bytes — the truth row batched error counts compare with.
  /// Valid until the block is erased or reprogrammed.
  std::span<const std::uint8_t> wordline_states(std::uint32_t wl) const {
    ensure_wordline(wl);
    return {state_ + index(wl, 0), geometry_.bitlines};
  }

  /// Intended (programmed) state of one cell.
  flash::CellState cell_state(std::uint32_t wl, std::uint32_t bl) const {
    ensure_wordline(wl);
    return static_cast<flash::CellState>(state_[index(wl, bl)]);
  }

  /// Ground truth record of one cell, assembled from the SoA store.
  flash::CellGroundTruth cell(std::uint32_t wl, std::uint32_t bl) const {
    ensure_wordline(wl);
    const std::size_t i = index(wl, bl);
    return {static_cast<flash::CellState>(state_[i]), v0_[i],
            susceptibility_[i], leak_rate_[i]};
  }

  /// Day-0 pass-through blocking threshold of one bitline: the lowest
  /// Vpass at which every cell on the bitline's string conducts (retention
  /// drifts the effective value down; +inf while erased).
  double blocking_threshold(std::uint32_t bl) const {
    return static_cast<double>(blocking_threshold_[bl]);
  }

  /// Read-retry scan: quantized threshold voltage of every cell on
  /// wordline `wl`, stepping the read reference from `lo` to `hi` by
  /// `step` (mimics the retry interface real MLC parts expose). Cells at
  /// or above `hi` report `hi`. Equal to present_vth_page followed by
  /// quantize_retry.
  std::vector<double> read_retry_scan(std::uint32_t wl, double lo, double hi,
                                      double step) const;

  /// Disturb dose experienced by cells of wordline `wl` (total block dose
  /// minus the dose from reads addressed to `wl` itself).
  double dose_for_wordline(std::uint32_t wl) const;

 private:
  std::size_t index(std::uint32_t wl, std::uint32_t bl) const {
    return static_cast<std::size_t>(wl) * geometry_.bitlines + bl;
  }

  /// Retention drift of the blocking thresholds at the present age (the
  /// single source of truth for the drop the blocking checks subtract).
  double blocking_drop() const;

  /// The wordline's SoA view (materializing it first).
  flash::CellSoaView soa_view(std::uint32_t wl) const;

  Geometry geometry_;
  const flash::VthModel* model_;

  // Structure-of-arrays cell ground truth, wordline-major, all fields
  // carved out of one uninitialized arena allocation — characterization
  // experiments construct whole chips per measurement point, so block
  // setup cost must stay page-fault-bound. No field is ever initialized
  // eagerly: a wordline's row is filled on first touch by
  // ensure_wordline() (erased defaults, or the program-time sample when a
  // program_random is pending), and erase()/program_random() only flip
  // the per-wordline validity flags. The programmed data bits are not
  // stored separately: state_ is the intended state and the Gray code is
  // a bijection, so error counting derives both sensed and truth bits
  // from state bytes with the same branch-free arithmetic.
  //
  // cross_ is the crossing row of flash::VthModel::sense_first_batch,
  // built by the first sense of a wordline in its epoch and refreshed
  // cell by cell by later senses; cross_valid_ says which wordlines hold
  // one for the current epoch.
  std::size_t cell_count_ = 0;
  std::unique_ptr<float[]> cell_arena_;
  float* v0_ = nullptr;
  float* susceptibility_ = nullptr;
  float* leak_rate_ = nullptr;
  float* cross_ = nullptr;         ///< Crossing row (data mutable via
                                   ///< const sense paths).
  std::uint8_t* state_ = nullptr;  ///< Intended CellState bytes.
  mutable std::vector<std::uint8_t> cross_valid_;  ///< Per wordline.
  mutable std::vector<std::uint8_t> wl_ready_;     ///< Row materialized?

  /// Invalidates every wordline's materialized row (the lazy equivalent
  /// of rewriting the ~2 MB arena with erased defaults).
  void invalidate_cells();

  /// Ends every wordline's sense epoch: the next sense of each builds a
  /// fresh crossing row.
  void invalidate_crossings();

  /// Materializes wordline `wl`'s ground-truth row if not already valid:
  /// erased defaults, or — when a program_random is pending — the data
  /// bits and program sample drawn from Rng::at(block_seed_,
  /// program_epoch_, wl).
  void ensure_wordline(std::uint32_t wl) const;
  void materialize_wordline(std::uint32_t wl) const;

  /// Draws the per-bitline blocking thresholds for the just-completed
  /// program (their own counter-based stream, so they are independent of
  /// wordline materialization order) and rebuilds the sorted copy.
  void draw_blocking_thresholds();

  /// Root of every per-wordline stream this block derives; fixed at
  /// construction from the chip's fork.
  std::uint64_t block_seed_ = 0;
  /// Program-event counter: bumped at the start of every program event
  /// (program_random, or an explicit pass beginning at wordline 0) so
  /// each event owns a distinct (block_seed_, epoch) stream family and
  /// draws fresh data even if a caller skips the erase.
  std::uint64_t program_epoch_ = 0;
  /// P/E count the resident data was programmed at (sampling input for
  /// lazily materialized wordlines; pe_cycles_ itself moves on at the
  /// program's end).
  double program_pe_ = 0.0;
  /// A program_random is recorded but its cells not yet materialized.
  bool pending_random_ = false;

  std::uint32_t pe_cycles_ = 0;
  bool programmed_ = false;
  double vpass_;
  double dose_total_ = 0.0;          ///< Unit-vpass-adjusted dose (see
                                     ///< VthModel::disturb_dose).
  std::vector<double> self_dose_;    ///< Dose from reads addressed per WL.
  double now_days_ = 0.0;
  double programmed_day_ = 0.0;

  /// Per-bitline blocking threshold: the lowest Vpass at which every cell
  /// on the bitline's string still conducts (day-0 value; retention drifts
  /// it down). Sampled at program time from the calibrated top-tail
  /// distribution; +inf while erased. The responsible cell is, with
  /// overwhelming probability, on a different wordline than the one being
  /// read, so no self-exclusion is modeled.
  std::vector<float> blocking_threshold_;

  /// Ascending copy of blocking_threshold_, rebuilt at program/erase time;
  /// count_blocked_bitlines binary-searches it instead of rescanning.
  std::vector<float> blocking_sorted_;

  /// Whole-page sensed states (bitlines elements). Mutable so const reads
  /// can sense; a Block is not meant to be sensed concurrently from
  /// multiple threads (experiment shards own their chips).
  mutable std::vector<std::uint8_t> state_scratch_;
  /// Lazy-materialization scratch: one wordline's data bits (2 per cell)
  /// and the program-sampling workspace, reused across wordlines.
  mutable std::vector<std::uint8_t> bits_scratch_;
  mutable flash::VthModel::ProgramSampleScratch program_scratch_;
};

}  // namespace rdsim::nand
