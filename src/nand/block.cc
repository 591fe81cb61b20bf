#include "nand/block.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rdsim::nand {

using flash::CellState;
using flash::lsb_bit;
using flash::msb_bit;

void quantize_retry(std::span<double> vth, double lo, double hi,
                    double step) {
  assert(step > 0.0 && hi > lo);
  for (double& v : vth) {
    if (v < lo) {
      v = lo;
    } else if (v >= hi) {
      v = hi;
    } else {
      // First retry step at which the cell conducts.
      const double k = std::ceil((v - lo) / step);
      v = std::min(lo + k * step, hi);
    }
  }
}

int page_bit_errors(PageKind kind, std::span<const std::uint8_t> sensed,
                    std::span<const std::uint8_t> truth) {
  assert(sensed.size() == truth.size());
  return kind == PageKind::kLsb
             ? flash::lsb_errors(sensed.data(), truth.data(), sensed.size())
             : flash::msb_errors(sensed.data(), truth.data(), sensed.size());
}

Block::Block(const Geometry& geometry, const flash::VthModel& model, Rng rng)
    : geometry_(geometry),
      model_(&model),
      cell_count_(geometry.cells_per_block()),
      // One uninitialized allocation for all per-cell arrays: 4 float
      // fields (v0, susceptibility, leak rate, crossing row) plus the
      // state bytes (the byte view of the tail floats is
      // legal — unsigned char may alias anything). Every row stays
      // untouched until ensure_wordline materializes it, so constructing
      // a block costs one allocation and no arena traffic at all.
      cell_arena_(std::make_unique_for_overwrite<float[]>(
          4 * cell_count_ + (cell_count_ + 3) / 4)),
      v0_(cell_arena_.get()),
      susceptibility_(v0_ + cell_count_),
      leak_rate_(susceptibility_ + cell_count_),
      cross_(leak_rate_ + cell_count_),
      state_(reinterpret_cast<std::uint8_t*>(cross_ + cell_count_)),
      cross_valid_(geometry.wordlines_per_block, 0),
      wl_ready_(geometry.wordlines_per_block, 0),
      block_seed_(rng.next()),
      vpass_(model.params().vpass_nominal),
      self_dose_(geometry.wordlines_per_block, 0.0),
      blocking_threshold_(geometry.bitlines,
                          std::numeric_limits<float>::infinity()),
      blocking_sorted_(geometry.bitlines,
                       std::numeric_limits<float>::infinity()),
      state_scratch_(geometry.bitlines, 0) {}

void Block::invalidate_cells() {
  std::fill(wl_ready_.begin(), wl_ready_.end(), std::uint8_t{0});
  invalidate_crossings();
}

void Block::invalidate_crossings() {
  std::fill(cross_valid_.begin(), cross_valid_.end(), std::uint8_t{0});
}

void Block::advance_time(double days) {
  now_days_ += days;
  invalidate_crossings();
}

void Block::erase() {
  invalidate_cells();
  pending_random_ = false;
  programmed_ = false;
  dose_total_ = 0.0;
  std::fill(self_dose_.begin(), self_dose_.end(), 0.0);
  std::fill(blocking_threshold_.begin(), blocking_threshold_.end(),
            std::numeric_limits<float>::infinity());
  std::fill(blocking_sorted_.begin(), blocking_sorted_.end(),
            std::numeric_limits<float>::infinity());
}

void Block::add_wear(std::uint32_t pe) {
  erase();
  pe_cycles_ += pe;
}

void Block::program_random() {
  assert(!programmed_ && "program_random requires erased state");
  // Record the program event; cells materialize lazily per wordline from
  // Rng::at(block_seed_, program_epoch_, wl). Invalidate any rows an
  // erased-state sense may have materialized since the erase.
  invalidate_cells();
  pending_random_ = true;
  ++program_epoch_;
  program_pe_ = pe_cycles_;
  ++pe_cycles_;
  programmed_ = true;
  programmed_day_ = now_days_;
  draw_blocking_thresholds();
}

void Block::program_wordline(std::uint32_t wl, const PageBits& lsb,
                             const PageBits& msb) {
  assert(wl < geometry_.wordlines_per_block);
  assert(lsb.size() == geometry_.bitlines && msb.size() == geometry_.bitlines);
  assert(!pending_random_ && "mixing explicit programming with a pending "
                             "program_random is not supported");
  if (wl == 0) ++program_epoch_;  // Each pass over the block is one event.
  const std::size_t base = index(wl, 0);
  cross_valid_[wl] = 0;
  for (std::uint32_t bl = 0; bl < geometry_.bitlines; ++bl)
    state_[base + bl] =
        static_cast<std::uint8_t>(flash::state_of_bits(lsb[bl], msb[bl]));
  // Same per-wordline stream family as the lazy path (minus the data-bit
  // draws — the data is the caller's), so explicit programming is equally
  // order-pure within its epoch. Sampling wear is the live P/E count:
  // this path materializes eagerly, so no snapshot is needed.
  Rng wl_rng = Rng::at(block_seed_, program_epoch_, wl);
  model_->sample_program_batch(state_ + base, geometry_.bitlines,
                               static_cast<double>(pe_cycles_), wl_rng,
                               program_scratch_, v0_ + base,
                               susceptibility_ + base, leak_rate_ + base);
  wl_ready_[wl] = 1;
  if (wl + 1 == geometry_.wordlines_per_block) {
    // Whole block programmed: account the P/E cycle, timestamp the data,
    // and draw each bitline's pass-through blocking threshold.
    ++pe_cycles_;
    programmed_ = true;
    programmed_day_ = now_days_;
    draw_blocking_thresholds();
    invalidate_crossings();
  }
}

void Block::draw_blocking_thresholds() {
  // Each bitline's pass-through blocking threshold, from the calibrated
  // top-tail distribution, on a stream id past every wordline's so the
  // draws are independent of which (and whether) wordlines materialize.
  const auto& p = model_->params();
  Rng rng =
      Rng::at(block_seed_, program_epoch_, geometry_.wordlines_per_block);
  rng.fill_normal(blocking_threshold_.data(), blocking_threshold_.size(),
                  p.tail_mean + p.mc_tail_mean_adjust, p.tail_sd);
  std::copy(blocking_threshold_.begin(), blocking_threshold_.end(),
            blocking_sorted_.begin());
  std::sort(blocking_sorted_.begin(), blocking_sorted_.end());
}

void Block::ensure_wordline(std::uint32_t wl) const {
  assert(wl < geometry_.wordlines_per_block);
  if (wl_ready_[wl] == 0) materialize_wordline(wl);
}

void Block::materialize_wordline(std::uint32_t wl) const {
  const std::size_t base = index(wl, 0);
  if (pending_random_) {
    // The deferred half of program_random: draw this wordline's data bits
    // (64 per raw draw, (LSB, MSB) per bitline in order) and program
    // sample from the wordline's own counter-based stream — a pure
    // function of (block seed, epoch, wl), independent of touch order.
    Rng wl_rng = Rng::at(block_seed_, program_epoch_, wl);
    bits_scratch_.resize(2 * static_cast<std::size_t>(geometry_.bitlines));
    wl_rng.fill_random_bits(bits_scratch_.data(), bits_scratch_.size());
    const std::uint8_t* bits = bits_scratch_.data();
    for (std::uint32_t bl = 0; bl < geometry_.bitlines; ++bl)
      state_[base + bl] = static_cast<std::uint8_t>(flash::state_of_bits(
          bits[2 * static_cast<std::size_t>(bl)],
          bits[2 * static_cast<std::size_t>(bl) + 1]));
    model_->sample_program_batch(state_ + base, geometry_.bitlines,
                                 program_pe_, wl_rng, program_scratch_,
                                 v0_ + base, susceptibility_ + base,
                                 leak_rate_ + base);
  } else {
    // Erased ground truth: CellState::kEr (data bits (1,1) in the Gray
    // code) with default multipliers.
    std::fill_n(state_ + base, geometry_.bitlines, std::uint8_t{0});
    std::fill_n(v0_ + base, geometry_.bitlines, 0.0F);
    std::fill_n(susceptibility_ + base, geometry_.bitlines, 1.0F);
    std::fill_n(leak_rate_ + base, geometry_.bitlines, 1.0F);
  }
  cross_valid_[wl] = 0;
  wl_ready_[wl] = 1;
}

void Block::apply_reads(std::uint32_t wl, double count) {
  assert(wl < geometry_.wordlines_per_block);
  if (!(count >= 0.0) || std::isinf(count))
    throw std::invalid_argument(
        "Block::apply_reads: read count must be finite and non-negative, got " +
        std::to_string(count));
  const double dose = model_->disturb_dose(count, vpass_, pe_cycles_);
  if (!(dose >= 0.0) || std::isinf(dose))
    throw std::invalid_argument(
        "Block::apply_reads: " + std::to_string(count) +
        " reads at Vpass " + std::to_string(vpass_) +
        " give a non-finite disturb dose");
  dose_total_ += dose;
  self_dose_[wl] += dose;
}

double Block::dose_for_wordline(std::uint32_t wl) const {
  double dose = dose_total_ - self_dose_[wl];
  const double boost = model_->params().neighbor_dose_boost;
  if (boost > 0.0) {
    // Concentrated disturb extension: reads addressed at the direct
    // neighbors hit this wordline harder than the block average.
    if (wl > 0) dose += boost * self_dose_[wl - 1];
    if (wl + 1 < geometry_.wordlines_per_block)
      dose += boost * self_dose_[wl + 1];
  }
  return dose;
}

flash::CellSoaView Block::soa_view(std::uint32_t wl) const {
  ensure_wordline(wl);
  const std::size_t base = index(wl, 0);
  return {state_ + base, v0_ + base, susceptibility_ + base,
          leak_rate_ + base, geometry_.bitlines};
}

double Block::present_vth(std::uint32_t wl, std::uint32_t bl) const {
  const auto coeffs = model_->sense_coeffs(dose_for_wordline(wl),
                                           retention_days(), pe_cycles_);
  ensure_wordline(wl);
  const std::size_t i = index(wl, bl);
  return model_->present_vth_cell(coeffs, static_cast<double>(v0_[i]),
                                  static_cast<double>(susceptibility_[i]),
                                  static_cast<double>(leak_rate_[i]));
}

std::vector<double> Block::present_vth_page(std::uint32_t wl) const {
  assert(wl < geometry_.wordlines_per_block);
  std::vector<double> out(geometry_.bitlines);
  model_->present_vth_batch(
      soa_view(wl),
      model_->sense_coeffs(dose_for_wordline(wl), retention_days(),
                           pe_cycles_),
      out.data());
  return out;
}

double Block::blocking_drop() const {
  return model_->params().tail_ret_drop *
         std::log1p(std::max(retention_days(), 0.0));
}

std::span<const std::uint8_t> Block::sensed_states(std::uint32_t wl) const {
  const auto coeffs = model_->sense_coeffs(dose_for_wordline(wl),
                                           retention_days(), pe_cycles_);
  const flash::CellSoaView view = soa_view(wl);
  float* cross = cross_ + index(wl, 0);
  if (cross_valid_[wl] != 0) {
    model_->resense_batch(view, coeffs, cross, state_scratch_.data());
  } else {
    model_->sense_first_batch(view, coeffs, cross, state_scratch_.data());
    cross_valid_[wl] = 1;
  }
  // Pass-through override: if a bitline's blocking threshold exceeds the
  // present Vpass, some unread cell fails to conduct and the whole string
  // senses as non-conducting — i.e. as the highest state.
  const double drop = blocking_drop();
  const double vpass = vpass_;
  const float* thr = blocking_threshold_.data();
  std::uint8_t* states = state_scratch_.data();
  for (std::uint32_t bl = 0; bl < geometry_.bitlines; ++bl) {
    const bool blocked = static_cast<double>(thr[bl]) - drop > vpass;
    states[bl] = blocked ? static_cast<std::uint8_t>(CellState::kP3)
                         : states[bl];
  }
  return state_scratch_;
}

ReadResult Block::read_page(PageAddress address) {
  assert(programmed_);
  ReadResult result;
  result.bits.resize(geometry_.bitlines);
  const std::uint8_t* sensed = sensed_states(address.wordline).data();
  const std::size_t base = index(address.wordline, 0);
  const std::uint8_t* truth = state_ + base;
  std::uint8_t* bits = result.bits.data();
  int errors = 0;
  if (address.kind == PageKind::kLsb) {
    for (std::uint32_t bl = 0; bl < geometry_.bitlines; ++bl) {
      bits[bl] = lsb_bit(sensed[bl]);
      errors += bits[bl] != lsb_bit(truth[bl]);
    }
  } else {
    for (std::uint32_t bl = 0; bl < geometry_.bitlines; ++bl) {
      bits[bl] = msb_bit(sensed[bl]);
      errors += bits[bl] != msb_bit(truth[bl]);
    }
  }
  result.raw_bit_errors = errors;
  apply_reads(address.wordline, 1.0);
  return result;
}

int Block::count_errors(PageAddress address) const {
  return page_bit_errors(address.kind, sensed_states(address.wordline),
                         wordline_states(address.wordline));
}

int Block::count_blocked_bitlines(std::uint32_t wl, double vpass) const {
  (void)wl;  // The blocker is virtually never on the addressed wordline.
  const double drop = blocking_drop();
  // blocking_sorted_ ascends and t -> t - drop is monotone, so "blocked"
  // is a suffix; the partition point gives the same count the per-bitline
  // scan did, in O(log bitlines).
  const auto first_blocked = std::partition_point(
      blocking_sorted_.begin(), blocking_sorted_.end(), [&](float t) {
        return !(static_cast<double>(t) - drop > vpass);
      });
  return static_cast<int>(blocking_sorted_.end() - first_blocked);
}

std::vector<double> Block::read_retry_scan(std::uint32_t wl, double lo,
                                           double hi, double step) const {
  std::vector<double> out = present_vth_page(wl);
  quantize_retry(out, lo, hi, step);
  return out;
}

}  // namespace rdsim::nand
