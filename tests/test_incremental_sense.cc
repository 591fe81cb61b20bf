// Exactness of the incremental sense. A block senses a wordline in full
// only on the first sense of an epoch and afterwards re-evaluates just
// the cells whose crossing dose was reached (flash::VthModel::
// sense_first_batch / resense_batch). Every sensed state must equal the
// reference sense — present_vth_page, classify_batch, then the
// pass-through blocking override — at every step:
//   * on seeded random block streams: reads at random wordlines and
//     Vpass, advance_time (including 0 days), erase + program_random,
//     erase + an explicit program_wordline pass, with and without the
//     neighbour dose boost, covering all four (dose > 0, days > 0)
//     regimes;
//   * at kernel level, on hand-placed cells at each read reference, one
//     float ulp either side of it and at R - kCrossingGuardVth, under
//     doses straddling both the stored crossing dose and the dose at
//     which the reference state actually flips.
// The streams also count cells whose state changed within an epoch, so
// a kernel that skipped re-evaluating crossed cells could not pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "flash/params.h"
#include "flash/types.h"
#include "flash/vth_model.h"
#include "nand/block.h"
#include "nand/geometry.h"

namespace rdsim {
namespace {

using flash::CellSoaView;
using flash::FlashModelParams;
using flash::VthModel;
using nand::Block;

/// The reference sense of wordline `wl`: full present-Vth row, batched
/// classification, then the pass-through override.
std::vector<std::uint8_t> reference_states(const Block& block,
                                           std::uint32_t wl) {
  const std::vector<double> vth = block.present_vth_page(wl);
  std::vector<std::uint8_t> states(vth.size());
  block.model().classify_batch(vth.data(), vth.size(), states.data());
  const auto& p = block.model().params();
  const double drop =
      p.tail_ret_drop * std::log1p(std::max(block.retention_days(), 0.0));
  for (std::size_t bl = 0; bl < states.size(); ++bl) {
    if (block.blocking_threshold(static_cast<std::uint32_t>(bl)) - drop >
        block.vpass())
      states[bl] = static_cast<std::uint8_t>(flash::CellState::kP3);
  }
  return states;
}

struct StreamTally {
  int senses = 0;
  int regimes[2][2] = {};      ///< [dose > 0][days > 0] senses.
  long changed_in_epoch = 0;   ///< Cells whose reference state moved
                               ///< between two senses of one epoch.
};

/// Runs `steps` random operations on a fresh block of `geom`, comparing
/// the block's sensed states with the reference after every sense.
void run_stream(const FlashModelParams& params, std::uint64_t seed, int steps,
                StreamTally* tally) {
  const nand::Geometry geom{8, 2048, 1};
  const VthModel model(params);
  Block block(geom, model, Rng(seed));
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  block.add_wear(static_cast<std::uint32_t>(4000 + rng.uniform_u64(20000)));
  block.program_random();
  // Last reference row per wordline within the current epoch.
  std::vector<std::vector<std::uint8_t>> last(geom.wordlines_per_block);
  const auto end_epoch = [&] {
    for (auto& row : last) row.clear();
  };
  for (int step = 0; step < steps; ++step) {
    const auto wl =
        static_cast<std::uint32_t>(rng.uniform_u64(geom.wordlines_per_block));
    const std::uint64_t op = rng.uniform_u64(100);
    if (op < 45) {
      // Reads addressed at one wordline, 1 to ~1e6 of them.
      block.apply_reads(wl, std::floor(std::pow(10.0, 6.0 * rng.uniform())));
    } else if (op < 50) {
      block.set_vpass(params.vpass_nominal * (0.94 + 0.06 * rng.uniform()));
    } else if (op < 53) {
      block.advance_time(rng.bernoulli(0.5) ? 0.0 : 5.0 * rng.uniform());
      end_epoch();
    } else if (op < 55) {
      block.erase();
      block.program_random();
      end_epoch();
    } else if (op < 56) {
      block.erase();
      nand::PageBits lsb(geom.bitlines), msb(geom.bitlines);
      for (std::uint32_t w = 0; w < geom.wordlines_per_block; ++w) {
        for (std::uint32_t bl = 0; bl < geom.bitlines; ++bl) {
          lsb[bl] = static_cast<std::uint8_t>(rng.uniform_u64(2));
          msb[bl] = static_cast<std::uint8_t>(rng.uniform_u64(2));
        }
        block.program_wordline(w, lsb, msb);
        // Sense mid-pass too, programmed or not: programming a wordline
        // sensed earlier in the pass must not leave its row stale.
        if (rng.bernoulli(0.3)) {
          const auto probe = static_cast<std::uint32_t>(
              rng.uniform_u64(geom.wordlines_per_block));
          const std::span<const std::uint8_t> got =
              block.sensed_states(probe);
          const auto want = reference_states(block, probe);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
              << "seed " << seed << " step " << step << " mid-pass wl "
              << probe;
        }
      }
      end_epoch();
    } else {
      const std::span<const std::uint8_t> got = block.sensed_states(wl);
      const auto want = reference_states(block, wl);
      for (std::size_t bl = 0; bl < want.size(); ++bl) {
        ASSERT_EQ(got[bl], want[bl])
            << "seed " << seed << " step " << step << " wl " << wl << " bl "
            << bl << " dose " << block.dose_for_wordline(wl) << " days "
            << block.retention_days();
      }
      ++tally->senses;
      ++tally->regimes[block.dose_for_wordline(wl) > 0.0]
                      [block.retention_days() > 0.0];
      if (!last[wl].empty()) {
        for (std::size_t bl = 0; bl < want.size(); ++bl)
          tally->changed_in_epoch += last[wl][bl] != want[bl];
      }
      last[wl] = want;
    }
  }
}

TEST(IncrementalSense, RandomBlockStreamsMatchReferenceSense) {
  StreamTally tally;
  const FlashModelParams params = FlashModelParams::default_2ynm();
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    run_stream(params, seed, 400, &tally);
  EXPECT_GT(tally.senses, 1000);
  for (int d = 0; d < 2; ++d)
    for (int r = 0; r < 2; ++r)
      EXPECT_GT(tally.regimes[d][r], 0) << "dose>0 " << d << " days>0 " << r;
  EXPECT_GT(tally.changed_in_epoch, 100);
}

TEST(IncrementalSense, NeighborDoseBoostStreamsMatchReferenceSense) {
  StreamTally tally;
  FlashModelParams params = FlashModelParams::default_2ynm();
  params.neighbor_dose_boost = 0.5;
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    run_stream(params, seed, 400, &tally);
  EXPECT_GT(tally.changed_in_epoch, 100);
}

TEST(IncrementalSense, ExplicitReprogramStartsANewEpoch) {
  // A second explicit program pass over a block without an erase
  // between: each wordline's row must be rebuilt as soon as the
  // wordline is reprogrammed (mid-pass) and again when the pass ends.
  const nand::Geometry geom{4, 1024, 1};
  const VthModel model(FlashModelParams::default_2ynm());
  Block block(geom, model, Rng(5));
  block.add_wear(9000);
  const auto expect_reference = [&](std::uint32_t wl) {
    const std::span<const std::uint8_t> got = block.sensed_states(wl);
    const auto want = reference_states(block, wl);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << wl;
  };
  Rng rng(6);
  nand::PageBits lsb(geom.bitlines), msb(geom.bitlines);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t w = 0; w < geom.wordlines_per_block; ++w) {
      for (std::uint32_t bl = 0; bl < geom.bitlines; ++bl) {
        lsb[bl] = static_cast<std::uint8_t>(rng.uniform_u64(2));
        msb[bl] = static_cast<std::uint8_t>(rng.uniform_u64(2));
      }
      block.program_wordline(w, lsb, msb);
      expect_reference(w);
    }
    block.apply_reads(3, 2e5);
    for (std::uint32_t w = 0; w < geom.wordlines_per_block; ++w)
      expect_reference(w);
  }
}

/// Kernel-level rows of hand-placed cells, one cell per row so each gets
/// its own dose sequence.
class CrossingKernelTest : public ::testing::Test {
 protected:
  FlashModelParams params_ = FlashModelParams::default_2ynm();
  VthModel model_{params_};

  std::uint8_t reference_state(float v0, float s, float leak, double dose,
                               double days) const {
    const double v = model_.present_vth_cell(
        model_.sense_coeffs(dose, days, 8000.0), v0, s, leak);
    return static_cast<std::uint8_t>(model_.classify(v));
  }

  /// Smallest dose (to a double ulp) at which the reference state of the
  /// cell differs from its state at `from`, or +inf if none below 1e12.
  double flip_dose(float v0, float s, float leak, double from,
                   double days) const {
    const std::uint8_t start = reference_state(v0, s, leak, from, days);
    double lo = from, hi = 1e12;
    if (reference_state(v0, s, leak, hi, days) == start)
      return std::numeric_limits<double>::infinity();
    while (std::nextafter(lo, hi) < hi) {
      const double mid = lo + (hi - lo) / 2;
      if (mid <= lo || mid >= hi) break;
      (reference_state(v0, s, leak, mid, days) == start ? lo : hi) = mid;
    }
    return hi;
  }

  /// Builds the crossing row at `first` dose, then re-senses at every
  /// dose of `doses` (ascending), checking the state each time.
  void check_cell(float v0, float s, float leak, double days, double first,
                  std::vector<double> doses) {
    const std::uint8_t programmed = 0;
    const CellSoaView view{&programmed, &v0, &s, &leak, 1};
    float cross = 0.0F;
    std::uint8_t state = 0;
    model_.sense_first_batch(view, model_.sense_coeffs(first, days, 8000.0),
                             &cross, &state);
    ASSERT_EQ(state, reference_state(v0, s, leak, first, days))
        << "first sense v0 " << v0 << " dose " << first;
    ASSERT_EQ(state, VthModel::crossing_state(cross));
    // Straddle the stored crossing dose as well as the true flip dose.
    const double stored = static_cast<double>(cross);
    const double flip = flip_dose(v0, s, leak, first, days);
    for (const double base : {stored, flip}) {
      if (!(base > first) || !std::isfinite(base) || base > 1e11) continue;
      for (const double rel : {-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9,
                               1e-6, 1e-3})
        doses.push_back(base * (1.0 + rel));
      doses.push_back(std::nextafter(base, 0.0));
      doses.push_back(std::nextafter(base, 1e300));
    }
    std::sort(doses.begin(), doses.end());
    for (const double dose : doses) {
      if (dose < first) continue;
      model_.resense_batch(view, model_.sense_coeffs(dose, days, 8000.0),
                           &cross, &state);
      ASSERT_EQ(state, reference_state(v0, s, leak, dose, days))
          << "v0 " << v0 << " s " << s << " days " << days << " first "
          << first << " dose " << dose << " stored crossing " << stored
          << " flip " << flip;
      ASSERT_EQ(state, VthModel::crossing_state(cross));
    }
  }
};

TEST_F(CrossingKernelTest, HandPlacedCellsAtEveryReference) {
  const double g = VthModel::kCrossingGuardVth;
  Rng rng(17);
  int cells = 0;
  for (const double ref : {params_.vref_a, params_.vref_b, params_.vref_c}) {
    const auto r = static_cast<float>(ref);
    const float below = std::nextafter(r, -1e30F);
    const float above = std::nextafter(r, 1e30F);
    const auto guard = static_cast<float>(ref - g);
    const float placements[] = {
        r,
        below,
        above,
        guard,
        std::nextafter(guard, -1e30F),
        std::nextafter(guard, 1e30F),
        static_cast<float>(ref - 2 * g),
        static_cast<float>(ref - 0.5),
        static_cast<float>(ref - 5.0),
        static_cast<float>(ref - 40.0),
    };
    for (const float v0 : placements) {
      for (int k = 0; k < 6; ++k) {
        const auto s = static_cast<float>(std::exp(rng.normal(0.0, 0.45)));
        const auto leak = static_cast<float>(std::exp(rng.normal(0.0, 0.35)));
        for (const double days : {0.0, 2.5}) {
          for (const double first : {0.0, 1e3, 1e5}) {
            SCOPED_TRACE(testing::Message()
                         << "ref " << ref << " v0 " << v0 << " days " << days
                         << " first " << first);
            check_cell(v0, s, leak, days, first, {first, 1e2, 1e4, 1e6, 1e8});
            ++cells;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 3 * 10 * 6 * 2 * 3);
}

TEST_F(CrossingKernelTest, RowEntriesAreNeverNaN) {
  // Top-state cells clear of Vc never cross: FLT_MAX with the state
  // packed in, not +inf (which packing would turn into a NaN).
  const std::uint8_t programmed[3] = {};
  const float v0[3] = {450.0F, 40.0F, static_cast<float>(params_.vref_c)};
  const float s[3] = {1.0F, 1e-38F, 1.0F};
  const float leak[3] = {1.0F, 1.0F, 1.0F};
  const CellSoaView view{programmed, v0, s, leak, 3};
  float cross[3];
  std::uint8_t states[3];
  model_.sense_first_batch(view, model_.sense_coeffs(1e4, 0.0, 8000.0), cross,
                           states);
  for (const float c : cross) EXPECT_FALSE(std::isnan(c));
  EXPECT_EQ(states[0], 3);
  EXPECT_GT(static_cast<double>(cross[0]), 1e38);
  EXPECT_GT(static_cast<double>(cross[1]), 1e38);  // Barely disturbable.
  EXPECT_LT(static_cast<double>(cross[2]), -1e38);  // On Vc: always.
}

}  // namespace
}  // namespace rdsim
