// Unit and behaviour tests for the Monte Carlo NAND block.
#include "nand/block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nand/chip.h"

namespace rdsim::nand {
namespace {

class BlockTest : public ::testing::Test {
 protected:
  flash::FlashModelParams params_ = flash::FlashModelParams::default_2ynm();
  Geometry geom_ = Geometry::tiny();  // 16 x 1024 x 4 blocks.
  Chip chip_{geom_, params_, 11};
};

TEST_F(BlockTest, FreshBlockState) {
  const auto& b = chip_.block(0);
  EXPECT_EQ(b.pe_cycles(), 0u);
  EXPECT_FALSE(b.programmed());
  EXPECT_DOUBLE_EQ(b.dose(), 0.0);
}

TEST_F(BlockTest, ProgramIncrementsPeAndTimestamps) {
  auto& b = chip_.block(0);
  b.advance_time(3.0);
  b.program_random();
  EXPECT_TRUE(b.programmed());
  EXPECT_EQ(b.pe_cycles(), 1u);
  EXPECT_DOUBLE_EQ(b.retention_days(), 0.0);
  b.advance_time(2.5);
  EXPECT_DOUBLE_EQ(b.retention_days(), 2.5);
}

TEST_F(BlockTest, EraseClearsState) {
  auto& b = chip_.block(0);
  b.program_random();
  b.apply_reads(0, 1000);
  b.erase();
  EXPECT_FALSE(b.programmed());
  EXPECT_DOUBLE_EQ(b.dose(), 0.0);
  EXPECT_EQ(b.pe_cycles(), 1u);  // Wear persists.
}

TEST_F(BlockTest, AddWearAccumulates) {
  auto& b = chip_.block(0);
  b.add_wear(5000);
  b.add_wear(3000);
  EXPECT_EQ(b.pe_cycles(), 8000u);
  EXPECT_FALSE(b.programmed());
}

TEST_F(BlockTest, ProgramStoresGroundTruth) {
  auto& b = chip_.block(0);
  PageBits lsb(geom_.bitlines, 1), msb(geom_.bitlines, 0);  // All P1.
  for (std::uint32_t wl = 0; wl < geom_.wordlines_per_block; ++wl)
    b.program_wordline(wl, lsb, msb);
  for (std::uint32_t bl = 0; bl < 20; ++bl)
    EXPECT_EQ(b.cell(3, bl).programmed, flash::CellState::kP1);
}

TEST_F(BlockTest, FreshReadNearlyErrorFree) {
  auto& b = chip_.block(0);
  b.program_random();
  int errors = 0;
  for (std::uint32_t wl = 0; wl < geom_.wordlines_per_block; ++wl) {
    errors += b.count_errors({wl, PageKind::kLsb});
    errors += b.count_errors({wl, PageKind::kMsb});
  }
  // Only program errors (~1e-4 of cells) contribute on a fresh block.
  EXPECT_LT(errors, 20);
}

TEST_F(BlockTest, ReadPageReportsAndAccumulatesDose) {
  auto& b = chip_.block(0);
  b.program_random();
  const double before = b.dose();
  const auto result = b.read_page({2, PageKind::kLsb});
  EXPECT_EQ(result.bits.size(), geom_.bitlines);
  EXPECT_GT(b.dose(), before);
}

TEST_F(BlockTest, SelfDoseExcluded) {
  auto& b = chip_.block(0);
  b.program_random();
  b.apply_reads(5, 1e5);
  // The addressed wordline does not disturb itself.
  EXPECT_DOUBLE_EQ(b.dose_for_wordline(5), 0.0);
  EXPECT_GT(b.dose_for_wordline(4), 0.0);
  EXPECT_DOUBLE_EQ(b.dose_for_wordline(4), b.dose_for_wordline(6));
}

TEST_F(BlockTest, ApplyReadsRejectsInvalidCounts) {
  // The incremental sense relies on dose never falling within an epoch:
  // a negative, NaN or infinite count (or a Vpass that makes the dose
  // non-finite) is rejected before anything is applied.
  auto& b = chip_.block(0);
  b.program_random();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -1e-300, -kInf, kInf,
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(b.apply_reads(3, bad), std::invalid_argument) << bad;
  }
  EXPECT_DOUBLE_EQ(b.dose(), 0.0);
  EXPECT_NO_THROW(b.apply_reads(3, 0.0));
  b.set_vpass(kInf);
  EXPECT_THROW(b.apply_reads(3, 1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(b.dose(), 0.0);
}

TEST_F(BlockTest, DisturbRaisesErrorsOnOtherWordlines) {
  auto& b = chip_.block(0);
  b.add_wear(8000);
  b.program_random();
  const int before = b.count_errors({3, PageKind::kMsb});
  b.apply_reads(4, 1e6);
  const int after = b.count_errors({3, PageKind::kMsb});
  EXPECT_GT(after, before + 5);
}

TEST_F(BlockTest, DisturbErrorsGrowWithWear) {
  int errors_low = 0, errors_high = 0;
  {
    Chip chip(geom_, params_, 21);
    auto& b = chip.block(0);
    b.add_wear(2000);
    b.program_random();
    b.apply_reads(0, 5e5);
    for (std::uint32_t wl = 1; wl < geom_.wordlines_per_block; ++wl)
      errors_low += b.count_errors({wl, PageKind::kMsb});
  }
  {
    Chip chip(geom_, params_, 21);
    auto& b = chip.block(0);
    b.add_wear(12000);
    b.program_random();
    b.apply_reads(0, 5e5);
    for (std::uint32_t wl = 1; wl < geom_.wordlines_per_block; ++wl)
      errors_high += b.count_errors({wl, PageKind::kMsb});
  }
  EXPECT_GT(errors_high, errors_low);
}

TEST_F(BlockTest, LowerVpassReducesDisturb) {
  Chip chip_a(geom_, params_, 31), chip_b(geom_, params_, 31);
  auto& a = chip_a.block(0);
  auto& b = chip_b.block(0);
  for (auto* blk : {&a, &b}) {
    blk->add_wear(8000);
    blk->program_random();
  }
  b.set_vpass(512.0 * 0.96);
  a.apply_reads(0, 1e6);
  b.apply_reads(0, 1e6);
  int ea = 0, eb = 0;
  for (std::uint32_t wl = 1; wl < geom_.wordlines_per_block; ++wl) {
    ea += a.count_errors({wl, PageKind::kMsb});
    eb += b.count_errors({wl, PageKind::kMsb});
  }
  EXPECT_LT(eb, ea / 2);
}

TEST_F(BlockTest, BlockedBitlinesMonotoneInVpass) {
  auto& b = chip_.block(0);
  b.add_wear(8000);
  b.program_random();
  int prev = 0;
  for (double v = 512; v >= 460; v -= 4) {
    const int n = b.count_blocked_bitlines(0, v);
    EXPECT_GE(n, prev);
    prev = n;
  }
  EXPECT_GT(prev, 0);  // Deep relaxation must block something.
  EXPECT_EQ(b.count_blocked_bitlines(0, 512.0), 0);
}

TEST_F(BlockTest, BlockingRelaxesWithRetention) {
  auto& b = chip_.block(0);
  b.add_wear(8000);
  b.program_random();
  const int young = b.count_blocked_bitlines(0, 490.0);
  b.advance_time(21.0);
  const int old = b.count_blocked_bitlines(0, 490.0);
  EXPECT_LE(old, young);
}

TEST_F(BlockTest, ReadRetryScanQuantizes) {
  auto& b = chip_.block(0);
  b.program_random();
  const auto scan = b.read_retry_scan(0, 0.0, 520.0, 2.0);
  ASSERT_EQ(scan.size(), geom_.bitlines);
  for (std::uint32_t bl = 0; bl < geom_.bitlines; ++bl) {
    const double v = b.present_vth(0, bl);
    EXPECT_GE(scan[bl], v);
    EXPECT_LE(scan[bl] - v, 2.0 + 1e-9);
    // Scan values sit on the retry grid.
    const double steps = (scan[bl] - 0.0) / 2.0;
    EXPECT_NEAR(steps, std::round(steps), 1e-9);
  }
}

TEST_F(BlockTest, RetentionLowersProgrammedVth) {
  auto& b = chip_.block(0);
  b.program_random();
  // Find a P3 cell and check leakage.
  for (std::uint32_t bl = 0; bl < geom_.bitlines; ++bl) {
    if (b.cell(0, bl).programmed == flash::CellState::kP3) {
      const double young = b.present_vth(0, bl);
      b.advance_time(21.0);
      EXPECT_LT(b.present_vth(0, bl), young);
      break;
    }
  }
}

TEST_F(BlockTest, BlockedCountMatchesLinearThresholdScan) {
  // count_blocked_bitlines binary-searches a sorted copy of the blocking
  // thresholds; it must agree with the direct per-bitline definition at
  // day 0 (no retention drift term).
  auto& b = chip_.block(0);
  b.add_wear(8000);
  b.program_random();
  for (double v = 520.0; v >= 380.0; v -= 1.7) {
    int linear = 0;
    for (std::uint32_t bl = 0; bl < geom_.bitlines; ++bl)
      linear += b.blocking_threshold(bl) > v;
    EXPECT_EQ(b.count_blocked_bitlines(0, v), linear) << v;
  }
}

TEST_F(BlockTest, ErasedBlockBlocksEverything) {
  // Erased strings have +inf blocking thresholds by convention.
  const auto& b = chip_.block(0);
  EXPECT_EQ(b.count_blocked_bitlines(0, 512.0),
            static_cast<int>(geom_.bitlines));
}

TEST_F(BlockTest, PresentVthPageMatchesScalarAccessor) {
  auto& b = chip_.block(0);
  b.add_wear(8000);
  b.program_random();
  b.apply_reads(3, 4e5);
  b.advance_time(2.0);
  const auto page = b.present_vth_page(5);
  ASSERT_EQ(page.size(), geom_.bitlines);
  for (std::uint32_t bl = 0; bl < geom_.bitlines; ++bl)
    EXPECT_EQ(page[bl], b.present_vth(5, bl)) << bl;  // Bit-identical.
}

TEST_F(BlockTest, CellAccessorsAgree) {
  auto& b = chip_.block(0);
  b.program_random();
  for (std::uint32_t bl = 0; bl < 64; ++bl) {
    const auto cell = b.cell(7, bl);
    EXPECT_EQ(cell.programmed, b.cell_state(7, bl));
    EXPECT_GT(cell.susceptibility, 0.0F);
    EXPECT_GT(cell.leak_rate, 0.0F);
  }
}

TEST_F(BlockTest, ProgramRandomBitAssignmentMatchesDrawStream) {
  // A wordline's random data is drawn from the counter-based stream
  // Rng::at(block seed, program epoch, wl) — 64 data bits per raw draw,
  // (LSB, MSB) per bitline in order. The stored ground truth must match
  // an *independent* derivation of the same stream — this pins the
  // assignment order and the seed derivation, not just determinism.
  auto& b = chip_.block(1);
  b.program_random();
  // Mirror the block's seed: Chip seeds block i with the i-th fork of
  // Rng(seed) (this fixture's chip seed is 11), and the block's stream
  // root is that fork's first output. Epochs count program events from 1,
  // so the first program after construction runs at epoch 1.
  Rng root(11);
  root.fork();               // Block 0's stream.
  const std::uint64_t block_seed = root.fork().next();
  for (const std::uint32_t wl : {0u, 7u}) {
    Rng mirror = Rng::at(block_seed, /*epoch=*/1, wl);
    std::vector<std::uint8_t> bits(2 *
                                   static_cast<std::size_t>(geom_.bitlines));
    mirror.fill_random_bits(bits.data(), bits.size());
    for (std::uint32_t bl = 0; bl < geom_.bitlines; ++bl) {
      ASSERT_EQ(b.cell_state(wl, bl),
                flash::state_of_bits(bits[2 * bl], bits[2 * bl + 1]))
          << "wl " << wl << " bl " << bl;
    }
  }
}

// --- Lazy materialization: ground truth must be a pure function of
// (block seed, program epoch, wordline), independent of touch order. ---

/// Collects every observable ground-truth field of one wordline.
std::vector<double> wordline_fingerprint(const Block& b, std::uint32_t wl) {
  std::vector<double> out;
  for (std::uint32_t bl = 0; bl < b.geometry().bitlines; ++bl) {
    const auto cell = b.cell(wl, bl);
    out.push_back(static_cast<double>(cell.programmed));
    out.push_back(cell.v0);
    out.push_back(cell.susceptibility);
    out.push_back(cell.leak_rate);
  }
  const auto page = b.present_vth_page(wl);
  out.insert(out.end(), page.begin(), page.end());
  return out;
}

TEST_F(BlockTest, MaterializationOrderDoesNotChangeGroundTruth) {
  // Same chip seed, three different touch orders (ascending, descending,
  // shuffled-with-revisits); every wordline's cells and present Vth must
  // come out bit-identical.
  const auto make_block = [&](Chip& chip) -> Block& {
    auto& b = chip.block(0);
    b.add_wear(8000);
    b.program_random();
    b.apply_reads(3, 2e5);  // Dose so present_vth exercises the full path.
    return b;
  };
  Chip fwd(geom_, params_, 77), rev(geom_, params_, 77),
      shuf(geom_, params_, 77);
  Block& a = make_block(fwd);
  Block& b = make_block(rev);
  Block& c = make_block(shuf);

  std::vector<std::uint32_t> order(geom_.wordlines_per_block);
  for (std::uint32_t wl = 0; wl < order.size(); ++wl) order[wl] = wl;
  // Deterministic shuffle, with one wordline touched twice up front.
  Rng shuffle_rng(5);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[shuffle_rng.uniform_u64(i)]);
  std::vector<std::vector<double>> got_a(order.size()), got_b(order.size()),
      got_c(order.size());
  for (std::uint32_t wl = 0; wl < order.size(); ++wl)
    got_a[wl] = wordline_fingerprint(a, wl);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    const auto wl = static_cast<std::uint32_t>(order.size() - 1 - i);
    got_b[wl] = wordline_fingerprint(b, wl);
  }
  got_c[order[0]] = wordline_fingerprint(c, order[0]);  // Revisit below.
  for (const std::uint32_t wl : order) got_c[wl] = wordline_fingerprint(c, wl);
  for (std::uint32_t wl = 0; wl < order.size(); ++wl) {
    EXPECT_EQ(got_a[wl], got_b[wl]) << "ascending vs descending, wl " << wl;
    EXPECT_EQ(got_a[wl], got_c[wl]) << "ascending vs shuffled, wl " << wl;
  }
}

TEST_F(BlockTest, LazyAndEagerFullBlockAgree) {
  // Touching every wordline immediately after programming (the eager
  // pattern) and sensing lazily in scattered order later must yield the
  // same errors and the same ground truth.
  Chip eager_chip(geom_, params_, 91), lazy_chip(geom_, params_, 91);
  for (auto* chip : {&eager_chip, &lazy_chip}) {
    auto& b = chip->block(0);
    b.add_wear(8000);
    b.program_random();
  }
  auto& eager = eager_chip.block(0);
  auto& lazy = lazy_chip.block(0);
  // Eager: force-materialize everything up front.
  for (std::uint32_t wl = 0; wl < geom_.wordlines_per_block; ++wl)
    (void)eager.cell(wl, 0);
  for (auto* b : {&eager, &lazy}) {
    b->apply_reads(4, 5e5);
    b->advance_time(1.5);
  }
  for (std::uint32_t i = 0; i < geom_.wordlines_per_block; ++i) {
    // Lazy side touches wordlines middle-out; eager side in order.
    const std::uint32_t lazy_wl =
        (geom_.wordlines_per_block / 2 + 5 * i) % geom_.wordlines_per_block;
    EXPECT_EQ(lazy.count_errors({lazy_wl, PageKind::kLsb}),
              eager.count_errors({lazy_wl, PageKind::kLsb}));
    EXPECT_EQ(wordline_fingerprint(lazy, lazy_wl),
              wordline_fingerprint(eager, lazy_wl));
  }
  for (std::uint32_t wl = 0; wl < geom_.wordlines_per_block; ++wl) {
    EXPECT_EQ(lazy.count_errors({wl, PageKind::kMsb}),
              eager.count_errors({wl, PageKind::kMsb}));
  }
}

TEST_F(BlockTest, ExplicitReprogramDrawsFreshSamples) {
  // Epochs count program events, not erases: a second explicit pass over
  // the block (the log-structured rewrite pattern) must resample the
  // cells even with identical data and no intervening erase.
  auto& b = chip_.block(3);
  PageBits lsb(geom_.bitlines, 1), msb(geom_.bitlines, 0);  // All P1.
  for (std::uint32_t wl = 0; wl < geom_.wordlines_per_block; ++wl)
    b.program_wordline(wl, lsb, msb);
  const float first = b.cell(2, 5).v0;
  for (std::uint32_t wl = 0; wl < geom_.wordlines_per_block; ++wl)
    b.program_wordline(wl, lsb, msb);
  EXPECT_EQ(b.cell(2, 5).programmed, flash::CellState::kP1);
  EXPECT_NE(b.cell(2, 5).v0, first);
  EXPECT_EQ(b.pe_cycles(), 2u);
}

TEST_F(BlockTest, ReprogramChangesGroundTruthEpoch) {
  // Each erase advances the program epoch, so a reprogrammed block draws
  // fresh data and fresh cells — reading before or after must not leak
  // the previous epoch's rows.
  auto& b = chip_.block(2);
  b.program_random();
  const auto first = wordline_fingerprint(b, 6);
  b.erase();
  b.program_random();
  const auto second = wordline_fingerprint(b, 6);
  EXPECT_NE(first, second);
  // And an untouched-then-erased wordline yields erased ground truth.
  b.erase();
  EXPECT_EQ(b.cell(9, 0).programmed, flash::CellState::kEr);
  EXPECT_EQ(b.cell(9, 0).v0, 0.0F);
}

}  // namespace
}  // namespace rdsim::nand
