// Tests for Retention Failure Recovery (the RDR sibling for retention
// errors) and the read-reference optimizer (ROR-style).
#include <gtest/gtest.h>

#include <vector>

#include "core/rfr.h"
#include "core/vref_optimizer.h"
#include "nand/chip.h"

namespace rdsim::core {
namespace {

nand::Chip aged_chip(std::uint64_t seed, std::uint32_t pe, double days) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, seed);
  chip.block(0).add_wear(pe);
  chip.block(0).program_random();
  chip.block(0).advance_time(days);
  return chip;
}

TEST(Rfr, RecoversRetentionErrors) {
  auto chip = aged_chip(3, 12000, 40.0);
  const auto result = RetentionFailureRecovery().recover(chip.block(0), 30);
  EXPECT_GT(result.errors_before, 100);
  EXPECT_LT(result.errors_after, result.errors_before);
  const double reduction = 1.0 - result.rber_after() / result.rber_before();
  EXPECT_GT(reduction, 0.20);
}

TEST(Rfr, NeverWorseThanTheAgedRawState) {
  // RFR's bake is real damage (the reason it is reserved for pages ECC
  // already failed on): errors_after may exceed errors_before on young
  // data, but the re-labeling itself must not lose to simply reading the
  // baked page raw.
  for (const double days : {0.5, 20.0, 40.0}) {
    auto chip = aged_chip(4, 8000, days);
    auto& block = chip.block(0);
    const auto result = RetentionFailureRecovery().recover(block, 30);
    const int raw_after = block.count_errors({30, nand::PageKind::kLsb}) +
                          block.count_errors({30, nand::PageKind::kMsb});
    EXPECT_LE(result.errors_after, raw_after + 3) << "age=" << days;
  }
}

TEST(Rfr, ReductionGrowsWithAge) {
  double young, old_;
  {
    auto chip = aged_chip(5, 12000, 20.0);
    const auto r = RetentionFailureRecovery().recover(chip.block(0), 30);
    young = static_cast<double>(r.errors_before - r.errors_after);
  }
  {
    auto chip = aged_chip(5, 12000, 60.0);
    const auto r = RetentionFailureRecovery().recover(chip.block(0), 30);
    old_ = static_cast<double>(r.errors_before - r.errors_after);
  }
  EXPECT_GT(old_, young);
}

TEST(Rfr, ExtraRetentionIsRealAging) {
  auto chip = aged_chip(6, 8000, 30.0);
  auto& block = chip.block(0);
  const double before = block.retention_days();
  RfrOptions options;
  options.extra_days = 10.0;
  RetentionFailureRecovery(options).recover(block, 30);
  EXPECT_DOUBLE_EQ(block.retention_days(), before + 10.0);
}

TEST(Rfr, CorrectedStatesConsistent) {
  auto chip = aged_chip(7, 12000, 40.0);
  auto& block = chip.block(0);
  const auto result = RetentionFailureRecovery().recover(block, 30);
  ASSERT_EQ(result.corrected_states.size(), 8192u);
  int recount = 0;
  for (std::uint32_t bl = 0; bl < 8192; ++bl)
    recount += flash::bit_errors_between(result.corrected_states[bl],
                                         block.cell(30, bl).programmed);
  EXPECT_EQ(recount, result.errors_after);
}

TEST(Rfr, WindowAccounting) {
  auto chip = aged_chip(8, 12000, 40.0);
  const auto result = RetentionFailureRecovery().recover(chip.block(0), 30);
  EXPECT_LE(result.cells_relabeled, result.cells_in_window);
  EXPECT_GT(result.cells_in_window, 0);
}

TEST(VrefOpt, DefaultsMatchModel) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry::tiny(), params, 9);
  const auto refs = VrefOptimizer::defaults(chip.block(0));
  EXPECT_DOUBLE_EQ(refs.va, params.vref_a);
  EXPECT_DOUBLE_EQ(refs.vb, params.vref_b);
  EXPECT_DOUBLE_EQ(refs.vc, params.vref_c);
}

TEST(VrefOpt, LearnedRefsOrdered) {
  auto chip = aged_chip(10, 8000, 21.0);
  const auto refs = VrefOptimizer().learn(chip.block(0), 30);
  EXPECT_LT(refs.va, refs.vb);
  EXPECT_LT(refs.vb, refs.vc);
}

TEST(VrefOpt, BeatsDefaultsOnAgedDisturbedBlock) {
  auto chip = aged_chip(11, 8000, 21.0);
  auto& block = chip.block(0);
  block.apply_reads(31, 5e5);
  const VrefOptimizer optimizer;
  const auto learned = optimizer.learn(block, 30);
  const auto defaults = VrefOptimizer::defaults(block);
  const int with_default =
      VrefOptimizer::count_errors_with_refs(block, 30, defaults);
  const int with_learned =
      VrefOptimizer::count_errors_with_refs(block, 30, learned);
  EXPECT_LT(with_learned, with_default / 2);
}

TEST(VrefOpt, LearnFromSharedSenseBitIdentical) {
  // The servicer's ladder learns from the row it sensed once after the
  // failed read; that must equal learn() taking its own retry sweep, with
  // and without retention age, even after other const senses of the
  // block in between (the re-read's error count).
  for (const double days : {0.0, 21.0}) {
    auto chip = aged_chip(14, 25000, days);
    auto& block = chip.block(0);
    block.apply_reads(31, 3e5);
    const VrefOptimizer optimizer;
    for (const std::uint32_t wl : {0u, 30u, 63u}) {
      const std::vector<double> vth = block.present_vth_page(wl);
      const ReadRefs own = optimizer.learn(block, wl);
      VrefOptimizer::count_errors_with_refs(block, wl, own);
      const ReadRefs shared = optimizer.learn(block, vth);
      EXPECT_EQ(own.va, shared.va) << days << " " << wl;
      EXPECT_EQ(own.vb, shared.vb) << days << " " << wl;
      EXPECT_EQ(own.vc, shared.vc) << days << " " << wl;
    }
  }
}

TEST(VrefOpt, NearDefaultsOnFreshBlock) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 12);
  auto& block = chip.block(0);
  block.program_random();
  const auto learned = VrefOptimizer().learn(block, 5);
  const auto defaults = VrefOptimizer::defaults(block);
  // On a pristine block the valleys sit near the factory points and the
  // learned refs must not be (materially) worse.
  const int d = VrefOptimizer::count_errors_with_refs(block, 5, defaults);
  const int l = VrefOptimizer::count_errors_with_refs(block, 5, learned);
  EXPECT_LE(l, d + 2);
}

TEST(VrefOpt, TracksRetentionShiftDirection) {
  auto chip = aged_chip(13, 8000, 21.0);
  const auto learned = VrefOptimizer().learn(chip.block(0), 30);
  const auto defaults = VrefOptimizer::defaults(chip.block(0));
  // Retention drags distributions down, so the upper references must move
  // down with them.
  EXPECT_LT(learned.vc, defaults.vc);
  EXPECT_LT(learned.vb, defaults.vb);
}

}  // namespace
}  // namespace rdsim::core
