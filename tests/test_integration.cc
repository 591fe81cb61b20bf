// Cross-module integration tests: the full read path (chip + BCH), Monte
// Carlo vs analytic model agreement, and the end-to-end recovery flow the
// paper's mechanisms promise.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/rdr.h"
#include "core/vpass_tuning.h"
#include "ecc/bch.h"
#include "ftl/ftl.h"
#include "flash/rber_model.h"
#include "nand/chip.h"

namespace rdsim {
namespace {

TEST(Integration, ChipPlusBchReadPathClean) {
  // Payload -> BCH -> cells -> read -> BCH decode.
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{16, 2048, 1}, params, 3);
  auto& block = chip.block(0);

  const ecc::BchCode code(12, 8, 1024);  // Fits in 2048 bitlines.
  Rng rng(4);
  std::vector<std::uint8_t> payload_bytes(128);
  for (auto& b : payload_bytes) b = static_cast<std::uint8_t>(rng.next());

  ecc::BitVec data_bits(1024);
  for (int i = 0; i < 1024; ++i)
    data_bits[i] = (payload_bytes[i / 8] >> (i % 8)) & 1;
  const auto codeword = code.encode(data_bits);
  ASSERT_LE(codeword.size(), 2048u);

  nand::PageBits lsb(2048, 0), msb(2048, 0);
  for (std::size_t i = 0; i < codeword.size(); ++i) msb[i] = codeword[i];
  for (std::uint32_t wl = 0; wl < 16; ++wl) block.program_wordline(wl, lsb, msb);

  const auto read = block.read_page({0, nand::PageKind::kMsb});
  ecc::BitVec received(codeword.size());
  for (std::size_t i = 0; i < codeword.size(); ++i) received[i] = read.bits[i];
  const auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.ok);

  std::vector<std::uint8_t> out(128, 0);
  for (int i = 0; i < 1024; ++i)
    out[i / 8] |= static_cast<std::uint8_t>(decoded.data[i] << (i % 8));
  EXPECT_EQ(out, payload_bytes);
}

TEST(Integration, McAndAnalyticAgreeOnTrends) {
  // The Monte Carlo chip and the analytic model are calibrated from the
  // same figures; they must agree on direction everywhere and on
  // magnitude within a small factor in the disturb-dominated regime.
  const auto params = flash::FlashModelParams::default_2ynm();
  const flash::RberModel analytic(params);

  auto mc_rber = [&](double reads) {
    nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 77);
    auto& b = chip.block(0);
    b.add_wear(8000);
    b.program_random();
    b.apply_reads(0, reads);
    std::uint64_t errors = 0;
    for (std::uint32_t wl = 1; wl < 64; ++wl) {
      errors += b.count_errors({wl, nand::PageKind::kLsb});
      errors += b.count_errors({wl, nand::PageKind::kMsb});
    }
    return static_cast<double>(errors) / (63.0 * 2 * 8192);
  };

  double prev_mc = -1;
  for (double reads : {0.0, 3e5, 1e6}) {
    const double mc = mc_rber(reads);
    EXPECT_GT(mc, prev_mc);  // Monotone in reads, like the analytic model.
    prev_mc = mc;
  }
  const double mc_1m = mc_rber(1e6);
  const double an_1m = analytic.total_rber({8000, 0.0, 1e6, 512.0});
  EXPECT_GT(mc_1m / an_1m, 0.25);
  EXPECT_LT(mc_1m / an_1m, 4.0);
}

TEST(Integration, TuningThenDisturbThenRecovery) {
  // The full story of the paper on one block: tune Vpass, absorb a large
  // disturb load, exceed ECC, recover with RDR, decode.
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 21);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();

  // Mitigation halves-or-better the damage of 2M reads.
  core::McBlockProbe probe(block);
  const ecc::EccModel ecc{ecc::EccConfig::mc_provisioning()};
  core::VpassTuningController controller(ecc, params.vpass_nominal);
  const auto decision = controller.relearn(probe);
  ASSERT_FALSE(decision.fallback);
  block.set_vpass(decision.vpass);
  block.apply_reads(31, 2e6);
  const int tuned_errors = block.count_errors({30, nand::PageKind::kMsb});

  nand::Chip chip2(nand::Geometry{64, 8192, 1}, params, 21);
  auto& block2 = chip2.block(0);
  block2.add_wear(8000);
  block2.program_random();
  block2.apply_reads(31, 2e6);
  const int nominal_errors = block2.count_errors({30, nand::PageKind::kMsb});
  EXPECT_LT(tuned_errors, nominal_errors / 2);

  // Recovery on the unmitigated block.
  const auto result = core::ReadDisturbRecovery().recover(block2, 30);
  EXPECT_LT(result.errors_after, result.errors_before);
}

TEST(Integration, ReadReclaimAlternativeAlsoBoundsDisturb) {
  // The baseline mitigation from prior work: remap after a read
  // threshold. Confirm it prevents unbounded disturb accumulation in the
  // FTL (the mechanism Vpass Tuning is compared against).
  ftl::FtlConfig cfg;
  cfg.blocks = 32;
  cfg.pages_per_block = 16;
  cfg.overprovision = 0.25;
  cfg.read_reclaim_threshold = 5000;
  ftl::Ftl mapper(cfg);
  for (std::uint64_t lpn = 0; lpn < 64; ++lpn) mapper.write(lpn);
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 2000; ++i) mapper.read(0);
    mapper.apply_read_reclaim();
    for (std::size_t b = 0; b < mapper.block_count(); ++b)
      EXPECT_LT(mapper.block(b).reads_since_program,
                cfg.read_reclaim_threshold + 2000);
  }
  EXPECT_GT(mapper.stats().reclaims, 0u);
}

TEST(Integration, BoundaryShiftConsistentWithRdrThreshold) {
  // VthModel::boundary_shift (the dVref the paper describes) must agree
  // with the shift the RDR implementation derives locally for a cell
  // sitting exactly at the boundary.
  const auto params = flash::FlashModelParams::default_2ynm();
  const flash::VthModel model(params);
  const double pe = 8000, days = 0;
  const double base_dose = 1e6, extra = 1e5;
  const double dvref =
      model.boundary_shift(flash::CellState::kEr, pe, days, base_dose, extra);
  const double v = model.pdf_intersection(flash::CellState::kEr, pe, days);
  const double local = model.apply_disturb(v, 1.0, extra) - v;
  // boundary_shift accounts for the cell's prior dose history; both views
  // must land in the same ballpark (same order, within 2x).
  EXPECT_GT(dvref / local, 0.5);
  EXPECT_LT(dvref / local, 2.0);
}

}  // namespace
}  // namespace rdsim
