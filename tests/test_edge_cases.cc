// Edge-case and boundary-condition tests across all modules: the corners
// a downstream user will eventually hit.
#include <gtest/gtest.h>

#include <sstream>

#include "analytic_drive.h"
#include "cfg/spec.h"
#include "common/csv.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/endurance.h"
#include "ecc/bch.h"
#include "ecc/ecc_model.h"
#include "flash/rber_model.h"
#include "flash/vth_model.h"
#include "host/factory.h"
#include "nand/randomizer.h"
#include "ssd/ssd.h"
#include "workload/zipf.h"

namespace rdsim {
namespace {

TEST(EdgeRber, ExtrapolationBeyondCharacterizedWindow) {
  const flash::RberModel model(flash::FlashModelParams::default_2ynm());
  // Continuous at the day-21 table edge and monotone beyond it.
  EXPECT_NEAR(model.retention_rber(8000, 21.0 - 1e-6),
              model.retention_rber(8000, 21.0 + 1e-6), 1e-7);
  double prev = model.retention_rber(8000, 21);
  for (double d : {30.0, 60.0, 180.0, 365.0}) {
    const double r = model.retention_rber(8000, d);
    EXPECT_GT(r, prev);
    prev = r;
  }
  // A year of retention still yields a probability-sized number.
  EXPECT_LT(prev, 1e-2);
}

TEST(EdgeRber, ZeroWear) {
  const flash::RberModel model(flash::FlashModelParams::default_2ynm());
  EXPECT_GT(model.base_rber(0), 0.0);
  EXPECT_LT(model.base_rber(0), model.base_rber(1000));
  EXPECT_GT(model.disturb_slope(0), 0.0);
}

TEST(EdgeVth, BoundaryShiftWithZeroBaseDose) {
  const flash::VthModel model(flash::FlashModelParams::default_2ynm());
  const double v = model.pdf_intersection(flash::CellState::kEr, 8000, 0);
  const double via_boundary =
      model.boundary_shift(flash::CellState::kEr, 8000, 0, 0.0, 1e5);
  const double direct = model.apply_disturb(v, 1.0, 1e5) - v;
  EXPECT_NEAR(via_boundary, direct, 1e-9);
}

TEST(EdgeVth, AllThreeBoundariesOrderedUnderDose) {
  const flash::VthModel model(flash::FlashModelParams::default_2ynm());
  for (double dose : {0.0, 1e5, 1e6}) {
    double prev = 0.0;
    for (int b = 0; b < 3; ++b) {
      const double x = model.pdf_intersection(static_cast<flash::CellState>(b),
                                              8000, 7.0, dose);
      EXPECT_GT(x, prev);
      prev = x;
    }
  }
}

TEST(EdgeEndurance, CustomDeathBarAndWorstFactor) {
  const flash::RberModel model(flash::FlashModelParams::default_2ynm());
  const ecc::EccModel ecc{ecc::EccConfig::paper_provisioning()};
  core::EnduranceOptions lenient;
  lenient.worst_page_factor = 1.0;
  core::EnduranceOptions strict;
  strict.worst_page_factor = 2.0;
  const core::EnduranceEvaluator easy(model, ecc, lenient);
  const core::EnduranceEvaluator hard(model, ecc, strict);
  EXPECT_GT(easy.endurance_pe(100e3, false), hard.endurance_pe(100e3, false));
}

TEST(EdgeEndurance, SaturatesAtSearchCeiling) {
  const flash::RberModel model(flash::FlashModelParams::default_2ynm());
  const ecc::EccModel ecc{ecc::EccConfig::paper_provisioning()};
  core::EnduranceOptions opt;
  opt.death_rber = 0.5;  // Unreachable bar: everything survives.
  const core::EnduranceEvaluator evaluator(model, ecc, opt);
  EXPECT_DOUBLE_EQ(evaluator.endurance_pe(0.0, false), 60000.0);
}

TEST(EdgeZipf, HeadTailBoundaryContinuous) {
  // Rank 4095 (last head entry) and 4096 (first tail rank) must both be
  // reachable and have sane relative frequency.
  workload::ZipfSampler zipf(1u << 16, 0.9);
  Rng rng(1);
  std::uint64_t head_edge = 0, tail_edge = 0;
  for (int i = 0; i < 2000000; ++i) {
    const auto r = zipf.sample(rng);
    head_edge += r == 4095;
    tail_edge += r == 4096;
  }
  EXPECT_GT(head_edge, 0u);
  EXPECT_GT(tail_edge, 0u);
  EXPECT_NEAR(static_cast<double>(head_edge) / tail_edge, 1.0, 0.5);
}

TEST(EdgeBch, FullLengthCode) {
  // data + parity exactly fills 2^m - 1 (no shortening slack).
  const ecc::BchCode code(8, 4, 255 - 32);
  ASSERT_EQ(code.codeword_bits(), 255);
  Rng rng(2);
  ecc::BitVec data(code.data_bits());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next() & 1);
  auto word = code.encode(data);
  word[0] ^= 1;
  word[200] ^= 1;
  const auto result = code.decode(word);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.data, data);
}

TEST(EdgeBch, MinimalPayload) {
  const ecc::BchCode code(13, 2, 1);
  const ecc::BitVec one_bit = {1};
  auto word = code.encode(one_bit);
  word[0] ^= 1;
  const auto result = code.decode(word);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.data, one_bit);
}

TEST(EdgeEcc, ZeroRberNeverFails) {
  const ecc::EccModel ecc{ecc::EccConfig::paper_provisioning()};
  EXPECT_DOUBLE_EQ(ecc.page_failure_prob(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ecc.expected_errors(0.0), 0.0);
}

TEST(EdgeRandomizer, EmptySpanIsNoop) {
  const nand::Randomizer r;
  std::vector<std::uint8_t> empty;
  r.apply(0, 0, empty);  // Must not crash.
  EXPECT_TRUE(empty.empty());
}

TEST(EdgeHistogram, SingleBinTakesEverything) {
  Histogram h(0.0, 1.0, 1);
  h.add(-5);
  h.add(0.5);
  h.add(99);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_DOUBLE_EQ(h.mass(0), 1.0);
}

TEST(EdgeCsv, NewlineInCellQuoted) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("a\nb");
  EXPECT_EQ(out.str(), "\"a\nb\"\n");
}

TEST(EdgeSsd, EmptyDayStillDoesMaintenance) {
  const auto params = flash::FlashModelParams::default_2ynm();
  ssd::SsdConfig cfg;
  cfg.ftl.blocks = 32;
  cfg.ftl.pages_per_block = 16;
  cfg.ftl.overprovision = 0.25;
  cfg.ftl.gc_free_target = 2;
  test::AnalyticDrive drive(cfg, params, 1);
  host::Command write;
  write.kind = host::CommandKind::kWrite;
  for (std::uint64_t lpn = 0; lpn < 64; ++lpn) {
    write.lpn = lpn;
    drive.submit(write);
  }
  for (int day = 0; day < 10; ++day) drive.end_of_day();
  EXPECT_EQ(drive.ssd().stats().days, 10u);
  // Weekly refresh fired even with zero host traffic.
  EXPECT_GT(drive.ssd().ftl().stats().refreshes, 0u);
  EXPECT_TRUE(drive.ssd().ftl().check_invariants());
}

TEST(EdgeSsd, MultiPageCommandWrapsLogicalSpace) {
  const auto params = flash::FlashModelParams::default_2ynm();
  ssd::SsdConfig cfg;
  cfg.ftl.blocks = 32;
  cfg.ftl.pages_per_block = 16;
  cfg.ftl.overprovision = 0.25;
  cfg.ftl.gc_free_target = 2;
  test::AnalyticDrive drive(cfg, params, 2);
  const auto logical = drive.logical_pages();
  host::Command c;
  c.kind = host::CommandKind::kWrite;
  c.lpn = logical - 2;
  c.pages = 5;  // Crosses the end of the logical space.
  drive.submit(c);
  std::vector<host::Completion> done;
  ASSERT_EQ(drive.drain(&done), 1u);
  EXPECT_EQ(done[0].pages, 5u);
  EXPECT_EQ(drive.ssd().ftl().stats().host_writes, 5u);
  EXPECT_TRUE(drive.ssd().ftl().check_invariants());
}

/// A small valid DriveSpec for each backend, sized so the Monte Carlo
/// chips stay cheap to construct.
cfg::DriveSpec tiny_drive(cfg::Backend backend) {
  cfg::DriveSpec drive;
  drive.backend = backend;
  drive.shards = 2;
  drive.blocks = drive.is_analytic() ? 32 : 2;
  drive.pages_per_block = 16;
  drive.overprovision = 0.25;
  drive.gc_free_target = 2;
  drive.wordlines_per_block = 4;
  drive.bitlines = 128;
  return drive;
}

TEST(EdgeDevice, NeverWrittenReadAndUnmappedTrimAreCleanOnAllBackends) {
  // A read of a never-written range and a trim of an unmapped range are
  // both legal no-op-ish commands: they must complete with kOk, zero
  // error pages, and a sane timeline on every backend. (The analytic FTL
  // serves unmapped reads from the mapping; the MC chips sense erased
  // cells, which carry no raw bit errors.)
  for (const cfg::Backend backend :
       {cfg::Backend::kAnalytic, cfg::Backend::kMcChip,
        cfg::Backend::kShardedMc, cfg::Backend::kShardedAnalytic}) {
    SCOPED_TRACE(cfg::backend_name(backend));
    const auto device = host::make_device(tiny_drive(backend), 7, 2);
    ASSERT_NE(device, nullptr);
    const std::uint64_t logical = device->logical_pages();

    host::Command read;
    read.kind = host::CommandKind::kRead;
    read.lpn = logical - 2;
    read.pages = 5;  // Wraps the logical space; still never written.
    device->submit(read);
    host::Command trim;
    trim.kind = host::CommandKind::kTrim;
    trim.lpn = logical / 2;
    trim.pages = 7;  // Nothing mapped there either.
    device->submit(trim);

    std::vector<host::Completion> done;
    ASSERT_EQ(device->drain(&done), 2u);
    for (const host::Completion& c : done) {
      EXPECT_EQ(c.status, host::Status::kOk) << host::to_string(c);
      EXPECT_EQ(c.error_pages, 0u);
      EXPECT_GE(c.complete_time_s, c.submit_time_s);
    }
    EXPECT_EQ(device->stats().error_pages(), 0u);
    EXPECT_EQ(device->stats().commands(host::Status::kOk), 2u);
    EXPECT_DOUBLE_EQ(device->stats().uber(8.0 * 4096), 0.0);
  }
}

TEST(EdgeRng, LargeBoundUniform) {
  Rng rng(3);
  const std::uint64_t bound = (1ULL << 63) + 12345;
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_u64(bound), bound);
}

TEST(EdgeGeometry, DerivedQuantities) {
  const nand::Geometry g{64, 8192, 2};
  EXPECT_EQ(g.pages_per_block(), 128u);
  EXPECT_EQ(g.cells_per_block(), 64ull * 8192);
  EXPECT_EQ(g.bits_per_block(), 2ull * 64 * 8192);
}

}  // namespace
}  // namespace rdsim
