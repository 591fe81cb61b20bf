// Tests for the SSD's time accounting — its agreement with the paper's
// §4 overhead arithmetic, and the queued interface's per-command latency
// and stall attribution on top of it.
#include <gtest/gtest.h>

#include "analytic_drive.h"
#include "core/overheads.h"
#include "host/driver.h"
#include "ssd/ssd.h"

namespace rdsim::ssd {
namespace {

SsdConfig tiny_config(bool tuning) {
  SsdConfig cfg;
  cfg.ftl.blocks = 64;
  cfg.ftl.pages_per_block = 32;
  cfg.ftl.overprovision = 0.2;
  cfg.ftl.gc_free_target = 4;
  cfg.vpass_tuning = tuning;
  return cfg;
}

std::vector<host::Command> mixed_day(std::uint64_t logical, int n,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<host::Command> day(n);
  for (int i = 0; i < n; ++i) {
    day[i].submit_time_s = i;
    day[i].kind = rng.bernoulli(0.3) ? host::CommandKind::kWrite
                                     : host::CommandKind::kRead;
    day[i].lpn = rng.uniform_u64(logical);
    day[i].pages = 1;
  }
  return day;
}

void fill(test::AnalyticDrive& drive) { host::warm_fill(drive); }

void run_day(test::AnalyticDrive& drive, const std::vector<host::Command>& day) {
  for (const auto& c : day) drive.submit(c);
  std::vector<host::Completion> done;
  drive.drain(&done);
  drive.end_of_day();
}

TEST(SsdLatency, HostIoSecondsMatchArithmetic) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(tiny_config(false), params, 1);
  host::Command c;
  c.lpn = 0;
  c.pages = 10;
  c.kind = host::CommandKind::kWrite;
  drive.submit(c);
  c.kind = host::CommandKind::kRead;
  drive.submit(c);
  std::vector<host::Completion> done;
  EXPECT_EQ(drive.drain(&done), 2u);
  const auto& latency = drive.ssd().config().latency;
  EXPECT_NEAR(drive.ssd().stats().host_io_seconds,
              10 * latency.program_s + 10 * latency.read_s, 1e-12);
  // Per-command completion records carry the same arithmetic: the write
  // occupies the flash first, the read queues behind it.
  EXPECT_NEAR(done[0].latency_s(), 10 * latency.program_s, 1e-12);
  EXPECT_NEAR(done[1].complete_time_s,
              10 * latency.program_s + 10 * latency.read_s, 1e-12);
  EXPECT_NEAR(done[1].queue_wait_s(), 10 * latency.program_s, 1e-12);
}

TEST(SsdLatency, BackgroundTimeAppearsUnderChurn) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(tiny_config(false), params, 2);
  const auto logical = drive.logical_pages();
  fill(drive);
  for (int day = 0; day < 10; ++day)
    run_day(drive, mixed_day(logical, 4000, 10 + day));
  // GC + weekly refresh must have produced background busy time, and the
  // inline-GC share of it must surface as write-command stall.
  EXPECT_GT(drive.ssd().stats().background_seconds, 0.0);
  EXPECT_GT(drive.stats().stall_seconds(), 0.0);
}

TEST(SsdLatency, TuningProbeTimeOnlyWhenEnabled) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive tuned(tiny_config(true), params, 3);
  test::AnalyticDrive base(tiny_config(false), params, 3);
  for (auto* d : {&tuned, &base}) {
    const auto logical = d->logical_pages();
    fill(*d);
    for (int day = 0; day < 3; ++day)
      run_day(*d, mixed_day(logical, 1000, 20 + day));
  }
  EXPECT_GT(tuned.ssd().stats().tuning_probe_seconds, 0.0);
  EXPECT_DOUBLE_EQ(base.ssd().stats().tuning_probe_seconds, 0.0);
  EXPECT_GT(tuned.ssd().stats().tuning_seconds_per_day(), 0.0);
}

TEST(SsdLatency, MaintenanceReservesFlashTimeline) {
  // end_of_day() must push the device's flash timeline forward by the
  // maintenance busy time, so the next day's commands observe the stall.
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(tiny_config(true), params, 5);
  fill(drive);
  run_day(drive, mixed_day(drive.logical_pages(), 1000, 40));
  const double before = drive.now_s();
  drive.end_of_day();  // Another maintenance pass: tuning probes at least.
  EXPECT_GT(drive.now_s(), before);
}

TEST(SsdLatency, PerBlockProbeCostConsistentWithOverheadModel) {
  // The replayed per-block-per-day probe cost must land near the §4
  // overhead model's assumption (1 MEE read + ~1.5 step probes).
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(tiny_config(true), params, 4);
  const auto logical = drive.logical_pages();
  fill(drive);
  for (int day = 0; day < 5; ++day)
    run_day(drive, mixed_day(logical, 1000, 30 + day));
  const double per_block_day =
      drive.ssd().stats().tuning_probe_seconds /
      static_cast<double>(drive.ssd().stats().tuned_block_days) /
      drive.ssd().config().latency.read_s;
  // Between 1 (MEE only) and ~12 probes per block-day.
  EXPECT_GE(per_block_day, 1.0);
  EXPECT_LE(per_block_day, 12.0);
}

TEST(SsdLatency, OverheadModelScalesFromReplay) {
  // Cross-check: the closed-form 512 GB overhead equals per-block probe
  // reads x block count x tR.
  core::SsdShape shape;
  const auto report = core::vpass_tuning_overheads(shape);
  EXPECT_NEAR(report.daily_seconds,
              static_cast<double>(report.blocks) *
                  shape.probe_reads_per_block * shape.page_read_seconds,
              1e-9);
}

}  // namespace
}  // namespace rdsim::ssd
