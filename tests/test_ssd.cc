// Tests for the whole-drive simulator and its daily maintenance loop,
// driven through the queued host::Device interface.
#include "ssd/ssd.h"

#include <gtest/gtest.h>

#include "analytic_drive.h"
#include "host/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::ssd {
namespace {

SsdConfig small_config(bool tuning) {
  SsdConfig cfg;
  cfg.ftl.blocks = 64;
  cfg.ftl.pages_per_block = 32;
  cfg.ftl.overprovision = 0.2;
  cfg.ftl.gc_free_target = 4;
  cfg.vpass_tuning = tuning;
  return cfg;
}

void fill(test::AnalyticDrive& drive) { host::warm_fill(drive); }

std::vector<workload::IoRequest> synthetic_day(std::uint64_t logical,
                                               int requests, double read_frac,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<workload::IoRequest> day;
  day.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    workload::IoRequest r;
    r.time_s = i;
    r.is_write = !rng.bernoulli(read_frac);
    // Concentrate reads on a small hot range.
    r.lpn = r.is_write ? rng.uniform_u64(logical)
                       : rng.uniform_u64(logical / 64);
    r.pages = 1;
    day.push_back(r);
  }
  return day;
}

/// Replays one day of requests through the device and runs the nightly
/// maintenance (the old Ssd::run_day, now via the queued interface).
void run_day(test::AnalyticDrive& drive,
             const std::vector<workload::IoRequest>& day) {
  for (const auto& c : workload::to_commands(day)) drive.submit(c);
  std::vector<host::Completion> done;
  drive.drain(&done);
  drive.end_of_day();
}

TEST(Ssd, HostCountersMatchSubmittedPages) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 1);
  fill(drive);
  const auto writes_before = drive.ssd().ftl().stats().host_writes;
  host::Command c;
  c.lpn = 0;
  c.pages = 5;
  c.kind = host::CommandKind::kWrite;
  drive.submit(c);
  c.kind = host::CommandKind::kRead;
  drive.submit(c);
  std::vector<host::Completion> done;
  EXPECT_EQ(drive.drain(&done), 2u);
  EXPECT_EQ(drive.ssd().ftl().stats().host_writes, writes_before + 5);
  EXPECT_EQ(drive.ssd().ftl().stats().host_reads, 5u);
}

TEST(Ssd, TrimCommandUnmapsPages) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 12);
  fill(drive);
  const auto logical = drive.logical_pages();
  // Trim half of the logical space, then churn: GC never needs to move
  // the trimmed pages, and reads of trimmed space miss the mapping.
  host::Command trim;
  trim.kind = host::CommandKind::kTrim;
  trim.lpn = 0;
  trim.pages = static_cast<std::uint32_t>(logical / 2);
  drive.submit(trim);
  std::vector<host::Completion> done;
  drive.drain(&done);
  EXPECT_EQ(drive.ssd().ftl().stats().host_trims, logical / 2);
  EXPECT_TRUE(drive.ssd().ftl().check_invariants());
  // Exactly the untrimmed half remains mapped.
  std::uint64_t valid = 0;
  for (std::uint32_t b = 0; b < drive.ssd().ftl().block_count(); ++b)
    valid += drive.ssd().ftl().block(b).valid_pages;
  EXPECT_EQ(valid, logical - logical / 2);
  run_day(drive, synthetic_day(logical, 2000, 0.3, 7));
  EXPECT_TRUE(drive.ssd().ftl().check_invariants());
}

TEST(Ssd, RunDayAdvancesClockAndStats) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 2);
  fill(drive);
  const auto logical = drive.logical_pages();
  run_day(drive, synthetic_day(logical, 2000, 0.7, 3));
  EXPECT_EQ(drive.ssd().stats().days, 1u);
  EXPECT_DOUBLE_EQ(drive.ssd().ftl().now_days(), 1.0);
}

TEST(Ssd, RefreshBoundsDataAge) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 4);
  fill(drive);
  const auto logical = drive.logical_pages();
  for (int day = 0; day < 20; ++day)
    run_day(drive, synthetic_day(logical, 500, 0.9, day));
  // After the refresh interval, no block's data may be older than the
  // interval plus one maintenance day.
  const auto& ftl = drive.ssd().ftl();
  for (std::uint32_t b = 0; b < ftl.block_count(); ++b) {
    const auto& info = ftl.block(b);
    if (info.state == ftl::BlockInfo::State::kFree || info.valid_pages == 0)
      continue;
    EXPECT_LE(ftl.now_days() - info.program_day,
              ftl.config().refresh_interval_days + 1.0);
  }
}

TEST(Ssd, TuningLowersVpassOnDataBlocks) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(true), params, 5);
  fill(drive);
  const auto logical = drive.logical_pages();
  for (int day = 0; day < 3; ++day)
    run_day(drive, synthetic_day(logical, 2000, 0.8, 50 + day));
  EXPECT_GT(drive.ssd().stats().mean_vpass_reduction_pct(), 0.5);
  // Every tuned Vpass must stay in the device envelope.
  const auto& ftl = drive.ssd().ftl();
  for (std::uint32_t b = 0; b < ftl.block_count(); ++b) {
    const auto& info = ftl.block(b);
    EXPECT_LE(info.vpass, params.vpass_nominal);
    EXPECT_GE(info.vpass, params.vpass_nominal * 0.90);
  }
}

TEST(Ssd, BaselineKeepsNominalVpass) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 6);
  fill(drive);
  const auto logical = drive.logical_pages();
  for (int day = 0; day < 3; ++day)
    run_day(drive, synthetic_day(logical, 1000, 0.8, 60 + day));
  EXPECT_DOUBLE_EQ(drive.ssd().stats().mean_vpass_reduction_pct(), 0.0);
  for (std::uint32_t b = 0; b < drive.ssd().ftl().block_count(); ++b)
    EXPECT_DOUBLE_EQ(drive.ssd().ftl().block(b).vpass, params.vpass_nominal);
}

TEST(Ssd, DisturbAccumulatesOnReadHotBlocks) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 7);
  fill(drive);
  const auto logical = drive.logical_pages();
  for (int day = 0; day < 2; ++day)
    run_day(drive, synthetic_day(logical, 5000, 0.95, 70 + day));
  double max_disturb = 0;
  for (std::uint32_t b = 0; b < drive.ssd().ftl().block_count(); ++b)
    max_disturb = std::max(max_disturb, drive.ssd().block_disturb_rber(b));
  EXPECT_GT(max_disturb, 0.0);
  EXPECT_GT(drive.ssd().max_reads_per_interval(), 100u);
}

TEST(Ssd, EpochResetClearsDisturbState) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(false), params, 8);
  fill(drive);
  const auto logical = drive.logical_pages();
  // Read-heavy days, then enough time for every block to be refreshed.
  for (int day = 0; day < 2; ++day)
    run_day(drive, synthetic_day(logical, 5000, 0.95, 80 + day));
  for (int day = 0; day < 9; ++day) run_day(drive, {});
  // After refresh, accumulated disturb must have been reset along with
  // the block epoch (fresh data has no disturb history).
  const auto& ftl = drive.ssd().ftl();
  for (std::uint32_t b = 0; b < ftl.block_count(); ++b) {
    const auto& info = ftl.block(b);
    if (info.state == ftl::BlockInfo::State::kFree) continue;
    const double age = ftl.now_days() - info.program_day;
    if (age < 1.0) {
      EXPECT_LT(drive.ssd().block_disturb_rber(b), 1e-5);
    }
  }
}

TEST(Ssd, WorstRberSaneAndBounded) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive drive(small_config(true), params, 9);
  fill(drive);
  const auto logical = drive.logical_pages();
  for (int day = 0; day < 5; ++day)
    run_day(drive, synthetic_day(logical, 2000, 0.7, 90 + day));
  const double rber = drive.ssd().max_worst_rber();
  EXPECT_GT(rber, 0.0);
  EXPECT_LT(rber, 1e-3);  // Young, lightly-worn drive far from capability.
  EXPECT_EQ(drive.ssd().stats().uncorrectable_page_events, 0u);
}

TEST(Ssd, TuningReducesAccumulatedDisturb) {
  const auto params = flash::FlashModelParams::default_2ynm();
  test::AnalyticDrive tuned(small_config(true), params, 10);
  test::AnalyticDrive baseline(small_config(false), params, 10);
  for (auto* d : {&tuned, &baseline}) fill(*d);
  const auto logical = tuned.logical_pages();
  for (int day = 0; day < 6; ++day) {
    const auto requests = synthetic_day(logical, 4000, 0.95, 100 + day);
    run_day(tuned, requests);
    run_day(baseline, requests);
  }
  double tuned_max = 0, base_max = 0;
  for (std::uint32_t b = 0; b < tuned.ssd().ftl().block_count(); ++b) {
    tuned_max = std::max(tuned_max, tuned.ssd().block_disturb_rber(b));
    base_max = std::max(base_max, baseline.ssd().block_disturb_rber(b));
  }
  EXPECT_LT(tuned_max, base_max);
}

TEST(Ssd, EndToEndWithGeneratedCommandStream) {
  const auto params = flash::FlashModelParams::default_2ynm();
  auto cfg = small_config(true);
  cfg.ftl.blocks = 128;
  test::AnalyticDrive drive(cfg, params, 11, /*queue_count=*/4);
  fill(drive);
  auto profile = workload::profile_by_name("fiu-web-vm");
  profile.daily_page_ios = 20000;  // Scale to the tiny test drive.
  profile.trim_fraction = 0.05;
  profile.flush_period_s = 3600.0;
  workload::TraceGenerator gen(profile, drive.logical_pages(), 123,
                               drive.queue_count());
  std::vector<host::Completion> done;
  for (int day = 0; day < 8; ++day) {
    for (const auto& c : gen.day_commands()) drive.submit(c);
    drive.drain(&done);
    drive.end_of_day();
    done.clear();
  }
  EXPECT_GT(drive.ssd().ftl().stats().host_reads, 10000u);
  EXPECT_GT(drive.ssd().ftl().stats().host_trims, 0u);
  EXPECT_TRUE(drive.ssd().ftl().check_invariants());
  EXPECT_GT(drive.ssd().stats().tuned_block_days, 0u);
  // Every command kind flowed through the queues.
  const auto& stats = drive.stats();
  EXPECT_GT(stats.commands(host::CommandKind::kRead), 0u);
  EXPECT_GT(stats.commands(host::CommandKind::kWrite), 0u);
  EXPECT_GT(stats.commands(host::CommandKind::kTrim), 0u);
  EXPECT_GT(stats.commands(host::CommandKind::kFlush), 0u);
}

}  // namespace
}  // namespace rdsim::ssd
