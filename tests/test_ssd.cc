// Tests for the whole-drive simulator and its daily maintenance loop,
// driven through the queued host::Device interface.
#include "ssd/ssd.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "analytic_drive.h"
#include "common/rng.h"
#include "ecc/ecc_model.h"
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

TEST(Ssd, ReadVerdictMemoMatchesDirectEvaluation) {
  // Ssd::service takes a read's uncorrectable verdict from a per-block
  // memo. Every 1-page read must report exactly the verdict evaluated
  // here from block_worst_rber: across GC erases and block reallocation
  // inside a day, trims, Vpass Tuning, several nights, and a mid-day
  // restore of another drive's state into a drive whose memo holds its
  // own history.
  const auto params = flash::FlashModelParams::default_2ynm();
  // A small drive wears a few P/E cycles a day, and a worst-page factor
  // far above the physical 1.3 puts its blocks on both sides of the ECC
  // capability within days.
  SsdConfig cfg = small_config(/*tuning=*/true);
  cfg.ftl.blocks = 32;
  cfg.ftl.pages_per_block = 8;
  cfg.ftl.overprovision = 0.25;
  cfg.worst_page_factor = 5e4;
  const double capability = ecc::EccModel(cfg.ecc).rber_capability();
  const std::uint64_t logical = cfg.ftl.logical_pages();
  Ssd ssd(cfg, params, 21);
  Ssd other(cfg, params, 22);
  host::Command fill;
  fill.kind = host::CommandKind::kWrite;
  fill.pages = static_cast<std::uint32_t>(logical);
  for (Ssd* drive : {&ssd, &other}) drive->service(fill);

  std::uint64_t reads = 0, uncorrectable = 0;
  // One random 1-page command. Half the reads hit a hot eighth of the
  // space; the rest land anywhere, so some blocks go days unread.
  const auto step = [&](Ssd& drive, Rng& rng) {
    host::Command c;
    c.pages = 1;
    const double u = rng.uniform();
    if (u < 0.6) {
      c.kind = host::CommandKind::kRead;
      c.lpn = rng.uniform_u64(u < 0.3 ? logical / 8 : logical);
      ftl::Ftl probe = drive.ftl();  // Leaves the drive's read counts alone.
      const std::uint32_t b = probe.read(c.lpn);
      const bool expected = b != ftl::Ftl::kUnmappedBlock &&
                            drive.block_worst_rber(b) > capability;
      const bool got =
          drive.service(c).status == host::Status::kUncorrectable;
      EXPECT_EQ(got, expected) << "read " << reads << " of lpn " << c.lpn;
      ++reads;
      uncorrectable += got ? 1 : 0;
      return;
    }
    c.kind = u < 0.95 ? host::CommandKind::kWrite : host::CommandKind::kTrim;
    c.lpn = rng.uniform_u64(logical);
    drive.service(c);
  };

  constexpr int kSteps = 3000;
  Rng rng(77), other_rng(78);
  for (int day = 0; day < 6; ++day) {
    const std::uint64_t erases = ssd.ftl().stats().gc_erases;
    for (int i = 0; i < kSteps; ++i) {
      step(ssd, rng);
      if (day <= 3) step(other, other_rng);
      if (day == 3 && i == kSteps / 2) {
        ASSERT_TRUE(ssd.restore(other.snapshot()));
      }
    }
    EXPECT_GT(ssd.ftl().stats().gc_erases, erases) << "day " << day;
    ssd.end_of_day();
    other.end_of_day();
  }
  EXPECT_GT(ssd.stats().tuned_block_days, 0u);
  // Both verdicts occur, so the comparison covers each.
  EXPECT_GT(uncorrectable, 0u);
  EXPECT_LT(uncorrectable, reads);
}

/// The inputs of block b's worst-page RBER that the read-verdict memo
/// keys on, in a fixed order.
constexpr std::array<const char*, 5> kVerdictKey = {
    "pe_cycles", "program_day", "now_days", "vpass", "disturb_rber"};

std::array<double, 5> verdict_key(const Ssd& ssd, std::uint32_t b) {
  const ftl::BlockInfo& info = ssd.ftl().block(b);
  return {static_cast<double>(info.pe_cycles), info.program_day,
          ssd.ftl().now_days(), info.vpass, ssd.block_disturb_rber(b)};
}

bool holds_data(const Ssd& ssd, std::uint32_t b) {
  const ftl::BlockInfo& info = ssd.ftl().block(b);
  return info.state != ftl::BlockInfo::State::kFree && info.valid_pages > 0;
}

/// An lpn that `ssd` maps into block b, looked up on a copy of its FTL so
/// the drive's read counts stay untouched.
std::uint64_t lpn_in_block(const Ssd& ssd, std::uint32_t b) {
  ftl::Ftl probe = ssd.ftl();
  for (std::uint64_t lpn = 0; lpn < ssd.config().ftl.logical_pages(); ++lpn)
    if (probe.read(lpn) == b) return lpn;
  ADD_FAILURE() << "no lpn maps into block " << b;
  return 0;
}

/// Checks the read-verdict memo against two states of a drive that
/// differ, for some block holding data in both, in the memo key's field
/// `field` alone. One drive reads a page of that block in state `first`,
/// which fills the memo, then is restored to `second` and reads again.
/// Its worst-page factor puts the ECC capability midway between the
/// block's worst RBER in the two states, so the verdicts differ and a
/// memo whose key missed `field` would repeat the first.
void expect_memo_follows(const Ssd& first, const Ssd& second,
                         std::size_t field) {
  SCOPED_TRACE(kVerdictKey[field]);
  std::uint32_t b = 0;
  for (; b < first.config().ftl.blocks; ++b) {
    if (!holds_data(first, b) || !holds_data(second, b)) continue;
    const auto x = verdict_key(first, b), y = verdict_key(second, b);
    std::size_t differing = 0;
    for (std::size_t f = 0; f < x.size(); ++f) differing += x[f] != y[f];
    if (differing == 1 && x[field] != y[field]) break;
  }
  ASSERT_LT(b, first.config().ftl.blocks)
      << "no block differs in this field alone";

  const auto params = flash::FlashModelParams::default_2ynm();
  const std::vector<std::uint8_t> states[2] = {first.snapshot(),
                                               second.snapshot()};
  const auto drive_at = [&](double factor) {
    SsdConfig cfg = first.config();
    cfg.worst_page_factor = factor;
    return Ssd(cfg, params);
  };
  // The worst-page RBER is affine in the factor: r = factor * s + p.
  double slope[2], offset[2];
  for (int i = 0; i < 2; ++i) {
    Ssd one = drive_at(1.0), two = drive_at(2.0);
    ASSERT_TRUE(one.restore(states[i]));
    ASSERT_TRUE(two.restore(states[i]));
    slope[i] = two.block_worst_rber(b) - one.block_worst_rber(b);
    offset[i] = one.block_worst_rber(b) - slope[i];
  }
  const double capability =
      ecc::EccModel(first.config().ecc).rber_capability();
  const double factor = (2.0 * capability - offset[0] - offset[1]) /
                        (slope[0] + slope[1]);
  ASSERT_GT(factor, 0.0);

  Ssd drive = drive_at(factor);
  bool verdicts[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(drive.restore(states[i]));
    host::Command read;
    read.kind = host::CommandKind::kRead;
    read.lpn = lpn_in_block(drive, b);
    const bool expected = drive.block_worst_rber(b) > capability;
    verdicts[i] =
        drive.service(read).status == host::Status::kUncorrectable;
    EXPECT_EQ(verdicts[i], expected) << "state " << i << ", block " << b;
  }
  EXPECT_NE(verdicts[0], verdicts[1]);
}

TEST(Ssd, ReadVerdictMemoFollowsEachKeyFieldAlone) {
  // Pairs of drive histories whose states differ, for some block, in one
  // input of the read verdict only. Tuning is off unless it is the
  // difference, and nothing is read unless reads are, so no other input
  // moves.
  const auto params = flash::FlashModelParams::default_2ynm();
  SsdConfig cfg = small_config(/*tuning=*/false);
  cfg.ftl.blocks = 32;
  cfg.ftl.pages_per_block = 8;
  cfg.ftl.overprovision = 0.25;
  host::Command fill;
  fill.kind = host::CommandKind::kWrite;
  fill.pages = static_cast<std::uint32_t>(cfg.ftl.logical_pages());
  const auto nights = [](Ssd& ssd, int n) {
    for (int i = 0; i < n; ++i) ssd.end_of_day();
  };

  {  // pe_cycles: the same data, rewritten through GC on the same day.
    Ssd once(cfg, params), worn(cfg, params);
    once.service(fill);
    for (int pass = 0; pass < 6; ++pass) worn.service(fill);
    expect_memo_follows(once, worn, 0);
  }
  {  // program_day: the fill lands on day 0 or on day 2, read on day 2.
    Ssd early(cfg, params), late(cfg, params);
    early.service(fill);
    nights(early, 2);
    nights(late, 2);
    late.service(fill);
    expect_memo_follows(early, late, 1);
  }
  {  // now_days: one data set, one night older.
    Ssd young(cfg, params), old(cfg, params);
    for (Ssd* ssd : {&young, &old}) ssd->service(fill);
    nights(young, 1);
    nights(old, 2);
    expect_memo_follows(young, old, 2);
  }
  {  // vpass: one night with and without Vpass Tuning.
    SsdConfig tuned_cfg = cfg;
    tuned_cfg.vpass_tuning = true;
    Ssd nominal(cfg, params), tuned(tuned_cfg, params);
    for (Ssd* ssd : {&nominal, &tuned}) {
      ssd->service(fill);
      nights(*ssd, 1);
    }
    expect_memo_follows(nominal, tuned, 3);
  }
  {  // disturb_rber: one night with and without reads of the whole space.
    Ssd quiet(cfg, params), read(cfg, params);
    for (Ssd* ssd : {&quiet, &read}) ssd->service(fill);
    host::Command reads = fill;
    reads.kind = host::CommandKind::kRead;
    for (int pass = 0; pass < 2000; ++pass) read.service(reads);
    nights(quiet, 1);
    nights(read, 1);
    expect_memo_follows(quiet, read, 4);
  }
}

}  // namespace
}  // namespace rdsim::ssd
