// Tests for the NVMe-style queued host interface: command lifecycle,
// flush barriers, completion determinism across drain cadences, stall
// attribution, the monotone submit-stamp rule, CompletionStats
// percentiles, and the Monte Carlo backend.
#include "host/device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analytic_drive.h"
#include "host/chip_servicer.h"
#include "nand/chip.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::host {
namespace {

using test::AnalyticDrive;

/// A single Monte Carlo chip behind the queued interface.
Device chip_drive(const nand::Geometry& geometry, std::uint64_t seed) {
  return Device(std::make_unique<ChipServicer>(
      geometry, flash::FlashModelParams::default_2ynm(), seed,
      LatencyParams{}));
}

ssd::SsdConfig small_config() {
  ssd::SsdConfig cfg;
  cfg.ftl.blocks = 64;
  cfg.ftl.pages_per_block = 32;
  cfg.ftl.overprovision = 0.2;
  cfg.ftl.gc_free_target = 4;
  cfg.vpass_tuning = false;
  return cfg;
}

/// A mixed command stream with every kind, trims, and flushes.
std::vector<Command> mixed_stream(std::uint64_t logical, std::uint16_t queues,
                                  std::uint64_t seed) {
  workload::WorkloadProfile profile = workload::profile_by_name("postmark");
  profile.daily_page_ios = 30000;
  profile.trim_fraction = 0.1;
  profile.flush_period_s = 1800.0;
  workload::TraceGenerator gen(profile, logical, seed, queues);
  return gen.day_commands();
}

TEST(HostDevice, CompletionLogIdenticalAtAnyDrainCadence) {
  // The acceptance contract of the queued interface: for a fixed seed and
  // queue count, the completion records are byte-identical no matter how
  // often the host drains. Under FIFO the service order is id order, so a
  // sync point cannot move a record; each run's records are compared in
  // completion_log_order.
  const auto params = flash::FlashModelParams::default_2ynm();
  const std::uint16_t kQueues = 4;
  const auto stream =
      mixed_stream(small_config().ftl.logical_pages(), kQueues, 99);
  ASSERT_GT(stream.size(), 500u);

  // Cadence A: drain only at the very end. Cadence B: drain after every
  // submission. Cadence C: drain every 7 submissions. Each has a day
  // boundary in the middle.
  std::vector<std::string> logs;
  for (const int cadence : {0, 1, 7}) {
    AnalyticDrive device(small_config(), params, /*seed=*/5, kQueues);
    std::vector<Completion> got;
    std::size_t i = 0;
    for (const auto& c : stream) {
      device.submit(c);
      ++i;
      if (cadence > 0 && i % cadence == 0) device.drain(&got);
      if (i == stream.size() / 2) device.end_of_day();
    }
    device.drain(&got);
    std::sort(got.begin(), got.end(), completion_log_order);
    std::string log;
    for (const auto& rec : got) {
      log += to_string(rec);
      log += '\n';
    }
    logs.push_back(std::move(log));
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
  // And the log is non-trivial: every command completed exactly once.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(logs[0].begin(), logs[0].end(), '\n')),
            stream.size());
}

TEST(HostDevice, FlushIsABarrier) {
  const auto params = flash::FlashModelParams::default_2ynm();
  AnalyticDrive device(small_config(), params, 1, /*queue_count=*/2);
  Command write;
  write.kind = CommandKind::kWrite;
  write.pages = 4;
  write.queue = 0;
  device.submit(write);
  Command flush;
  flush.kind = CommandKind::kFlush;
  flush.queue = 1;  // A barrier even across queues.
  device.submit(flush);
  Command read;
  read.kind = CommandKind::kRead;
  read.queue = 0;
  device.submit(read);
  std::vector<Completion> done;
  ASSERT_EQ(device.drain(&done), 3u);
  EXPECT_EQ(done[1].kind, CommandKind::kFlush);
  // The flush completes no earlier than the write before it, and the read
  // after it starts no earlier than the flush completed.
  EXPECT_GE(done[1].complete_time_s, done[0].complete_time_s);
  EXPECT_GE(done[2].service_start_s, done[1].complete_time_s);
}

TEST(HostDevice, QueueIdsAreTakenModuloQueueCount) {
  const auto params = flash::FlashModelParams::default_2ynm();
  AnalyticDrive device(small_config(), params, 1, /*queue_count=*/2);
  Command c;
  c.kind = CommandKind::kRead;
  c.queue = 7;  // Routed to 7 % 2 == 1.
  device.submit(c);
  std::vector<Completion> done;
  ASSERT_EQ(device.drain(&done), 1u);
  EXPECT_EQ(done[0].queue, 1u);
}

TEST(HostDevice, OutstandingTracksSubmitMinusDelivered) {
  // stats() services every queued command but delivers none; only
  // drain() hands records out.
  const auto params = flash::FlashModelParams::default_2ynm();
  AnalyticDrive device(small_config(), params, 1);
  Command c;
  c.kind = CommandKind::kRead;
  for (int i = 0; i < 5; ++i) {
    c.submit_time_s = i;
    device.submit(c);
  }
  EXPECT_EQ(device.outstanding(), 5u);
  EXPECT_EQ(device.stats().commands(), 5u);
  EXPECT_EQ(device.outstanding(), 5u);
  std::vector<Completion> got;
  EXPECT_EQ(device.drain(&got), 5u);
  EXPECT_EQ(device.outstanding(), 0u);
}

TEST(HostDevice, OlderSubmitStampIsClampedAndCounted) {
  // Background-window pruning assumes submit stamps never decrease, so
  // submit() clamps an older stamp up to the newest one seen and counts
  // it.
  const auto params = flash::FlashModelParams::default_2ynm();
  AnalyticDrive device(small_config(), params, 1);
  Command c;
  c.kind = CommandKind::kRead;
  for (const double t : {1.0, 0.5, 1.0, 2.0}) {
    c.submit_time_s = t;
    device.submit(c);
  }
  EXPECT_EQ(device.clamped_submits(), 1u);  // Only 0.5; ties are fine.
  std::vector<Completion> got;
  ASSERT_EQ(device.drain(&got), 4u);
  EXPECT_EQ(got[1].id, 1u);
  EXPECT_EQ(got[1].submit_time_s, 1.0);
  EXPECT_GE(got[1].service_start_s, got[0].complete_time_s);
  EXPECT_EQ(got[3].submit_time_s, 2.0);
  for (const auto& rec : got) EXPECT_GE(rec.latency_s(), 0.0);
}

TEST(HostDevice, BackgroundStallIsAttributed) {
  // Drive enough churn that inline GC fires; the write that triggered it
  // must carry the stall, and followers waiting on the reservation are
  // attributed too.
  const auto params = flash::FlashModelParams::default_2ynm();
  AnalyticDrive device(small_config(), params, 3);
  Command write;
  write.kind = CommandKind::kWrite;
  Rng rng(17);
  const std::uint64_t logical = device.logical_pages();
  for (int i = 0; i < 12000; ++i) {
    write.lpn = rng.uniform_u64(logical);
    device.submit(write);
  }
  std::vector<Completion> done;
  device.drain(&done);
  double max_stall = 0.0;
  for (const auto& rec : done) max_stall = std::max(max_stall, rec.stall_s);
  EXPECT_GT(max_stall, 0.0);
  EXPECT_GT(device.stats().stall_seconds(), 0.0);
}

TEST(CompletionStats, PercentilesAndThroughput) {
  CompletionStats stats;
  // 100 reads: 99 at 100 us, one straggler at 10 ms.
  for (int i = 0; i < 100; ++i) {
    Completion c;
    c.kind = CommandKind::kRead;
    c.submit_time_s = i;
    c.service_start_s = i;
    c.complete_time_s = i + (i == 99 ? 10e-3 : 100e-6);
    stats.add(c);
  }
  EXPECT_EQ(stats.commands(CommandKind::kRead), 100u);
  // p50 lands in the 100 us population, p999 in the straggler.
  EXPECT_NEAR(stats.latency_quantile_s(CommandKind::kRead, 0.50), 100e-6,
              5e-6);
  EXPECT_NEAR(stats.latency_quantile_s(CommandKind::kRead, 0.999), 10e-3,
              5e-6);
  EXPECT_NEAR(stats.max_latency_s(CommandKind::kRead), 10e-3, 1e-12);
  const double mean = stats.mean_latency_s(CommandKind::kRead);
  EXPECT_GT(mean, 100e-6);
  EXPECT_LT(mean, 10e-3);
  EXPECT_GT(stats.iops(), 0.0);
}

TEST(CompletionStats, LatencyBeyondHistogramClampsToCeiling) {
  CompletionStats stats;
  Completion c;
  c.kind = CommandKind::kWrite;
  c.complete_time_s = 5.0;  // Far past the 250 ms histogram range.
  stats.add(c);
  EXPECT_DOUBLE_EQ(stats.latency_quantile_s(CommandKind::kWrite, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(stats.max_latency_s(CommandKind::kWrite), 5.0);
}

TEST(ChipDrive, QueuedReadsObserveDisturbErrors) {
  // Reads through the queued interface sense real cells: on a worn chip,
  // hammering pages raises the observed raw bit error count.
  Device device = chip_drive(nand::Geometry::tiny(), 3);
  nand::Chip& chip = device.shard_chip(0);
  for (std::size_t b = 0; b < chip.block_count(); ++b) {
    chip.block(b).erase();
    chip.block(b).add_wear(8000);
    chip.block(b).program_random();
  }
  Command read;
  read.kind = CommandKind::kRead;
  read.lpn = 1;  // MSB page of wordline 0 — the disturb-sensitive page.
  std::vector<Completion> done;
  device.submit(read);
  device.drain(&done);
  const std::uint64_t errors_fresh = device.read_bit_errors();

  // A million disturbs later the same page reads back much dirtier.
  chip.block(0).apply_reads(1, 1e6);
  device.submit(read);
  device.drain(&done);
  EXPECT_GT(device.read_bit_errors(), errors_fresh + 10);
  EXPECT_EQ(device.pages_read(), 2u);
}

TEST(ChipDrive, WritesTurnOverBlocksAndClearDisturb) {
  const nand::Geometry geometry = nand::Geometry::tiny();
  Device device = chip_drive(geometry, 4);
  nand::Chip& chip = device.shard_chip(0);
  chip.block(0).apply_reads(1, 5e5);
  const double dose_before = chip.block(0).dose();
  EXPECT_GT(dose_before, 0.0);
  // A block's worth of writes to block 0 forces its erase + reprogram.
  Command write;
  write.kind = CommandKind::kWrite;
  write.lpn = 0;
  write.pages = geometry.pages_per_block();
  device.submit(write);
  std::vector<Completion> done;
  device.drain(&done);
  EXPECT_EQ(device.block_rewrites(), 1u);
  EXPECT_EQ(chip.block(0).dose(), 0.0);
  EXPECT_GT(done[0].stall_s, 0.0);  // The erase is charged as a stall.
}

TEST(ChipDrive, LogicalSpaceCoversWholeChip) {
  const nand::Geometry geometry = nand::Geometry::tiny();
  Device device = chip_drive(geometry, 5);
  EXPECT_EQ(device.logical_pages(),
            static_cast<std::uint64_t>(geometry.blocks) *
                geometry.pages_per_block());
  // Reading every page touches every block without faulting.
  Command read;
  read.kind = CommandKind::kRead;
  read.lpn = 0;
  read.pages = static_cast<std::uint32_t>(device.logical_pages());
  device.submit(read);
  std::vector<Completion> done;
  device.drain(&done);
  EXPECT_EQ(device.pages_read(), device.logical_pages());
}

}  // namespace
}  // namespace rdsim::host
