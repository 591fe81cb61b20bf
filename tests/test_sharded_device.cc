// Tests for host::Device as an N-chip striped Monte Carlo drive.
// The headline contracts, in the order the architecture doc states them
// (docs/ARCHITECTURE.md "Sharding and merge determinism"):
//   1. the merged completion log is byte-identical for any worker count;
//   2. the log is byte-identical across poll cadences (poll withholds
//      records whose position is not final; drain delivers everything);
//   3. the per-shard stall ledger sums to the device total;
//   4. flush is a cross-shard barrier;
//   5. striping is a pure function of the lpn and covers every chip;
//   6. a shard set that cannot be striped is rejected.
#include "host/device.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "host/chip_servicer.h"
#include "host/driver.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::host {
namespace {

/// `shards` Monte Carlo chips of `geometry`, chip s seeded with
/// Device::shard_seed(seed, s) — the shards of a sharded mc drive.
std::vector<std::unique_ptr<Servicer>> mc_shards(
    const nand::Geometry& geometry, const flash::FlashModelParams& params,
    std::uint64_t seed, std::uint32_t shards) {
  std::vector<std::unique_ptr<Servicer>> out;
  for (std::uint32_t s = 0; s < shards; ++s)
    out.push_back(std::make_unique<ChipServicer>(
        geometry, params, Device::shard_seed(seed, s), LatencyParams{}));
  return out;
}

/// A mixed command stream with every kind, trims, and flushes.
std::vector<Command> mixed_stream(std::uint64_t logical, std::uint16_t queues,
                                  std::uint64_t seed) {
  workload::WorkloadProfile profile = workload::profile_by_name("postmark");
  profile.daily_page_ios = 20000;
  profile.trim_fraction = 0.1;
  profile.flush_period_s = 1800.0;
  workload::TraceGenerator gen(profile, logical, seed, queues);
  return gen.day_commands();
}

std::string log_of(const std::vector<Completion>& records) {
  std::string log;
  for (const auto& rec : records) {
    log += to_string(rec);
    log += '\n';
  }
  return log;
}

/// Replays `stream` against a fresh device built by `make`, draining at
/// the end; returns the completion log.
template <typename MakeDevice>
std::string replay_log(MakeDevice&& make,
                       const std::vector<Command>& stream) {
  auto device = make();
  for (const auto& c : stream) device->submit(c);
  std::vector<Completion> got;
  device->drain(&got);
  return log_of(got);
}

TEST(ShardedChips, MergedLogIdenticalForAnyWorkerCount) {
  // The tentpole contract: worker threads decide only where a shard's
  // work runs, never what the schedule is — the merged log is
  // byte-identical at 1, 4, and 8 workers.
  const auto params = flash::FlashModelParams::default_2ynm();
  const nand::Geometry geometry = nand::Geometry::tiny();
  std::vector<std::string> logs;
  std::vector<Command> stream;
  for (const int workers : {1, 4, 8}) {
    auto make = [&] {
      return std::make_unique<Device>(
          mc_shards(geometry, params, /*seed=*/7, /*shards=*/4), workers,
          /*queue_count=*/4);
    };
    if (stream.empty())
      stream = mixed_stream(make()->logical_pages(), 4, /*seed=*/21);
    logs.push_back(replay_log(make, stream));
  }
  ASSERT_GT(stream.size(), 500u);
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
  // And the log is non-trivial: every command completed exactly once.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(logs[0].begin(), logs[0].end(), '\n')),
            stream.size());
}

TEST(ShardedChips, MergedLogIdenticalAtAnyPollCadence) {
  // Same contract as test_host.cc's, made non-trivial by the N
  // independent timelines: poll() withholds records that a future
  // submission could still displace in the (complete_time, id) order, so
  // any cadence of polls ending in one drain observes the same bytes.
  const auto params = flash::FlashModelParams::default_2ynm();
  const nand::Geometry geometry = nand::Geometry::tiny();
  std::vector<Command> stream;
  std::vector<std::string> logs;
  for (const int cadence : {0, 1, 7}) {
    Device device(mc_shards(geometry, params, /*seed=*/7, /*shards=*/4),
                  /*workers=*/2, /*queue_count=*/4);
    if (stream.empty())
      stream = mixed_stream(device.logical_pages(), 4, /*seed=*/21);
    std::vector<Completion> got;
    std::size_t i = 0;
    for (const auto& c : stream) {
      device.submit(c);
      ++i;
      if (cadence > 0 && i % cadence == 0)
        device.poll(&got, cadence == 1 ? 1 : 3);
      if (i == stream.size() / 2) device.end_of_day();
    }
    device.drain(&got);
    logs.push_back(log_of(got));
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
}

TEST(ShardedChips, PollWithholdsOnlyUnstableRecords) {
  // Delivered poll order must already be final: collect everything a
  // dense poll cadence delivers and check it is a prefix-consistent
  // (complete_time, id)-sorted sequence at every step.
  const auto params = flash::FlashModelParams::default_2ynm();
  Device device(mc_shards(nand::Geometry::tiny(), params, 3, /*shards=*/2),
                /*workers=*/1);
  const auto stream = mixed_stream(device.logical_pages(), 1, 5);
  std::vector<Completion> got;
  for (const auto& c : stream) {
    device.submit(c);
    device.poll(&got, 4);
  }
  device.drain(&got);
  ASSERT_EQ(got.size(), stream.size());
  for (std::size_t i = 1; i < got.size(); ++i) {
    const bool ordered =
        got[i - 1].complete_time_s < got[i].complete_time_s ||
        (got[i - 1].complete_time_s == got[i].complete_time_s &&
         got[i - 1].id < got[i].id);
    ASSERT_TRUE(ordered) << "log inversion at record " << i;
  }
}

TEST(ShardedChips, PerShardStallLedgerSumsToDeviceTotal) {
  const auto params = flash::FlashModelParams::default_2ynm();
  Device device(mc_shards(nand::Geometry::tiny(), params, 3, /*shards=*/4),
                /*workers=*/2, /*queue_count=*/4);
  const auto stream = mixed_stream(device.logical_pages(), 4, 17);
  for (const auto& c : stream) device.submit(c);
  const double total = device.stats().stall_seconds();
  EXPECT_GT(total, 0.0);
  double ledger = 0.0;
  for (std::uint32_t s = 0; s < device.shard_count(); ++s)
    ledger += device.shard_stall_seconds(s);
  // Same addends, different summation order (per-shard vs per-command).
  EXPECT_NEAR(ledger, total, 1e-9 * std::max(1.0, total));
}

TEST(ShardedChips, StripingIsRoundRobinAndCoversEveryChip) {
  const auto params = flash::FlashModelParams::default_2ynm();
  const nand::Geometry geometry = nand::Geometry::tiny();
  Device device(mc_shards(geometry, params, 5, /*shards=*/4), /*workers=*/1);
  EXPECT_EQ(device.logical_pages(),
            4ull * geometry.blocks * geometry.pages_per_block());
  for (std::uint64_t lpn = 0; lpn < 64; ++lpn) {
    EXPECT_EQ(device.shard_of(lpn), lpn % 4);
    EXPECT_EQ(device.local_lpn(lpn), lpn / 4);
  }
  // An ascending warm fill round-robins the shards evenly: every block
  // of every chip absorbs exactly one log-structured turnover — and the
  // reset_stats inside warm_fill clears the per-shard stall ledgers
  // together with the aggregate stats, so both start the measurement
  // window at zero.
  warm_fill(device);
  EXPECT_EQ(device.pages_written(), device.logical_pages());
  EXPECT_EQ(device.block_rewrites(), 4ull * geometry.blocks);
  EXPECT_DOUBLE_EQ(device.stats().stall_seconds(), 0.0);
  for (std::uint32_t s = 0; s < device.shard_count(); ++s)
    EXPECT_DOUBLE_EQ(device.shard_stall_seconds(s), 0.0);

  // A read spanning the whole logical space touches every chip.
  Command read;
  read.kind = CommandKind::kRead;
  read.pages = static_cast<std::uint32_t>(device.logical_pages());
  device.submit(read);
  std::vector<Completion> done;
  device.drain(&done);
  EXPECT_EQ(device.pages_read(), device.logical_pages());
  for (std::uint32_t s = 0; s < device.shard_count(); ++s)
    EXPECT_EQ(device.shard_pages_read(s), device.logical_pages() / 4);
}

TEST(ShardedChips, FlushIsACrossShardBarrier) {
  const auto params = flash::FlashModelParams::default_2ynm();
  Device device(mc_shards(nand::Geometry::tiny(), params, 1, /*shards=*/2),
                /*workers=*/1);
  // A fat write occupies shard 0 (even lpns); shard 1 stays idle.
  Command write;
  write.kind = CommandKind::kWrite;
  write.lpn = 0;
  write.pages = 8;  // lpns 0,2,4,.. on shard 0 and 1,3,5,.. on shard 1.
  device.submit(write);
  Command flush;
  flush.kind = CommandKind::kFlush;
  device.submit(flush);
  // A read striped to shard 1 only.
  Command read;
  read.kind = CommandKind::kRead;
  read.lpn = 1;
  read.pages = 1;
  device.submit(read);
  std::vector<Completion> done;
  ASSERT_EQ(device.drain(&done), 3u);
  // Sort order is (complete_time, id); find the records by kind.
  const Completion* f = nullptr;
  const Completion* w = nullptr;
  const Completion* r = nullptr;
  for (const auto& rec : done) {
    if (rec.kind == CommandKind::kFlush) f = &rec;
    if (rec.kind == CommandKind::kWrite) w = &rec;
    if (rec.kind == CommandKind::kRead) r = &rec;
  }
  ASSERT_TRUE(f != nullptr && w != nullptr && r != nullptr);
  // The flush completes no earlier than the write before it (which ran
  // on both shards), and the read after it — though its shard was idle —
  // starts no earlier than the barrier.
  EXPECT_GE(f->complete_time_s, w->complete_time_s);
  EXPECT_GE(r->service_start_s, f->complete_time_s);
}

TEST(ShardedChips, QueuedReadsObserveDisturbOnTheHammeredShardOnly) {
  // Disturb a single shard's chip; the error uptick must appear in that
  // shard's ledger and nowhere else.
  const auto params = flash::FlashModelParams::default_2ynm();
  Device device(mc_shards(nand::Geometry::tiny(), params, 3, /*shards=*/2),
                /*workers=*/1);
  for (std::uint32_t s = 0; s < device.shard_count(); ++s) {
    nand::Chip& chip = device.shard_chip(s);
    for (std::size_t b = 0; b < chip.block_count(); ++b) {
      chip.block(b).erase();
      chip.block(b).add_wear(8000);
      chip.block(b).program_random();
    }
  }
  // Global lpns 1 and 3 both live on shard 1 (block 0, wordlines 0-1).
  auto read_both = [&] {
    Command read;
    read.kind = CommandKind::kRead;
    read.lpn = 1;
    device.submit(read);
    read.lpn = 3;
    device.submit(read);
    std::vector<Completion> done;
    device.drain(&done);
  };
  read_both();
  const std::uint64_t fresh0 = device.shard_read_bit_errors(0);
  const std::uint64_t fresh1 = device.shard_read_bit_errors(1);
  device.shard_chip(1).block(0).apply_reads(1, 1e6);
  read_both();
  EXPECT_EQ(device.shard_read_bit_errors(0), fresh0);
  EXPECT_GT(device.shard_read_bit_errors(1), fresh1 + 10);
}

TEST(ShardedChips, ClosedLoopDriverReplaysAtDepth) {
  // The reworked driver must keep a sharded device busy at depth > 1 and
  // leave nothing in flight afterwards; deeper queues finish no later
  // ... and the replay is deterministic across worker counts.
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<Command> stream;
  auto replay = [&](int workers, int depth) {
    Device device(mc_shards(nand::Geometry::tiny(), params, 3, /*shards=*/4),
                  workers, /*queue_count=*/4);
    if (stream.empty())
      stream = mixed_stream(device.logical_pages(), 4, 33);
    ClosedLoopDriver driver(device, depth);
    driver.run(stream);
    EXPECT_EQ(device.outstanding(), 0u);
    return device.stats().iops();
  };
  const double qd1 = replay(1, 1);
  const double qd8 = replay(1, 8);
  EXPECT_GT(qd8, qd1);  // Parallel chips: depth raises throughput.
  EXPECT_DOUBLE_EQ(replay(4, 8), qd8);
}

TEST(ShardedChips, RejectsAnEmptyOrNullShard) {
  EXPECT_THROW(Device(std::vector<std::unique_ptr<Servicer>>{}),
               std::invalid_argument);
  EXPECT_THROW(Device(std::unique_ptr<Servicer>{}), std::invalid_argument);
}

TEST(ShardedChips, RejectsShardsWithDifferentPageCounts) {
  // Striping gives every shard the same local range, so the upper half of
  // a shard twice the size of shard 0 could never be addressed.
  const auto params = flash::FlashModelParams::default_2ynm();
  auto ssd_shard = [&](std::uint32_t blocks) {
    ssd::SsdConfig config;
    config.ftl.blocks = blocks;
    config.ftl.pages_per_block = 32;
    config.ftl.overprovision = 0.2;
    config.ftl.gc_free_target = 4;
    config.vpass_tuning = false;
    return std::make_unique<SsdServicer>(config, params, 1);
  };
  std::vector<std::unique_ptr<Servicer>> shards;
  shards.push_back(ssd_shard(64));
  shards.push_back(ssd_shard(128));
  ASSERT_NE(shards[0]->logical_pages(), shards[1]->logical_pages());
  try {
    Device device(std::move(shards), /*workers=*/1);
    ADD_FAILURE() << "mismatched shards were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rdsim::host
