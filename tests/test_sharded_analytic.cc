// Tests for the sharded *analytic* drive: host::Device with
// SsdServicer shards — the Servicer generalization that gives the
// analytic ssd::Ssd the same RAID-0 N-way scaling as the Monte Carlo
// chips. Mirrors tests/test_sharded_device.cc:
//   1. the merged completion log is byte-identical for any worker count;
//   2. the log is byte-identical across poll cadences;
//   3. the per-shard stall ledger sums to the device total;
//   4. striping spreads host pages evenly across the shard FTLs.
#include "host/device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "host/driver.h"
#include "host/ssd_servicer.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::host {
namespace {

/// The per-shard FTL shape every test uses (feasible GC headroom:
/// 64 * 0.2 = 12.8 blocks of slack for a target of 4).
ssd::SsdConfig shard_config() {
  ssd::SsdConfig config;
  config.ftl.blocks = 64;
  config.ftl.pages_per_block = 32;
  config.ftl.overprovision = 0.2;
  config.ftl.gc_free_target = 4;
  return config;
}

std::unique_ptr<Device> make_sharded_analytic(std::uint64_t seed,
                                              std::uint32_t shards,
                                              int workers,
                                              std::uint32_t queues) {
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<std::unique_ptr<Servicer>> servicers;
  for (std::uint32_t s = 0; s < shards; ++s)
    servicers.push_back(std::make_unique<SsdServicer>(
        shard_config(), params, Device::shard_seed(seed, s)));
  return std::make_unique<Device>(std::move(servicers), workers, queues);
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

/// Replays `stream` with an end_of_day at the midpoint (GC/refresh/
/// tuning maintenance runs and its busy time hits the timelines),
/// draining at the end; returns the completion log.
std::string replay_log(Device& device, const std::vector<Command>& stream) {
  std::size_t i = 0;
  for (const auto& c : stream) {
    device.submit(c);
    if (++i == stream.size() / 2) device.end_of_day();
  }
  std::vector<Completion> got;
  device.drain(&got);
  return log_of(got);
}

TEST(ShardedAnalytic, MergedLogIdenticalForAnyWorkerCount) {
  std::vector<std::string> logs;
  std::vector<Command> stream;
  for (const int workers : {1, 4, 8}) {
    auto device = make_sharded_analytic(/*seed=*/7, /*shards=*/4, workers,
                                        /*queues=*/4);
    if (stream.empty())
      stream = mixed_stream(device->logical_pages(), 4, /*seed=*/21);
    logs.push_back(replay_log(*device, stream));
  }
  ASSERT_GT(stream.size(), 500u);
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(logs[0].begin(), logs[0].end(), '\n')),
            stream.size());
}

TEST(ShardedAnalytic, MergedLogIdenticalAtAnyPollCadence) {
  std::vector<Command> stream;
  std::vector<std::string> logs;
  for (const int cadence : {0, 1, 7}) {
    auto device = make_sharded_analytic(/*seed=*/7, /*shards=*/4,
                                        /*workers=*/2, /*queues=*/4);
    if (stream.empty())
      stream = mixed_stream(device->logical_pages(), 4, /*seed=*/21);
    std::vector<Completion> got;
    std::size_t i = 0;
    for (const auto& c : stream) {
      device->submit(c);
      ++i;
      if (cadence > 0 && i % cadence == 0)
        device->poll(&got, cadence == 1 ? 1 : 3);
      if (i == stream.size() / 2) device->end_of_day();
    }
    device->drain(&got);
    logs.push_back(log_of(got));
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
}

TEST(ShardedAnalytic, PerShardStallLedgerSumsToDeviceTotal) {
  auto device = make_sharded_analytic(/*seed=*/3, /*shards=*/4,
                                      /*workers=*/2, /*queues=*/4);
  const auto stream = mixed_stream(device->logical_pages(), 4, 17);
  replay_log(*device, stream);
  const double total = device->stats().stall_seconds();
  EXPECT_GT(total, 0.0);
  double ledger = 0.0;
  for (std::uint32_t s = 0; s < device->shard_count(); ++s)
    ledger += device->shard_stall_seconds(s);
  // Same addends, different summation order (per-shard vs per-command).
  EXPECT_NEAR(ledger, total, 1e-9 * std::max(1.0, total));
}

TEST(ShardedAnalytic, StripingSpreadsHostPagesAcrossShardFtls) {
  auto device = make_sharded_analytic(/*seed=*/5, /*shards=*/4,
                                      /*workers=*/1, /*queues=*/1);
  const std::uint64_t logical = device->logical_pages();
  EXPECT_EQ(logical, 4u * shard_config().ftl.logical_pages());
  // A write spanning the whole logical space lands an equal share of
  // host pages on every shard's FTL.
  warm_fill(*device);
  for (std::uint32_t s = 0; s < device->shard_count(); ++s)
    EXPECT_EQ(device->shard_servicer(s).pages_written(), logical / 4);
  // The analytic backend senses no individual bits.
  EXPECT_EQ(device->read_bit_errors(), 0u);
}

}  // namespace
}  // namespace rdsim::host
