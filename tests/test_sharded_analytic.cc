// Tests for the sharded *analytic* drive: host::Device with
// SsdServicer shards — the Servicer generalization that gives the
// analytic ssd::Ssd the same RAID-0 N-way scaling as the Monte Carlo
// chips. Mirrors tests/test_sharded_device.cc:
//   1. the merged completion log is byte-identical for any worker count;
//   2. under FIFO the records are identical at any drain cadence;
//   3. the per-shard stall ledger sums to the device total;
//   4. striping spreads host pages evenly across the shard FTLs;
//   5. a pump whose physics runs inline gives the same log and statistics
//      as one that goes through the pool, and chip-backed burst windows
//      stay worker-count invisible.
#include "host/device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "host/chip_servicer.h"
#include "host/driver.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/tenants.h"

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

TEST(ShardedAnalytic, MergedLogIdenticalAtAnyDrainCadence) {
  // Under FIFO a sync point cannot move a record, so every cadence of
  // drains yields the same records, compared in completion_log_order.
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
      if (cadence > 0 && i % cadence == 0) device->drain(&got);
      if (i == stream.size() / 2) device->end_of_day();
    }
    device->drain(&got);
    std::sort(got.begin(), got.end(), completion_log_order);
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

/// Every CompletionStats figure, floats as exact hex, so two runs compare
/// byte for byte.
std::string stats_of(const CompletionStats& stats) {
  std::ostringstream out;
  out << std::hexfloat << stats.commands() << ' ' << stats.error_pages()
      << ' ' << stats.stall_seconds() << ' ' << stats.span_s() << ' '
      << stats.iops() << '\n';
  for (const CommandKind kind : {CommandKind::kRead, CommandKind::kWrite,
                                 CommandKind::kTrim, CommandKind::kFlush}) {
    out << stats.commands(kind) << ' ' << stats.pages(kind) << ' '
        << stats.mean_latency_s(kind) << ' ' << stats.max_latency_s(kind);
    for (const double q : {0.5, 0.99, 0.999})
      out << ' ' << stats.latency_quantile_s(kind, q);
    out << '\n';
  }
  for (const Status status :
       {Status::kOk, Status::kCorrected, Status::kRecovered,
        Status::kUncorrectable, Status::kFailedWrite, Status::kReadOnly})
    out << stats.commands(status) << ' ';
  out << '\n';
  for (std::uint32_t t = 0; t < stats.tenants_seen(); ++t)
    out << stats.tenant_commands(t) << ' ' << stats.tenant_pages(t) << ' '
        << stats.tenant_error_pages(t) << ' ' << stats.tenant_stall_seconds(t)
        << ' ' << stats.tenant_mean_read_latency_s(t) << ' '
        << stats.tenant_max_read_latency_s(t) << ' '
        << stats.tenant_read_latency_quantile_s(t, 0.99) << ' '
        << stats.tenant_span_s(t) << ' ' << stats.tenant_iops(t) << '\n';
  return out.str();
}

/// A latency-sensitive victim and a read-hot bulk aggressor, as in
/// fig_qos_tenants, at a volume the test drives turn over within a day.
std::vector<Command> tenant_stream(std::uint64_t logical, double scale,
                                   std::uint64_t seed) {
  workload::WorkloadProfile victim = workload::profile_by_name("fiu-web-vm");
  victim.daily_page_ios = scale * 3000.0;
  victim.mean_request_pages = 2.0;
  workload::WorkloadProfile aggressor = workload::profile_by_name("umass-web");
  aggressor.daily_page_ios = scale * 12000.0;
  aggressor.mean_request_pages = 8.0;
  workload::MultiTenantGenerator gen({victim, aggressor}, logical, seed);
  return gen.day_commands();
}

ArbitrationConfig tenant_arbitration(ArbitrationPolicy policy) {
  ArbitrationConfig arb;
  arb.policy = policy;
  arb.tenants = {{/*weight=*/8.0, /*deadline_us=*/500.0},
                 {/*weight=*/1.0, /*deadline_us=*/10000.0}};
  return arb;
}

/// How burst_run replays its windows: through BurstWindowDriver (physics
/// of many windows in one pass), or by submitting each window and
/// draining it, so every window is one pump of `window` commands.
enum class Replay { kDriver, kDrainPerWindow };

/// Warm-fills `device`, installs `policy`, and drives `stream` through it
/// in burst windows of `window` commands with a nightly maintenance pass
/// halfway; returns the completion log followed by the statistics.
std::string burst_run(Device& device, ArbitrationPolicy policy,
                      const std::vector<Command>& stream, int window,
                      Replay replay = Replay::kDriver) {
  warm_fill(device);
  device.set_arbitration(tenant_arbitration(policy));
  std::vector<Completion> log;
  BurstWindowDriver driver(device, window);
  driver.set_completion_sink(&log);
  double clock_s = device.now_s();
  const auto run = [&](std::vector<Command>::const_iterator begin,
                       std::vector<Command>::const_iterator end) {
    if (replay == Replay::kDriver) return driver.run({begin, end});
    while (begin != end) {
      const auto stop = begin + std::min<std::ptrdiff_t>(window, end - begin);
      for (; begin != stop; ++begin) {
        Command c = *begin;
        c.submit_time_s = clock_s;
        device.submit(c);
      }
      device.drain(&log);
      clock_s = std::max(clock_s, log.back().complete_time_s);
    }
  };
  const auto half = stream.begin() + static_cast<std::ptrdiff_t>(
                                         stream.size() / 2);
  run(stream.begin(), half);
  device.end_of_day();
  run(half, stream.end());
  EXPECT_EQ(log.size(), stream.size());
  return log_of(log) + stats_of(device.stats());
}

/// An analytic shard that reports a chip it never uses, so the device
/// counts it as chip-backed and sends every pump through the pool: the
/// reference the inline path is checked against.
class PoolOnlySsdServicer final : public SsdServicer {
 public:
  using SsdServicer::SsdServicer;
  nand::Chip* mc_chip() override { return &chip_; }

 private:
  nand::Chip chip_{nand::Geometry::tiny(),
                   flash::FlashModelParams::default_2ynm(), 1};
};

TEST(ShardedAnalytic, InlineAndPooledPumpsGiveIdenticalResults) {
  // An all-analytic device runs a pump of fewer than 64 commands on the
  // calling thread and a larger one on the pool. Each window is submitted
  // and drained, one pump per window, and the windows straddle that
  // threshold. At 1 worker everything runs inline; at 4 workers the large
  // windows go through the pool; the pool-only twin pools every window.
  // All three must agree byte for byte.
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<Command> stream;
  for (const ArbitrationPolicy policy :
       {ArbitrationPolicy::kFifo, ArbitrationPolicy::kRoundRobin,
        ArbitrationPolicy::kWeighted, ArbitrationPolicy::kDeadline}) {
    for (const int window : {1, 16, 63, 64, 65, 256}) {
      std::vector<std::string> runs;
      for (const int workers : {1, 4}) {
        auto device = make_sharded_analytic(/*seed=*/11, /*shards=*/4,
                                            workers, /*queues=*/2);
        if (stream.empty())
          stream = tenant_stream(device->logical_pages(), 1.0, /*seed=*/31);
        runs.push_back(burst_run(*device, policy, stream, window,
                                 Replay::kDrainPerWindow));
      }
      std::vector<std::unique_ptr<Servicer>> pool_only;
      for (std::uint32_t s = 0; s < 4; ++s)
        pool_only.push_back(std::make_unique<PoolOnlySsdServicer>(
            shard_config(), params, Device::shard_seed(11, s)));
      Device reference(std::move(pool_only), /*workers=*/4, /*queues=*/2);
      runs.push_back(burst_run(reference, policy, stream, window,
                               Replay::kDrainPerWindow));
      EXPECT_EQ(runs[0], runs[1])
          << arbitration_policy_name(policy) << " window " << window;
      EXPECT_EQ(runs[0], runs[2])
          << arbitration_policy_name(policy) << " window " << window;
    }
  }
  ASSERT_GT(stream.size(), 1000u);
}

TEST(ShardedAnalytic, ChipBackedBurstWindowsIdenticalAtAnyWorkerCount) {
  // Monte Carlo shards take the pool at any pump size; a 2-shard chip
  // drive in 8-command windows must still match its 1-worker run.
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<Command> stream;
  std::vector<std::string> runs;
  for (const int workers : {1, 4}) {
    std::vector<std::unique_ptr<Servicer>> chips;
    for (std::uint32_t s = 0; s < 2; ++s)
      chips.push_back(std::make_unique<ChipServicer>(
          nand::Geometry::tiny(), params, Device::shard_seed(13, s),
          LatencyParams{}));
    Device device(std::move(chips), workers, /*queue_count=*/2);
    if (stream.empty())
      stream = tenant_stream(device.logical_pages(), 0.1, /*seed=*/37);
    runs.push_back(
        burst_run(device, ArbitrationPolicy::kWeighted, stream, /*window=*/8));
  }
  ASSERT_GT(stream.size(), 100u);
  EXPECT_EQ(runs[0], runs[1]);
}

}  // namespace
}  // namespace rdsim::host
