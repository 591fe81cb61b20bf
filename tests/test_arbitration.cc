// Tests for the pluggable per-tenant arbitration layer (PR 10):
//   1. conservation — the per-tenant CompletionStats slices sum back to
//      the global log, per kind, per status, per page, and for stall
//      attribution, on one-shard and four-shard drives;
//   2. weighted fairness — under saturation, completed commands track
//      the configured weights (start-time fair queueing on pages);
//   3. deadline ordering — within one co-pending epoch the service order
//      is EDF: non-decreasing submit + deadline;
//   4. round-robin starvation-freedom — a victim's k-th command is never
//      serviced behind more than k commands of a hammering tenant;
//   5. determinism — per policy, the completion log is byte-identical
//      across worker counts (four shards), and a single-tenant
//      arbitration config reproduces the untagged FIFO log byte-for-byte;
//   6. fig_qos_tenants is byte-identical at --threads 1 and 8;
//   7. CompletionStats quantile edge cases: empty and single-sample
//      histograms, global and per-tenant;
//   8. the policy can only change while nothing is queued.
#include "host/arbitration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic_drive.h"
#include "cfg/spec.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/factory.h"
#include "host/stats.h"
#include "sim/experiment.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/tenants.h"

namespace rdsim::host {
namespace {

ssd::SsdConfig small_config() {
  ssd::SsdConfig cfg;
  cfg.ftl.blocks = 64;
  cfg.ftl.pages_per_block = 32;
  cfg.ftl.overprovision = 0.2;
  cfg.ftl.gc_free_target = 4;
  cfg.vpass_tuning = false;
  return cfg;
}

std::unique_ptr<test::AnalyticDrive> small_ssd_device(
    std::uint64_t seed, std::uint32_t queues = 4) {
  return std::make_unique<test::AnalyticDrive>(
      small_config(), flash::FlashModelParams::default_2ynm(), seed, queues);
}

/// Sharded analytic drive through the same factory path the experiments
/// use (4 SsdServicer shards).
std::unique_ptr<Device> sharded_analytic_device(std::uint64_t seed,
                                                int workers) {
  cfg::DriveSpec drive;
  drive.backend = cfg::Backend::kShardedAnalytic;
  drive.shards = 4;
  drive.queue_count = 4;
  drive.blocks = 48;
  drive.pages_per_block = 32;
  drive.overprovision = 0.2;
  drive.gc_free_target = 4;
  return make_device(drive, seed, workers);
}

ArbitrationConfig make_arb(ArbitrationPolicy policy,
                           std::vector<TenantConfig> tenants) {
  ArbitrationConfig arb;
  arb.policy = policy;
  arb.tenants = std::move(tenants);
  return arb;
}

/// A two-tenant day: small-read victim plus a bulk read-hot aggressor.
std::vector<Command> two_tenant_stream(std::uint64_t logical,
                                       std::uint64_t seed) {
  workload::WorkloadProfile victim = workload::profile_by_name("fiu-web-vm");
  victim.daily_page_ios = 9000;
  victim.mean_request_pages = 2.0;
  workload::WorkloadProfile aggressor = workload::profile_by_name("umass-web");
  aggressor.daily_page_ios = 18000;
  aggressor.mean_request_pages = 8.0;
  workload::MultiTenantGenerator gen({victim, aggressor}, logical, seed);
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

/// `count` single-page reads for `tenant`, all stamped at time 0 so the
/// whole batch is co-pending and the service order is exactly the
/// arbitration order.
std::vector<Command> burst(std::uint16_t tenant, int count,
                           std::uint64_t logical, std::uint32_t pages = 1) {
  std::vector<Command> out;
  for (int i = 0; i < count; ++i) {
    Command c;
    c.kind = CommandKind::kRead;
    c.lpn = static_cast<std::uint64_t>(i * 7 + tenant) % logical;
    c.pages = pages;
    c.queue = tenant;
    c.tenant = tenant;
    c.submit_time_s = 0.0;
    out.push_back(c);
  }
  return out;
}

/// Completions sorted into flash service order.
std::vector<Completion> by_service_order(std::vector<Completion> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const Completion& a, const Completion& b) {
              return a.service_start_s != b.service_start_s
                         ? a.service_start_s < b.service_start_s
                         : a.id < b.id;
            });
  return recs;
}

// --- 1. Conservation ------------------------------------------------------

/// Drives a three-tenant weighted workload through `device` and checks
/// that every per-tenant slice of CompletionStats sums back to the
/// global aggregate.
void check_conservation(Device& device) {
  warm_fill(device);
  device.set_arbitration(make_arb(
      ArbitrationPolicy::kWeighted,
      {{/*weight=*/1.0, /*deadline_us=*/1000.0},
       {/*weight=*/2.0, /*deadline_us=*/1000.0},
       {/*weight=*/4.0, /*deadline_us=*/1000.0}}));

  workload::WorkloadProfile a = workload::profile_by_name("postmark");
  a.daily_page_ios = 6000;
  workload::WorkloadProfile b = workload::profile_by_name("fiu-mail");
  b.daily_page_ios = 6000;
  workload::WorkloadProfile c = workload::profile_by_name("umass-web");
  c.daily_page_ios = 12000;
  c.mean_request_pages = 8.0;
  workload::MultiTenantGenerator gen({a, b, c}, device.logical_pages(),
                                     /*seed=*/31);
  BurstWindowDriver driver(device, /*window=*/16);
  driver.run(gen.day_commands());
  device.end_of_day();

  const CompletionStats& stats = device.stats();
  ASSERT_EQ(stats.tenants_seen(), 3u);
  ASSERT_GT(stats.commands(), 1000u);

  std::uint64_t commands = 0, pages = 0, error_pages = 0;
  double stall = 0.0;
  for (std::uint32_t t = 0; t < 3; ++t) {
    commands += stats.tenant_commands(t);
    pages += stats.tenant_pages(t);
    error_pages += stats.tenant_error_pages(t);
    stall += stats.tenant_stall_seconds(t);
  }
  EXPECT_EQ(commands, stats.commands());
  EXPECT_EQ(error_pages, stats.error_pages());
  EXPECT_NEAR(stall, stats.stall_seconds(),
              1e-9 * (1.0 + stats.stall_seconds()));

  std::uint64_t kind_pages = 0;
  for (const CommandKind kind :
       {CommandKind::kRead, CommandKind::kWrite, CommandKind::kTrim,
        CommandKind::kFlush}) {
    std::uint64_t per_kind = 0;
    for (std::uint32_t t = 0; t < 3; ++t)
      per_kind += stats.tenant_commands(t, kind);
    EXPECT_EQ(per_kind, stats.commands(kind))
        << "kind " << command_kind_name(kind);
    kind_pages += stats.pages(kind);
  }
  EXPECT_EQ(pages, kind_pages);

  std::uint64_t status_total = 0;
  for (std::size_t s = 0; s < kStatusCount; ++s) {
    const Status status = static_cast<Status>(s);
    std::uint64_t per_status = 0;
    for (std::uint32_t t = 0; t < 3; ++t)
      per_status += stats.tenant_commands(t, status);
    EXPECT_EQ(per_status, stats.commands(status))
        << "status " << status_name(status);
    status_total += stats.commands(status);
  }
  EXPECT_EQ(status_total, stats.commands());
}

TEST(Arbitration, ConservationOnOneShardDevice) {
  auto device = small_ssd_device(/*seed=*/11);
  check_conservation(*device);
}

TEST(Arbitration, ConservationOnShardedDrive) {
  auto device = sharded_analytic_device(/*seed=*/13, /*workers=*/4);
  check_conservation(*device);
}

// --- 2. Weighted fairness -------------------------------------------------

TEST(Arbitration, WeightedFairnessUnderSaturation) {
  // Two tenants, equal page sizes, weights 3:1, everything co-pending:
  // any prefix of the service order must complete commands in a ~3:1
  // ratio (start-time fair queueing interleaves 3 tenant-0 commands per
  // tenant-1 command).
  auto device = small_ssd_device(/*seed=*/3);
  device->set_arbitration(make_arb(ArbitrationPolicy::kWeighted,
                                   {{3.0, 1000.0}, {1.0, 1000.0}}));
  const std::uint64_t logical = device->logical_pages();
  std::vector<Command> stream = burst(0, 300, logical);
  const std::vector<Command> other = burst(1, 300, logical);
  // Interleave submissions so neither arrival order nor id favors a
  // tenant.
  std::vector<Command> merged;
  for (int i = 0; i < 300; ++i) {
    merged.push_back(stream[i]);
    merged.push_back(other[i]);
  }
  for (const auto& c : merged) device->submit(c);
  std::vector<Completion> got;
  ASSERT_EQ(device->drain(&got), merged.size());

  const auto ordered = by_service_order(std::move(got));
  for (const std::size_t prefix : {40u, 100u, 200u, 400u}) {
    int t0 = 0, t1 = 0;
    for (std::size_t i = 0; i < prefix; ++i)
      (ordered[i].tenant == 0 ? t0 : t1)++;
    ASSERT_GT(t1, 0);
    const double ratio = static_cast<double>(t0) / t1;
    EXPECT_NEAR(ratio, 3.0, 0.35) << "prefix " << prefix;
  }
}

// --- 3. Deadline ordering -------------------------------------------------

TEST(Arbitration, DeadlineServiceOrderIsEdf) {
  // Distinct submit times, per-tenant deadline targets, everything
  // submitted before the drain: the service order must be sorted by
  // submit_time + deadline (earliest deadline first).
  auto device = small_ssd_device(/*seed=*/17);
  const double deadlines_us[] = {5000.0, 1000.0, 3000.0};
  device->set_arbitration(make_arb(
      ArbitrationPolicy::kDeadline,
      {{1.0, deadlines_us[0]}, {1.0, deadlines_us[1]}, {1.0, deadlines_us[2]}}));
  const std::uint64_t logical = device->logical_pages();
  std::vector<Command> stream;
  for (int i = 0; i < 90; ++i) {
    Command c;
    c.kind = CommandKind::kRead;
    c.lpn = static_cast<std::uint64_t>(i * 5) % logical;
    c.tenant = static_cast<std::uint16_t>(i % 3);
    c.queue = c.tenant;
    c.submit_time_s = i * 1e-5;
    stream.push_back(c);
  }
  for (const auto& c : stream) device->submit(c);
  std::vector<Completion> got;
  ASSERT_EQ(device->drain(&got), stream.size());

  const auto ordered = by_service_order(std::move(got));
  double last_deadline = -1.0;
  bool reordered = false;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const double deadline =
        ordered[i].submit_time_s + deadlines_us[ordered[i].tenant] * 1e-6;
    EXPECT_GE(deadline, last_deadline - 1e-12) << "position " << i;
    last_deadline = deadline;
    if (i > 0 && ordered[i].id < ordered[i - 1].id) reordered = true;
  }
  // And the test is non-trivial: EDF actually reordered the stream.
  EXPECT_TRUE(reordered);
}

// --- 4. Round-robin starvation-freedom ------------------------------------

TEST(Arbitration, RoundRobinIsStarvationFree) {
  // A hammering tenant submits 300 co-pending reads, the victim 5 —
  // after all of the hammer's commands are already queued. One round
  // credit per tenant per round means the victim's k-th command is
  // serviced at position 2k: ahead of all but k hammer commands.
  auto device = small_ssd_device(/*seed=*/23);
  device->set_arbitration(make_arb(ArbitrationPolicy::kRoundRobin,
                                   {{1.0, 1000.0}, {1.0, 1000.0}}));
  const std::uint64_t logical = device->logical_pages();
  for (const auto& c : burst(1, 300, logical)) device->submit(c);
  for (const auto& c : burst(0, 5, logical)) device->submit(c);
  std::vector<Completion> got;
  ASSERT_EQ(device->drain(&got), 305u);

  const auto ordered = by_service_order(std::move(got));
  std::vector<std::size_t> victim_positions;
  for (std::size_t i = 0; i < ordered.size(); ++i)
    if (ordered[i].tenant == 0) victim_positions.push_back(i);
  ASSERT_EQ(victim_positions.size(), 5u);
  for (std::size_t k = 0; k < victim_positions.size(); ++k)
    EXPECT_EQ(victim_positions[k], 2 * k) << "victim command " << k;
}

// --- 5. Determinism -------------------------------------------------------

const ArbitrationPolicy kReorderingPolicies[] = {
    ArbitrationPolicy::kRoundRobin, ArbitrationPolicy::kWeighted,
    ArbitrationPolicy::kDeadline};

ArbitrationConfig two_tenant_arb(ArbitrationPolicy policy) {
  return make_arb(policy, {{8.0, 500.0}, {1.0, 10000.0}});
}

TEST(Arbitration, ShardedLogIdenticalAtAnyWorkerCount) {
  // Four shards add independent shard timelines on top of the
  // arbitration reorder: the merged log must still be one deterministic
  // byte stream at any worker count.
  std::vector<Command> stream;
  for (const ArbitrationPolicy policy : kReorderingPolicies) {
    SCOPED_TRACE(arbitration_policy_name(policy));
    std::vector<std::string> logs;
    for (const int workers : {1, 2, 8}) {
      auto device = sharded_analytic_device(/*seed=*/29, workers);
      device->set_arbitration(two_tenant_arb(policy));
      if (stream.empty())
        stream = two_tenant_stream(device->logical_pages(), /*seed=*/43);
      for (const auto& c : stream) device->submit(c);
      std::vector<Completion> got;
      device->drain(&got);
      EXPECT_EQ(got.size(), stream.size());
      logs.push_back(log_of(got));
    }
    EXPECT_EQ(logs[0], logs[1]);
    EXPECT_EQ(logs[0], logs[2]);
  }
}

TEST(Arbitration, SingleTenantConfigMatchesUntaggedPath) {
  // A [tenants] section with one tenant must be bit-transparent: with a
  // single tenant every policy's key order degenerates to submission
  // order, so the log equals the untagged FIFO device's byte-for-byte.
  workload::WorkloadProfile profile = workload::profile_by_name("postmark");
  profile.daily_page_ios = 20000;
  profile.trim_fraction = 0.1;
  profile.flush_period_s = 1800.0;
  std::vector<Command> stream;

  const auto run = [&stream, &profile](const ArbitrationConfig* arb) {
    auto device = small_ssd_device(/*seed=*/19);
    if (arb != nullptr) device->set_arbitration(*arb);
    if (stream.empty()) {
      workload::TraceGenerator gen(profile, device->logical_pages(),
                                   /*seed=*/47, /*queues=*/4);
      stream = gen.day_commands();
    }
    std::vector<Completion> got;
    std::size_t i = 0;
    for (const auto& c : stream) {
      device->submit(c);
      if (++i % 7 == 0) device->drain(&got);
    }
    device->drain(&got);
    return log_of(got);
  };

  const std::string untagged = run(nullptr);
  EXPECT_GT(untagged.size(), 1000u);
  for (const ArbitrationPolicy policy :
       {ArbitrationPolicy::kFifo, ArbitrationPolicy::kRoundRobin,
        ArbitrationPolicy::kWeighted, ArbitrationPolicy::kDeadline}) {
    SCOPED_TRACE(arbitration_policy_name(policy));
    const ArbitrationConfig arb = make_arb(policy, {{1.0, 1000.0}});
    EXPECT_EQ(run(&arb), untagged);
  }
}

// --- 6. Experiment-level determinism --------------------------------------

TEST(Arbitration, FigQosTenantsByteIdenticalAcrossThreadCounts) {
  sim::ExperimentConfig config;
  config.seed = 42;
  config.geometry = nand::Geometry::tiny();
  config.scale = 0.01;
  config.threads = 1;
  const std::string one =
      sim::run_experiment("fig_qos_tenants", config).to_csv();
  config.threads = 8;
  const std::string eight =
      sim::run_experiment("fig_qos_tenants", config).to_csv();
  EXPECT_EQ(one, eight);
  EXPECT_GT(one.size(), 500u);
}

// --- 7. CompletionStats edge cases ----------------------------------------

TEST(CompletionStatsEdge, EmptyHistogramsReportZero) {
  const CompletionStats stats;
  for (const CommandKind kind :
       {CommandKind::kRead, CommandKind::kWrite, CommandKind::kTrim,
        CommandKind::kFlush}) {
    for (const double q : {0.0, 0.5, 0.999, 1.0}) {
      EXPECT_EQ(stats.latency_quantile_s(kind, q), 0.0);
    }
    EXPECT_EQ(stats.mean_latency_s(kind), 0.0);
    EXPECT_EQ(stats.max_latency_s(kind), 0.0);
  }
  EXPECT_EQ(stats.commands(), 0u);
  EXPECT_EQ(stats.uber(1.0), 0.0);
  EXPECT_EQ(stats.iops(), 0.0);
  EXPECT_EQ(stats.tenants_seen(), 0u);
  // Out-of-range tenant ids are all-zero, never UB.
  EXPECT_EQ(stats.tenant_commands(5), 0u);
  EXPECT_EQ(stats.tenant_commands(5, CommandKind::kRead), 0u);
  EXPECT_EQ(stats.tenant_commands(5, Status::kOk), 0u);
  EXPECT_EQ(stats.tenant_read_latency_quantile_s(5, 0.999), 0.0);
  EXPECT_EQ(stats.tenant_mean_read_latency_s(5), 0.0);
  EXPECT_EQ(stats.tenant_stall_seconds(5), 0.0);
  EXPECT_EQ(stats.tenant_uber(5, 1.0), 0.0);
  EXPECT_EQ(stats.tenant_iops(5), 0.0);
}

TEST(CompletionStatsEdge, SingleSampleQuantilesHitTheBinEdge) {
  // One 100 us read for tenant 2. With the default 250 ms / 50000-bin
  // histogram (5 us bins), every quantile of a single-sample histogram —
  // including q = 0 — is the upper edge of the one occupied bin: at most
  // one bin width above the sample, never below it.
  const double latency = 100e-6;
  CompletionStats stats;
  Completion c;
  c.kind = CommandKind::kRead;
  c.tenant = 2;
  c.pages = 1;
  c.submit_time_s = 0.0;
  c.service_start_s = 0.0;
  c.complete_time_s = latency;
  c.status = Status::kCorrected;
  stats.add(c);

  const double bin_edge = stats.latency_quantile_s(CommandKind::kRead, 0.5);
  EXPECT_GE(bin_edge, latency);
  EXPECT_LE(bin_edge, latency + 0.25 / 50000 + 1e-12);
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(stats.latency_quantile_s(CommandKind::kRead, q),
                     bin_edge);
    EXPECT_DOUBLE_EQ(stats.tenant_read_latency_quantile_s(2, q), bin_edge);
  }
  EXPECT_DOUBLE_EQ(stats.mean_latency_s(CommandKind::kRead), latency);
  EXPECT_DOUBLE_EQ(stats.tenant_mean_read_latency_s(2), latency);
  EXPECT_DOUBLE_EQ(stats.tenant_max_read_latency_s(2), latency);
  // The slice vector grew to tenant id 2; the never-seen tenants in
  // between are present but empty.
  EXPECT_EQ(stats.tenants_seen(), 3u);
  EXPECT_EQ(stats.tenant_commands(2), 1u);
  EXPECT_EQ(stats.tenant_commands(2, CommandKind::kRead), 1u);
  EXPECT_EQ(stats.tenant_commands(2, Status::kCorrected), 1u);
  EXPECT_EQ(stats.tenant_commands(1), 0u);
  EXPECT_EQ(stats.tenant_read_latency_quantile_s(0, 0.5), 0.0);

  // A write-only tenant has counts but an empty read histogram.
  Completion w;
  w.kind = CommandKind::kWrite;
  w.tenant = 0;
  w.pages = 4;
  w.submit_time_s = 2.0;
  w.service_start_s = 2.0;
  w.complete_time_s = 2.0 + 1e-3;
  stats.add(w);
  EXPECT_EQ(stats.tenant_commands(0, CommandKind::kWrite), 1u);
  EXPECT_EQ(stats.tenant_read_latency_quantile_s(0, 0.999), 0.0);
  EXPECT_EQ(stats.tenant_mean_read_latency_s(0), 0.0);
}

// --- 8. Policy changes ---------------------------------------------------

TEST(Arbitration, PolicyChangeRejectedWhileCommandsAreQueued) {
  // Keys assigned under one policy are incomparable with the next one's,
  // so a switch is only accepted on a quiet device.
  auto device = small_ssd_device(/*seed=*/29);
  const ArbitrationConfig weighted =
      make_arb(ArbitrationPolicy::kWeighted, {{3.0, 1000.0}, {1.0, 1000.0}});
  for (const Command& c : burst(0, 2, device->logical_pages()))
    device->submit(c);
  EXPECT_THROW(device->set_arbitration(weighted), std::logic_error);
  EXPECT_EQ(device->arbitration().policy, ArbitrationPolicy::kFifo);

  std::vector<Completion> done;
  ASSERT_EQ(device->drain(&done), 2u);
  device->set_arbitration(weighted);
  EXPECT_EQ(device->arbitration().policy, ArbitrationPolicy::kWeighted);
}

}  // namespace
}  // namespace rdsim::host
