// Shared pieces of the batch-runner oracle tests (test_closed_loop.cc,
// test_burst_window.cc): the twin drives they build, seeded random
// command batches, and field-by-field comparisons of what a device
// exposes after a replay.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "host/chip_servicer.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/ssd_servicer.h"

namespace rdsim::host::oracle {

enum class Backend { kMonteCarlo, kAnalytic };

inline const char* backend_name(Backend backend) {
  return backend == Backend::kMonteCarlo ? "mc" : "analytic";
}

/// A drive of `shards` Monte Carlo or analytic shards on a `workers`-wide
/// pool, three submission queues, `tenants` (1-3) tenants under `policy`,
/// warm-filled.
inline std::unique_ptr<Device> make_drive(Backend backend,
                                          std::uint32_t shard_count,
                                          int workers,
                                          ArbitrationPolicy policy,
                                          std::uint32_t tenants) {
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<std::unique_ptr<Servicer>> shards;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint64_t seed = Device::shard_seed(11, s);
    if (backend == Backend::kMonteCarlo) {
      shards.push_back(std::make_unique<ChipServicer>(
          nand::Geometry{8, 256, 3}, params, seed, LatencyParams{}));
    } else {
      ssd::SsdConfig config;
      config.ftl.blocks = 24;
      config.ftl.pages_per_block = 16;
      config.ftl.overprovision = 0.25;
      config.ftl.gc_free_target = 3;
      shards.push_back(std::make_unique<SsdServicer>(config, params, seed));
    }
  }
  auto device = std::make_unique<Device>(std::move(shards), workers,
                                         /*queue_count=*/3);
  ArbitrationConfig arb;
  arb.policy = policy;
  // Tenants 0 and 2 share a deadline, so EDF keys tie across tenants.
  const TenantConfig table[] = {{1.0, 400.0}, {3.0, 150.0}, {0.5, 400.0}};
  arb.tenants.assign(table, table + tenants);
  device->set_arbitration(arb);
  warm_fill(*device);
  return device;
}

/// A seeded random batch of `n` commands with every kind, zero-page
/// commands and lpns that wrap past the end of the logical space.
inline std::vector<Command> random_batch(std::mt19937_64& rng,
                                         std::size_t n,
                                         std::uint64_t logical) {
  std::vector<Command> batch(n);
  for (Command& c : batch) {
    const std::uint64_t kind = rng() % 20;
    c.kind = kind < 11   ? CommandKind::kRead
             : kind < 16 ? CommandKind::kWrite
             : kind < 18 ? CommandKind::kTrim
                         : CommandKind::kFlush;
    c.pages = rng() % 12 == 0 ? 0 : static_cast<std::uint32_t>(1 + rng() % 6);
    if (rng() % 4 == 0) {
      // Near the end, so the range wraps; sometimes past it, too.
      c.lpn = logical - 1 - rng() % 3;
      if (rng() % 2 == 0) c.lpn += logical;
    } else {
      c.lpn = rng() % logical;
    }
    c.queue = static_cast<std::uint16_t>(rng() % 5);
    c.tenant = static_cast<std::uint16_t>(rng() % 5);
    c.submit_time_s = static_cast<double>(rng() % 1000);  // Overwritten.
  }
  return batch;
}

inline void expect_same(const Completion& a, const Completion& b,
                        const std::string& where) {
  EXPECT_EQ(a.id, b.id) << where;
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.queue, b.queue) << where;
  EXPECT_EQ(a.tenant, b.tenant) << where;
  EXPECT_EQ(a.lpn, b.lpn) << where;
  EXPECT_EQ(a.pages, b.pages) << where;
  EXPECT_EQ(a.submit_time_s, b.submit_time_s) << where;
  EXPECT_EQ(a.service_start_s, b.service_start_s) << where;
  EXPECT_EQ(a.complete_time_s, b.complete_time_s) << where;
  EXPECT_EQ(a.stall_s, b.stall_s) << where;
  EXPECT_EQ(a.status, b.status) << where;
  EXPECT_EQ(a.error_pages, b.error_pages) << where;
}

inline void expect_same_stats(const CompletionStats& a,
                              const CompletionStats& b,
                              std::uint32_t tenants,
                              const std::string& where) {
  EXPECT_EQ(a.commands(), b.commands()) << where;
  EXPECT_EQ(a.error_pages(), b.error_pages()) << where;
  EXPECT_EQ(a.stall_seconds(), b.stall_seconds()) << where;
  EXPECT_EQ(a.span_s(), b.span_s()) << where;
  for (CommandKind kind : {CommandKind::kRead, CommandKind::kWrite,
                           CommandKind::kTrim, CommandKind::kFlush}) {
    EXPECT_EQ(a.commands(kind), b.commands(kind)) << where;
    EXPECT_EQ(a.pages(kind), b.pages(kind)) << where;
    EXPECT_EQ(a.mean_latency_s(kind), b.mean_latency_s(kind)) << where;
    EXPECT_EQ(a.max_latency_s(kind), b.max_latency_s(kind)) << where;
    for (double q : {0.5, 0.99, 0.999})
      EXPECT_EQ(a.latency_quantile_s(kind, q), b.latency_quantile_s(kind, q))
          << where << " q=" << q;
  }
  for (std::size_t s = 0; s < kStatusCount; ++s)
    EXPECT_EQ(a.commands(static_cast<Status>(s)),
              b.commands(static_cast<Status>(s)))
        << where;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    EXPECT_EQ(a.tenant_commands(t), b.tenant_commands(t)) << where;
    EXPECT_EQ(a.tenant_stall_seconds(t), b.tenant_stall_seconds(t)) << where;
    EXPECT_EQ(a.tenant_mean_read_latency_s(t),
              b.tenant_mean_read_latency_s(t))
        << where;
  }
}

inline void expect_same_errors(const ErrorStats& a, const ErrorStats& b,
                               const std::string& where) {
  EXPECT_EQ(a.reads_ok, b.reads_ok) << where;
  EXPECT_EQ(a.reads_corrected, b.reads_corrected) << where;
  EXPECT_EQ(a.reads_retry_recovered, b.reads_retry_recovered) << where;
  EXPECT_EQ(a.reads_rdr_recovered, b.reads_rdr_recovered) << where;
  EXPECT_EQ(a.reads_uncorrectable, b.reads_uncorrectable) << where;
  EXPECT_EQ(a.retry_attempts, b.retry_attempts) << where;
  EXPECT_EQ(a.rdr_attempts, b.rdr_attempts) << where;
  EXPECT_EQ(a.writes_failed, b.writes_failed) << where;
  EXPECT_EQ(a.writes_rejected_read_only, b.writes_rejected_read_only)
      << where;
  EXPECT_EQ(a.retry_seconds, b.retry_seconds) << where;
  EXPECT_EQ(a.rdr_seconds, b.rdr_seconds) << where;
}

/// Everything but the log a replay leaves on a device: clock, clamp
/// count, per-shard stall ledgers, error-path counters and statistics.
inline void expect_same_device(Device& a, Device& b, std::uint32_t tenants,
                               const std::string& where) {
  EXPECT_EQ(a.now_s(), b.now_s()) << where;
  EXPECT_EQ(a.clamped_submits(), b.clamped_submits()) << where;
  for (std::uint32_t s = 0; s < a.shard_count(); ++s)
    EXPECT_EQ(a.shard_stall_seconds(s), b.shard_stall_seconds(s))
        << where << " shard " << s;
  expect_same_errors(a.error_stats(), b.error_stats(), where);
  expect_same_stats(a.stats(), b.stats(), tenants, where);
}

}  // namespace rdsim::host::oracle
