// Oracle test for closed-loop replay (host::ClosedLoopDriver over
// Device::run_closed_loop). The device runs a batch's shard physics up
// front and its timing behind, so the reference below is the obvious
// drain-per-slot driver: submit until `depth` commands are in flight,
// then drain the device and free the slot of the earliest completion.
// On seeded random batches — every command kind, zero-page commands,
// wrapping lpns, batches shorter than the depth and empty ones — both
// must produce the same records in the same sink order, the same
// statistics, stall ledgers, error counters, clamp count and clock,
// under every arbitration policy, on Monte Carlo and analytic shards, at
// any shard and worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "host/chip_servicer.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/ssd_servicer.h"

namespace rdsim::host {
namespace {

/// The drain-per-slot reference: driver-side slot accounting over
/// submit() and drain() only. Slots are freed in completion_log_order
/// from a buffer of drained records; every drain is merged into it, since
/// a command submitted since the last drain can complete earlier than
/// anything buffered (independent shard timelines).
class ReferenceClosedLoop {
 public:
  ReferenceClosedLoop(Device& device, int depth)
      : device_(&device),
        depth_(static_cast<std::size_t>(depth < 1 ? 1 : depth)),
        release_s_(device.now_s()),
        last_submit_s_(release_s_) {}

  void run(const std::vector<Command>& commands,
           std::vector<Completion>* sink) {
    for (Command c : commands) {
      if (in_flight_ >= depth_) release_s_ = next_completion_s(sink);
      c.submit_time_s = std::max(last_submit_s_, release_s_);
      last_submit_s_ = c.submit_time_s;
      device_->submit(c);
      ++in_flight_;
    }
    for (std::size_t i = next_; i < buffer_.size(); ++i)
      release_s_ = std::max(release_s_, buffer_[i].complete_time_s);
    std::vector<Completion> rest;
    device_->drain(&rest);
    sink->insert(sink->end(), rest.begin(), rest.end());
    for (const Completion& rec : rest)
      release_s_ = std::max(release_s_, rec.complete_time_s);
    buffer_.clear();
    next_ = 0;
    in_flight_ = 0;
  }

 private:
  double next_completion_s(std::vector<Completion>* sink) {
    std::vector<Completion> fresh;
    device_->drain(&fresh);
    sink->insert(sink->end(), fresh.begin(), fresh.end());
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(next_));
    next_ = 0;
    const auto mid = static_cast<std::ptrdiff_t>(buffer_.size());
    buffer_.insert(buffer_.end(), fresh.begin(), fresh.end());
    std::inplace_merge(buffer_.begin(), buffer_.begin() + mid, buffer_.end(),
                       completion_log_order);
    --in_flight_;
    return buffer_[next_++].complete_time_s;
  }

  Device* device_;
  std::size_t depth_;
  double release_s_;
  double last_submit_s_;
  std::size_t in_flight_ = 0;
  std::vector<Completion> buffer_;
  std::size_t next_ = 0;
};

enum class Backend { kMonteCarlo, kAnalytic };

struct Setup {
  Backend backend;
  std::uint32_t shards;
  int workers;
  ArbitrationPolicy policy;
  std::uint32_t tenants;
  int depth;

  std::string name() const {
    return std::string(backend == Backend::kMonteCarlo ? "mc" : "analytic") +
           " shards=" + std::to_string(shards) +
           " workers=" + std::to_string(workers) + " policy=" +
           std::to_string(static_cast<int>(policy)) +
           " tenants=" + std::to_string(tenants) +
           " depth=" + std::to_string(depth);
  }
};

std::unique_ptr<Device> make_drive(const Setup& setup) {
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<std::unique_ptr<Servicer>> shards;
  for (std::uint32_t s = 0; s < setup.shards; ++s) {
    const std::uint64_t seed = Device::shard_seed(11, s);
    if (setup.backend == Backend::kMonteCarlo) {
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
  auto device = std::make_unique<Device>(std::move(shards), setup.workers,
                                         /*queue_count=*/3);
  ArbitrationConfig arb;
  arb.policy = setup.policy;
  // Tenants 0 and 2 share a deadline, so EDF keys tie across tenants.
  const TenantConfig table[] = {{1.0, 400.0}, {3.0, 150.0}, {0.5, 400.0}};
  arb.tenants.assign(table, table + setup.tenants);
  device->set_arbitration(arb);
  warm_fill(*device);
  return device;
}

/// A seeded random batch of `n` commands with every kind, zero-page
/// commands and lpns that wrap past the end of the logical space.
std::vector<Command> random_batch(std::mt19937_64& rng, std::size_t n,
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

void expect_same(const Completion& a, const Completion& b,
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

void expect_same_stats(const CompletionStats& a, const CompletionStats& b,
                       std::uint32_t tenants, const std::string& where) {
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

void expect_same_errors(const ErrorStats& a, const ErrorStats& b,
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

/// Replays five batches — random, shorter than the depth, empty, random,
/// random — through the reference and through ClosedLoopDriver on twin
/// devices, with nightly maintenance and out-of-band traffic stamped
/// ahead of the drivers' clock between batches (so window stamps get
/// clamped), and compares everything observable.
void check_against_reference(const Setup& setup) {
  const std::string where = setup.name();
  auto reference_device = make_drive(setup);
  auto device = make_drive(setup);
  ReferenceClosedLoop reference(*reference_device, setup.depth);
  ClosedLoopDriver driver(*device, setup.depth);
  std::vector<Completion> want;
  std::vector<Completion> got;
  driver.set_completion_sink(&got);

  std::mt19937_64 rng(0x5eed0000u + setup.shards * 131u +
                      static_cast<unsigned>(setup.policy) * 17u +
                      setup.tenants * 7u + static_cast<unsigned>(setup.depth));
  const std::uint64_t logical = device->logical_pages();
  const std::size_t depth = static_cast<std::size_t>(setup.depth);
  const std::size_t sizes[] = {20 + rng() % 41, rng() % depth, 0,
                               30 + rng() % 31, 10 + rng() % 21};
  for (std::size_t b = 0; b < std::size(sizes); ++b) {
    const std::vector<Command> batch = random_batch(rng, sizes[b], logical);
    reference.run(batch, &want);
    driver.run(batch);
    EXPECT_EQ(device->outstanding(), 0u) << where;
    if (b == 0) {
      reference_device->end_of_day();
      device->end_of_day();
    }
    if (b == 1) {
      const std::vector<Command> extra = random_batch(rng, 3, logical);
      for (Device* d : {reference_device.get(), device.get()}) {
        for (Command c : extra) {
          c.submit_time_s = d->now_s() + 0.01;
          d->submit(c);
        }
      }
      std::vector<Completion> extra_want;
      std::vector<Completion> extra_got;
      reference_device->drain(&extra_want);
      device->drain(&extra_got);
      ASSERT_EQ(extra_want.size(), extra_got.size()) << where;
      for (std::size_t i = 0; i < extra_want.size(); ++i)
        expect_same(extra_want[i], extra_got[i], where + " extra");
    }
  }

  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i)
    expect_same(want[i], got[i], where + " record " + std::to_string(i));
  EXPECT_EQ(reference_device->now_s(), device->now_s()) << where;
  EXPECT_EQ(reference_device->clamped_submits(), device->clamped_submits())
      << where;
  EXPECT_GT(device->clamped_submits(), 0u) << where;
  for (std::uint32_t s = 0; s < setup.shards; ++s)
    EXPECT_EQ(reference_device->shard_stall_seconds(s),
              device->shard_stall_seconds(s))
        << where << " shard " << s;
  expect_same_errors(reference_device->error_stats(), device->error_stats(),
                     where);
  expect_same_stats(reference_device->stats(), device->stats(),
                    setup.tenants, where);
}

void check_backend(Backend backend) {
  const ArbitrationPolicy policies[] = {
      ArbitrationPolicy::kFifo, ArbitrationPolicy::kRoundRobin,
      ArbitrationPolicy::kWeighted, ArbitrationPolicy::kDeadline};
  const struct {
    std::uint32_t shards;
    int workers;
  } widths[] = {{1, 1}, {4, 1}, {4, 4}};
  for (const auto& width : widths)
    for (ArbitrationPolicy policy : policies)
      for (std::uint32_t tenants = 1; tenants <= 3; ++tenants)
        for (int depth : {1, 4, 16})
          check_against_reference(
              {backend, width.shards, width.workers, policy, tenants, depth});
}

TEST(ClosedLoopOracle, MonteCarloShardsMatchTheDrainPerSlotReference) {
  check_backend(Backend::kMonteCarlo);
}

TEST(ClosedLoopOracle, AnalyticShardsMatchTheDrainPerSlotReference) {
  check_backend(Backend::kAnalytic);
}

}  // namespace
}  // namespace rdsim::host
