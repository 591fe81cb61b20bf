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

#include "device_oracle.h"
#include "host/device.h"
#include "host/driver.h"

namespace rdsim::host {
namespace {

using namespace oracle;

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

struct Setup {
  Backend backend;
  std::uint32_t shards;
  int workers;
  ArbitrationPolicy policy;
  std::uint32_t tenants;
  int depth;

  std::string name() const {
    return std::string(backend_name(backend)) +
           " shards=" + std::to_string(shards) +
           " workers=" + std::to_string(workers) + " policy=" +
           std::to_string(static_cast<int>(policy)) +
           " tenants=" + std::to_string(tenants) +
           " depth=" + std::to_string(depth);
  }
};

/// Replays five batches — random, shorter than the depth, empty, random,
/// random — through the reference and through ClosedLoopDriver on twin
/// devices, with nightly maintenance and out-of-band traffic stamped
/// ahead of the drivers' clock between batches (so window stamps get
/// clamped), and compares everything observable.
void check_against_reference(const Setup& setup) {
  const std::string where = setup.name();
  auto reference_device = make_drive(setup.backend, setup.shards,
                                     setup.workers, setup.policy,
                                     setup.tenants);
  auto device = make_drive(setup.backend, setup.shards, setup.workers,
                           setup.policy, setup.tenants);
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
  EXPECT_GT(device->clamped_submits(), 0u) << where;
  expect_same_device(*reference_device, *device, setup.tenants, where);
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
