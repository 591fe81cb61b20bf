// Oracle test for burst-window replay (host::BurstWindowDriver over
// Device::run_burst_windows). The device runs the shard physics of many
// windows ahead and stamps and times them window by window behind, so
// the reference below is the obvious loop: submit a window at the clock,
// drain the device, advance the clock to the window's last completion.
// On seeded random batches — every command kind, flushes and zero-page
// commands inside windows, wrapping lpns, batches longer than the
// lookahead (analytic shards), shorter than one window and empty — both
// must produce the same records in the same sink order, the same
// statistics, stall ledgers, error counters, clamp count and clocks,
// under every arbitration policy, at windows from 1 to larger than the
// lookahead, on Monte Carlo and analytic shards, at any shard and worker
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "device_oracle.h"
#include "host/device.h"
#include "host/driver.h"

namespace rdsim::host {
namespace {

using namespace oracle;

/// The submit-per-window reference: every command of a window submitted
/// at the window's clock, one drain() per window, the clock advanced to
/// the last record drained. Returns the clock for the next batch.
double reference_run(Device& device, const std::vector<Command>& commands,
                     std::size_t window, double clock_s,
                     std::vector<Completion>* sink) {
  std::vector<Completion> records;
  for (std::size_t i = 0; i < commands.size();) {
    const std::size_t end = std::min(commands.size(), i + window);
    for (; i < end; ++i) {
      Command c = commands[i];
      c.submit_time_s = clock_s;
      device.submit(c);
    }
    records.clear();
    device.drain(&records);
    if (sink != nullptr)
      sink->insert(sink->end(), records.begin(), records.end());
    clock_s = std::max(clock_s, records.back().complete_time_s);
  }
  return clock_s;
}

struct Setup {
  Backend backend;
  std::uint32_t shards;
  int workers;
  ArbitrationPolicy policy;
  std::uint32_t tenants;
  std::size_t window;
  bool sink;

  std::string name() const {
    return std::string(backend_name(backend)) +
           " shards=" + std::to_string(shards) +
           " workers=" + std::to_string(workers) + " policy=" +
           arbitration_policy_name(policy) +
           " tenants=" + std::to_string(tenants) +
           " window=" + std::to_string(window) + (sink ? " sink" : "");
  }
};

/// Replays five batches — a long one, one shorter than the window, an
/// empty one and two more — through the reference and through
/// run_burst_windows on twin devices, the clock carried across batches,
/// with nightly maintenance and out-of-band traffic stamped ahead of the
/// clock between batches (so window stamps get clamped), and compares
/// everything observable.
void check_against_reference(const Setup& setup) {
  const std::string where = setup.name();
  auto reference_device = make_drive(setup.backend, setup.shards,
                                     setup.workers, setup.policy,
                                     setup.tenants);
  auto device = make_drive(setup.backend, setup.shards, setup.workers,
                           setup.policy, setup.tenants);
  std::vector<Completion> want;
  std::vector<Completion> got;
  double want_clock = reference_device->now_s();
  double got_clock = device->now_s();

  std::mt19937_64 rng(0xb0257000u + setup.shards * 131u +
                      static_cast<unsigned>(setup.policy) * 17u +
                      setup.tenants * 7u +
                      static_cast<unsigned>(setup.window));
  const std::uint64_t logical = device->logical_pages();
  // On analytic shards the first batch spans more than 4096 commands, the
  // lookahead, and more than one 5000-command window; chip physics is
  // too slow for that many, and its passes take the same path.
  const std::size_t first = setup.backend == Backend::kAnalytic
                                ? 5100 + rng() % 400
                                : 200 + rng() % 200;
  const std::size_t sizes[] = {first, rng() % setup.window, 0,
                               300 + rng() % 300, 70 + rng() % 60};
  for (std::size_t b = 0; b < std::size(sizes); ++b) {
    const std::vector<Command> batch = random_batch(rng, sizes[b], logical);
    want_clock = reference_run(*reference_device, batch, setup.window,
                               want_clock, setup.sink ? &want : nullptr);
    got_clock = device->run_burst_windows(batch, setup.window, got_clock,
                                          setup.sink ? &got : nullptr);
    EXPECT_EQ(want_clock, got_clock) << where << " batch " << b;
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
  const std::size_t windows[] = {1, 7, 16, 64, 5000};
  for (const auto& width : widths)
    for (ArbitrationPolicy policy : policies)
      for (std::size_t w = 0; w < std::size(windows); ++w) {
        // Two or three tenants, and the sink set or not, alternately.
        const auto tenants = static_cast<std::uint32_t>(2 + w % 2);
        const bool sink = (w + static_cast<std::size_t>(policy)) % 2 == 0;
        check_against_reference({backend, width.shards, width.workers,
                                 policy, tenants, windows[w], sink});
      }
}

TEST(BurstWindowOracle, MonteCarloShardsMatchTheDrainPerWindowReference) {
  check_backend(Backend::kMonteCarlo);
}

TEST(BurstWindowOracle, AnalyticShardsMatchTheDrainPerWindowReference) {
  check_backend(Backend::kAnalytic);
}

TEST(BurstWindowOracle, RefusesToStartOnADeviceThatIsNotQuiet) {
  auto device = make_drive(Backend::kAnalytic, /*shard_count=*/4,
                           /*workers=*/4, ArbitrationPolicy::kWeighted,
                           /*tenants=*/2);
  std::mt19937_64 rng(5);
  const std::vector<Command> batch =
      random_batch(rng, 40, device->logical_pages());
  std::vector<Completion> sink;
  device->submit(batch.front());
  EXPECT_THROW(device->run_burst_windows(batch, 16, device->now_s(), &sink),
               std::logic_error);
  // Serviced through stats() but not delivered: still not quiet.
  device->stats();
  BurstWindowDriver driver(*device, 16);
  driver.set_completion_sink(&sink);
  EXPECT_THROW(driver.run(batch), std::logic_error);
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(device->outstanding(), 1u);

  std::vector<Completion> drained;
  EXPECT_EQ(device->drain(&drained), 1u);
  driver.run(batch);
  EXPECT_EQ(sink.size(), batch.size());
  EXPECT_EQ(device->outstanding(), 0u);
}

}  // namespace
}  // namespace rdsim::host
