// rdsim/host/driver.h
//
// Host-side driving patterns shared by the QoS experiments, the
// benchmark, the examples, and the tests: warm-up hygiene (warm_fill),
// fixed-depth closed-loop replay and burst-window replay (ClosedLoopDriver
// and BurstWindowDriver, handles that carry the clock across batches; the
// slot or window accounting and re-stamping live in
// Device::run_closed_loop and Device::run_burst_windows).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "host/device.h"

namespace rdsim::host {

/// Fills the device's whole logical space once (ascending lpn order) so
/// every subsequent read hits mapped data, then discards the warm-up
/// completions and statistics. Works for any backend: on a striped
/// device the ascending-lpn pass round-robins the shards, so each
/// shard's chip is filled (and turned over) evenly. The fill still
/// occupies the flash timeline(s) — start the workload clock at
/// device.now_s() (or drive it closed-loop) so measured commands don't
/// queue behind the fill.
inline void warm_fill(Device& device) {
  Command write;
  write.kind = CommandKind::kWrite;
  const std::uint64_t logical = device.logical_pages();
  for (std::uint64_t lpn = 0; lpn < logical; ++lpn) {
    write.lpn = lpn;
    device.submit(write);
  }
  std::vector<Completion> scratch;
  device.drain(&scratch);
  device.reset_stats();
}

/// Closed-loop (zero think time) replay at a fixed queue depth: keeps at
/// most `depth` commands outstanding and re-stamps each command's submit
/// time to the instant a completion freed a slot — the fio-style QD
/// benchmark pattern. The clock carries across run() calls, so a
/// multi-day replay with Device::end_of_day() between batches stays
/// monotone. The replay itself is Device::run_closed_loop, which knows
/// each shard's service order before any stamp and so runs the batch's
/// shard physics in parallel up front; run() must start on a quiet device
/// (nothing outstanding).
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(Device& device, int depth)
      : device_(&device),
        depth_(static_cast<std::size_t>(depth < 1 ? 1 : depth)),
        release_s_(device.now_s()) {}

  /// Optional completion sink: every record of a batch is appended to
  /// *sink exactly once (the first `depth` in completion_log_order, then
  /// the rest in submission order), so callers that need the completion
  /// log — the trace replayer's latency CDFs — can drive closed-loop
  /// without draining themselves. nullptr (the default) disables it; the
  /// replay schedule is unaffected either way.
  void set_completion_sink(std::vector<Completion>* sink) { sink_ = sink; }

  /// Replays one batch of commands (submit-time stamps are overwritten);
  /// every command has completed when it returns.
  void run(const std::vector<Command>& commands) {
    release_s_ = device_->run_closed_loop(commands, depth_, release_s_, sink_);
  }

 private:
  Device* device_;
  std::size_t depth_;
  double release_s_;
  std::vector<Completion>* sink_ = nullptr;
};

/// Burst-window replay: replays commands in fixed-size windows, every
/// command in a window re-stamped with the same submit time (the window's
/// opening clock), each window serviced as one co-pending set, and the
/// clock advanced to the window's last completion. Where ClosedLoopDriver
/// trickles one command per freed slot (the pending set a policy sees is
/// nearly empty), a whole window is co-pending here — which is what gives
/// a reordering arbitration policy real choices to make, so the
/// multi-tenant QoS experiments drive with this; the window size plays
/// the queue-depth role. Deterministic for the same reason as
/// ClosedLoopDriver: the schedule is a pure function of the command
/// stream and the window size. The replay itself is
/// Device::run_burst_windows, which knows many windows' service order
/// before their stamps (except under deadline) and so runs their shard
/// physics in parallel ahead of their timing; run() must start on a
/// quiet device (nothing outstanding).
class BurstWindowDriver {
 public:
  BurstWindowDriver(Device& device, int window)
      : device_(&device),
        window_(static_cast<std::size_t>(window < 1 ? 1 : window)),
        clock_s_(device.now_s()) {}

  /// Optional completion sink: every record is appended exactly once,
  /// window by window, each window in completion_log_order.
  void set_completion_sink(std::vector<Completion>* sink) { sink_ = sink; }

  /// Replays one batch of commands (submit-time stamps are overwritten
  /// window by window). The clock carries across run() calls.
  void run(const std::vector<Command>& commands) {
    clock_s_ = device_->run_burst_windows(commands, window_, clock_s_, sink_);
  }

 private:
  Device* device_;
  std::size_t window_;
  double clock_s_;
  std::vector<Completion>* sink_ = nullptr;
};

}  // namespace rdsim::host
