// rdsim/replay/replayer.h
//
// The trace replayer: pulls requests from a StreamingTraceReader in
// bounded windows, remaps their LBAs onto the device, and drives any
// host::Device backend in one of two disciplines:
//
//   * open-loop  — arrival-timestamp-faithful: each command is submitted
//     at its trace time (divided by `speedup`), offset to the device
//     clock at replay start so arrivals never land inside warm-up work.
//     Whole windows are submitted before draining, lending the sharded
//     backend's pump full lookahead segments (its merge needs to see the
//     frontier of every queue). Out-of-order trace times are clamped
//     monotone by host::Device::submit.
//   * closed-loop — QD-bounded via ClosedLoopDriver: trace timestamps
//     are ordering only; a slot frees when the earliest in-flight
//     completion lands.
//
// Both disciplines feed every drained completion to the same
// LatencyTracker and per-status accounting, and both are deterministic:
// the completion log is a pure function of (trace, device, options),
// byte-identical at any worker count.
#pragma once

#include <cstdint>
#include <istream>
#include <vector>

#include "host/command.h"
#include "replay/latency.h"
#include "replay/options.h"

namespace rdsim::host {
class Device;
}

namespace rdsim::replay {

struct ReplayOptions {
  TraceFormat format = TraceFormat::kAuto;
  RemapPolicy remap = RemapPolicy::kModulo;
  ReplayMode mode = ReplayMode::kOpen;
  std::uint32_t queue_depth = 16;  ///< Closed-loop QD (ignored open-loop).
  double speedup = 1.0;            ///< Open-loop time compression (>= 1e-6).
  std::uint32_t page_bytes = 8192; ///< MSR byte->page conversion.
  std::size_t window = 4096;       ///< Streaming chunk size (memory bound).
};

/// What a replay did, aggregated from the completion records.
struct ReplaySummary {
  std::uint64_t commands = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t status_counts[host::kStatusCount] = {};
  double first_submit_s = 0.0;
  double last_complete_s = 0.0;
  double stall_seconds = 0.0;
};

/// Replays the trace in `in` against `device`. Completions are observed
/// by *tracker (its origin is set to the device clock at replay start)
/// and, when `log` is non-null, appended to it in completion_log_order.
/// Returns the aggregate summary. The device is fully drained on return.
ReplaySummary replay_trace(std::istream& in, host::Device& device,
                           const ReplayOptions& options,
                           LatencyTracker* tracker,
                           std::vector<host::Completion>* log = nullptr);

}  // namespace rdsim::replay
