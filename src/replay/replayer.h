// rdsim/replay/replayer.h
//
// The trace replayer: pulls requests from a StreamingTraceReader in
// bounded windows, remaps their LBAs onto the device, and drives any
// host::Device backend in one of two disciplines:
//
//   * open-loop  — arrival-timestamp-faithful: each command is submitted
//     at its trace time (divided by `speedup`), offset to the device
//     clock at replay start so arrivals never land inside warm-up work.
//     Each window is submitted whole, then drained, so memory stays
//     O(window). Out-of-order trace times are clamped monotone by
//     host::Device::submit.
//   * closed-loop — QD-bounded via ClosedLoopDriver: trace timestamps
//     are ordering only; a slot frees when the earliest in-flight
//     completion lands.
//
// Parsing stays on the calling thread; docs/ARCHITECTURE.md says why a
// reader thread parsing ahead is not used.
//
// Both disciplines feed every drained completion to the same
// LatencyTracker and append it to the log, which is sorted into
// completion_log_order at the end only if it is not already in that
// order (a one-shard open-loop log is). Both are deterministic: the
// completion log is a pure function of (trace, device, options),
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

/// Replays the trace in `in` against `device`. Completions are observed
/// by *tracker (its origin is set to the device clock at replay start)
/// and, when `log` is non-null, added to it; the whole vector, records
/// it held before the call included, ends in completion_log_order. The
/// device is fully drained on return; its stats() aggregate the replay
/// together with anything it completed since its last reset_stats().
/// A malformed line throws std::runtime_error ("line N: ...") after every
/// whole window before it has been replayed.
void replay_trace(std::istream& in, host::Device& device,
                  const ReplayOptions& options, LatencyTracker* tracker,
                  std::vector<host::Completion>* log = nullptr);

}  // namespace rdsim::replay
