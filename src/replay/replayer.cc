#include "replay/replayer.h"

#include <algorithm>

#include "host/device.h"
#include "host/driver.h"
#include "replay/remap.h"
#include "replay/trace_reader.h"
#include "workload/trace.h"

namespace rdsim::replay {
namespace {

/// Folds one drained batch into the summary/tracker/log.
void absorb(const std::vector<host::Completion>& batch,
            ReplaySummary* summary, LatencyTracker* tracker,
            std::vector<host::Completion>* log) {
  for (const host::Completion& c : batch) {
    ++summary->commands;
    if (c.kind == host::CommandKind::kRead) ++summary->reads;
    if (c.kind == host::CommandKind::kWrite) ++summary->writes;
    ++summary->status_counts[static_cast<std::size_t>(c.status)];
    summary->stall_seconds += c.stall_s;
    if (summary->commands == 1 || c.submit_time_s < summary->first_submit_s)
      summary->first_submit_s = c.submit_time_s;
    summary->last_complete_s =
        std::max(summary->last_complete_s, c.complete_time_s);
    if (tracker != nullptr) tracker->observe(c);
  }
  if (log != nullptr) log->insert(log->end(), batch.begin(), batch.end());
}

host::Command to_command(const workload::IoRequest& r, std::uint64_t seq,
                         std::uint32_t queues) {
  host::Command c;
  c.kind =
      r.is_write ? host::CommandKind::kWrite : host::CommandKind::kRead;
  c.lpn = r.lpn;
  c.pages = r.pages;
  c.queue = static_cast<std::uint16_t>(seq % queues);
  c.submit_time_s = r.time_s;
  return c;
}

}  // namespace

ReplaySummary replay_trace(std::istream& in, host::Device& device,
                           const ReplayOptions& options,
                           LatencyTracker* tracker,
                           std::vector<host::Completion>* log) {
  StreamingTraceReader reader(in, options.format, options.page_bytes);
  const LbaRemapper remapper(options.remap, device.logical_pages());
  const double origin_s = device.now_s();
  if (tracker != nullptr) tracker->set_origin(origin_s);

  const std::size_t window = std::max<std::size_t>(1, options.window);
  const double speedup = std::max(1e-6, options.speedup);
  const std::uint32_t queues = std::max(1u, device.queue_count());

  ReplaySummary summary;
  std::vector<workload::IoRequest> chunk;
  std::vector<host::Completion> drained;
  std::uint64_t seq = 0;

  if (options.mode == ReplayMode::kOpen) {
    // Arrival-faithful: trace time (compressed by speedup, a negative time
    // counting as 0) offset to the device clock at replay start. A trace
    // with out-of-order timestamps is clamped monotone by Device::submit.
    while (reader.read_chunk(window, &chunk) > 0) {
      for (workload::IoRequest& r : chunk) {
        remapper.apply(&r);
        host::Command c = to_command(r, seq++, queues);
        c.submit_time_s = origin_s + std::max(0.0, r.time_s) / speedup;
        device.submit(c);
      }
      // Drain once per window: the backend pump sees a full lookahead
      // segment, and memory stays O(window).
      drained.clear();
      device.drain(&drained);
      absorb(drained, &summary, tracker, log);
    }
  } else {
    // QD-bounded: the driver re-stamps submit times as slots free; trace
    // timestamps only fix the submission order.
    host::ClosedLoopDriver driver(device, static_cast<int>(
                                              options.queue_depth));
    std::vector<host::Completion> sunk;
    driver.set_completion_sink(&sunk);
    std::vector<host::Command> commands;
    while (reader.read_chunk(window, &chunk) > 0) {
      commands.clear();
      for (workload::IoRequest& r : chunk) {
        remapper.apply(&r);
        commands.push_back(to_command(r, seq++, queues));
      }
      driver.run(commands);
      absorb(sunk, &summary, tracker, log);
      sunk.clear();
    }
  }

  // Final sweep (open-loop always needs it; closed-loop run() already
  // drains, so this is a cheap no-op there) and a globally ordered log:
  // batches drained early can straddle later-submitted commands that
  // completed earlier on an idle shard.
  drained.clear();
  device.drain(&drained);
  absorb(drained, &summary, tracker, log);
  if (log != nullptr)
    std::sort(log->begin(), log->end(), host::completion_log_order);
  return summary;
}

}  // namespace rdsim::replay
