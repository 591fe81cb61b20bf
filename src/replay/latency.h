// rdsim/replay/latency.h
//
// Latency analysis over completion records: full empirical latency CDFs
// per command kind, and moving windowed percentiles (p50/p99/p999 of read
// latency per fixed window of *simulated* time). CompletionStats gives
// point quantiles over a whole run; this layer answers the distributional
// questions trace studies ask — "what does the tail look like, and when
// does it spike?" — from the same Completion records, with no dependence
// on delivery order (windows are indexed by completion timestamp, so any
// worker count and drain cadence yields identical tables).
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "host/command.h"

namespace rdsim::replay {

/// Percentile summary of one simulated-time window of read completions.
struct WindowRow {
  double window_start_s = 0.0;  ///< Window start, relative to the origin.
  std::uint64_t reads = 0;      ///< Read completions in the window.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Accumulates completions into per-kind latency histograms (for CDFs)
/// and per-window read histograms (for moving percentiles). Latencies are
/// tracked in microseconds over [0, max_latency_us) with uniform bins;
/// out-of-range tails clamp into the last bin (Histogram's convention),
/// so pick max_latency_us above the worst stall you expect to resolve.
class LatencyTracker {
 public:
  /// `window_s` is the moving-percentile window in simulated seconds.
  LatencyTracker(double window_s, double max_latency_us = 50000.0,
                 std::size_t bins = 5000);

  /// Completion timestamps are bucketed relative to this origin (e.g. the
  /// device clock when replay started). Call before the first observe().
  void set_origin(double origin_s) { origin_s_ = origin_s; }

  void observe(const host::Completion& c);

  std::uint64_t observed() const { return observed_; }

  /// Full-run latency histogram for one command kind (microseconds).
  const Histogram& histogram(host::CommandKind kind) const;

  /// Convenience: full-run read-latency quantile in microseconds.
  double read_quantile_us(double q) const;

  /// Moving read percentiles, one row per window from the origin through
  /// the last observed completion (empty windows included, with zero
  /// counts, so the time axis has no gaps).
  std::vector<WindowRow> window_rows() const;

 private:
  double window_s_;
  double origin_s_ = 0.0;
  double max_latency_us_;
  std::size_t bins_;
  std::uint64_t observed_ = 0;
  std::vector<Histogram> by_kind_;
  std::vector<Histogram> windows_;  ///< Read latencies, per window index.
};

}  // namespace rdsim::replay
