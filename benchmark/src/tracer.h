// rdbench/tracer.h
//
// Host-time instrumentation of the benchmark's own calls into rdsim.
//
// Stopwatch times every call a workload makes into a layer and sorts the
// time into set-up, traffic generation (both excluded from wall_s) and the
// measured phase. With a Tracer attached, each timed call is also kept as a
// span: (layer, call, start, duration, repetition). Spans stay in memory
// and are written once, as Chrome trace-event JSON, when the run ends; the
// per-layer metrics are aggregates over them. Untraced runs attach no
// Tracer, so the end-to-end numbers never pay for span bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

class Tracer {
 public:
  /// One timed call. `layer` and `call` point at string literals.
  struct Span {
    const char* layer;
    const char* call;
    double start_s;  ///< Since the tracer was constructed.
    double dur_s;
    int track;       ///< Repetition the span belongs to (-1: probes).
  };

  Tracer() : origin_(Clock::now()) {}

  /// Spans recorded from now on belong to repetition `track`; -1 marks
  /// the probes that run after the scored repetitions.
  void set_track(int track) { track_ = track; }

  void record(const char* layer, const char* call, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back({layer, call, seconds_between(origin_, start),
                      seconds_between(start, end), track_});
  }

  /// Durations (seconds) of every span named `call`.
  std::vector<double> durations(std::string_view call) const;
  /// Per repetition that made any `call`, the summed duration of those
  /// calls (seconds).
  std::vector<double> track_totals(std::string_view call) const;

  /// Writes the spans as Chrome trace-event JSON (one thread per
  /// repetition), keeping the first `per_call_cap` spans of each call so
  /// a run with a span per burst window stays a file a viewer opens.
  bool write_chrome_json(const std::string& path,
                         std::size_t per_call_cap = 5000) const;

 private:
  Clock::time_point origin_;
  int track_ = -1;
  std::vector<Span> spans_;
};

/// Sorts the host time of one repetition's calls into set-up, traffic
/// generation and the measured phase, and records them as spans when a
/// tracer is attached.
class Stopwatch {
 public:
  explicit Stopwatch(Tracer* tracer) : tracer_(tracer) {}

  template <typename Fn>
  void setup(const char* layer, const char* call, Fn&& fn) {
    setup_s_ += time(layer, call, fn);
  }
  template <typename Fn>
  void generate(const char* call, Fn&& fn) {
    gen_s_ += time("workload", call, fn);
  }
  template <typename Fn>
  void measure(const char* layer, const char* call, Fn&& fn) {
    wall_s_ += time(layer, call, fn);
  }

  double setup_s() const { return setup_s_; }
  double gen_s() const { return gen_s_; }
  double wall_s() const { return wall_s_; }
  bool tracing() const { return tracer_ != nullptr; }

 private:
  template <typename Fn>
  double time(const char* layer, const char* call, Fn& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    if (tracer_ != nullptr) tracer_->record(layer, call, start, end);
    return seconds_between(start, end);
  }

  Tracer* tracer_;
  double setup_s_ = 0.0;
  double gen_s_ = 0.0;
  double wall_s_ = 0.0;
};

}  // namespace rdbench
