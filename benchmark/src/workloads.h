// rdbench/workloads.h
//
// The benchmark's five workloads. Each one builds its drive (or fleet)
// through rdsim's public API, generates its seeded traffic before every
// timed interval, and drives it the way an experiment does, so the host
// time it measures is the time a user's run would spend in the same calls.
//
// An operation is one submitted command, or one drive-epoch for the
// fleet. It fails when its completion is missing or duplicated, when it
// completes before it was submitted, or (fleet) when that epoch's
// checkpoint does not validate; the harness adds a whole repetition's
// operations when its digest disagrees with the other repetitions'.
// Simulated statuses (uncorrectable reads, failed writes) are model
// output, never failures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "host/servicer.h"
#include "report.h"
#include "tracer.h"

namespace rdbench {

struct RunConfig {
  int workers = 4;            ///< Pool width, counting the calling thread.
  Tracer* tracer = nullptr;   ///< Records spans when set.
};

/// Deterministic simulated output of one repetition, printed beside its
/// digest. Information only: these are model results, not host speed.
struct SimSummary {
  double drive_days = 0.0;   ///< Simulated drive-days covered.
  double iops = 0.0;         ///< Commands per simulated second.
  double read_p50_us = 0.0;  ///< Simulated read latency quantiles.
  double read_p99_us = 0.0;
  double latency_ceiling_us = 0.0;  ///< Histogram clamp: a quantile equal
                                    ///< to it is a floor, not a value.
  double uber = 0.0;
  double stall_share = 0.0;  ///< Background stall / summed latency.
  rdsim::host::ErrorStats errors;  ///< Recovery-ladder counts.
  double write_amp = 0.0;    ///< FTL write amplification (analytic).
  std::uint64_t gc_erases = 0;
};

struct Repetition {
  double setup_s = 0.0;  ///< Build the drive or fleet, pre-age, warm-fill.
  double gen_s = 0.0;    ///< Traffic generation (excluded from wall_s).
  double wall_s = 0.0;   ///< The measured phase.
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint32_t digest = 0;  ///< CRC32 of the completion log or table.
  SimSummary sim;
  std::vector<std::string> problems;  ///< One line per failed check.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One repetition from fresh state (a new drive or fleet, the same
  /// seeded traffic). Keeps the end state for probe().
  virtual Repetition run(const RunConfig& config) = 0;

  struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };

  /// Checks only the traced run makes beyond the 1-worker digest (the
  /// fleet's mid-run resume), against the scored repetitions' digest.
  virtual Outcome extra_checks(std::uint32_t reference_digest,
                               std::vector<std::string>* problems) {
    (void)reference_digest;
    (void)problems;
    return {};
  }

  /// Per-layer probes on the last repetition's end state; spans of the
  /// traced repetitions are in `tracer`.
  virtual void probe(const Tracer& tracer, Metrics* out) = 0;
};

const std::vector<std::string_view>& workload_names();

/// nullptr for an unknown name. Temporary files go under `scratch_dir`.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir);

}  // namespace rdbench
