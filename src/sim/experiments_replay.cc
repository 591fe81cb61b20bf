// fig_trace_replay: the checked-in MSR-Cambridge sample trace
// (tests/data/msr_cambridge_sample.csv) replayed through the analytic
// and sharded Monte Carlo backends, open- and closed-loop — the "what
// does mitigation + ECC escalation cost on real traffic?" view the paper
// motivates. Section 1 summarizes each (backend, mode) combo with
// per-status completion counts (PR 7's error path) and read percentiles;
// sections 2 and 3 drill into the sharded-MC open-loop run with the full
// read-latency CDF and moving windowed percentiles from
// replay::LatencyTracker. Golden-pinned: every number derives from
// simulated clocks and counter-based RNG streams, so the table is
// byte-identical at any worker count.
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/spec.h"
#include "common/datafile.h"
#include "replay/latency.h"
#include "replay/replayer.h"
#include "sim/experiments.h"

namespace rdsim::sim {

namespace {

/// One (backend, mode) replay pass over the sample trace. The tracker
/// must outlive the call (sections 2/3 read it after the loop).
void replay_combo(host::Device& device, const std::string& trace_path,
                  replay::ReplayMode mode, double speedup,
                  replay::LatencyTracker* tracker) {
  std::ifstream file(trace_path);
  if (!file)
    throw std::runtime_error("cannot open trace file '" + trace_path + "'");
  replay::ReplayOptions opts;
  opts.format = replay::TraceFormat::kMsr;
  opts.remap = replay::RemapPolicy::kHash;
  opts.mode = mode;
  opts.queue_depth = 8;
  opts.speedup = speedup;
  opts.window = 64;  // Exercise the streaming path: 200 records, 4 chunks.
  replay::replay_trace(file, device, opts, tracker);
}

}  // namespace

Table run_fig_trace_replay(ExperimentContext& ctx) {
  using host::CommandKind;
  using host::Status;
  const std::string trace_path =
      find_test_data("msr_cambridge_sample.csv");
  if (trace_path.empty())
    throw std::runtime_error(
        "cannot locate tests/data/msr_cambridge_sample.csv (set "
        "RDSIM_DATA_DIR or run from the repo/build tree)");

  const bool full_scale = ctx.scale() >= 1.0;
  // The sample spans ~116 s of light traffic; compressing 50x forces
  // arrivals into the flash service times so open-loop queueing (and the
  // moving-percentile windows) have something to show.
  const double kSpeedup = 50.0;
  const double kWindowS = 0.5;
  const std::uint64_t drive_seed = 19 + (ctx.seed() - 42);
  const int workers = ctx.pool().thread_count();

  struct Combo {
    const char* backend;
    replay::ReplayMode mode;
  };
  const Combo combos[] = {
      {"analytic", replay::ReplayMode::kOpen},
      {"analytic", replay::ReplayMode::kClosed},
      {"sharded_mc", replay::ReplayMode::kOpen},
      {"sharded_mc", replay::ReplayMode::kClosed},
  };

  Table table;
  table.comment(
      "Trace replay: MSR sample (200 records, hash remap) vs backend and "
      "replay discipline; per-status counts from the ECC/retry/RDR error "
      "path");
  table.row(
      "backend,mode,commands,reads,writes,ok,corrected,recovered,"
      "uncorrectable,read_p50_us,read_p99_us,read_p999_us,stall_s");

  // Trackers live here so the sharded-MC open-loop one feeds sections
  // 2/3 after the summary loop. The drives run serially: the sharded
  // backend owns the worker pool for its shards, same as fig_qos_mc.
  std::vector<replay::LatencyTracker> trackers;
  trackers.reserve(std::size(combos));
  const replay::LatencyTracker* detail = nullptr;

  for (const Combo& combo : combos) {
    // An analytic drive is warm-filled; the MC chips are pre-aged.
    cfg::ScenarioSpec spec;
    if (std::string_view(combo.backend) == "analytic") {
      spec.drive.blocks = full_scale ? 512 : 64;
      spec.drive.pages_per_block = full_scale ? 128 : 32;
      spec.drive.overprovision = 0.2;
      spec.drive.gc_free_target = 4;
    } else {
      nand::Geometry shard_geometry = ctx.geometry();
      shard_geometry.blocks = full_scale ? 4 : 2;
      spec.drive = mc_drive(shard_geometry, 4, 8000);
    }
    const std::unique_ptr<host::Device> device =
        build_drive(spec, drive_seed, workers);

    trackers.emplace_back(kWindowS, 1e5, 20000);
    replay::LatencyTracker& tracker = trackers.back();
    replay_combo(*device, trace_path, combo.mode, kSpeedup, &tracker);
    // Warm fill resets the statistics and MC drives start empty, so
    // they cover exactly the replay.
    const host::CompletionStats& stats = device->stats();
    if (spec.drive.backend == cfg::Backend::kShardedMc &&
        combo.mode == replay::ReplayMode::kOpen)
      detail = &tracker;

    table.row(strf(
        "%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.1f,%.1f,%.1f,%.6f",
        combo.backend, std::string(name(combo.mode)).c_str(),
        static_cast<unsigned long long>(stats.commands()),
        static_cast<unsigned long long>(stats.commands(CommandKind::kRead)),
        static_cast<unsigned long long>(stats.commands(CommandKind::kWrite)),
        static_cast<unsigned long long>(stats.commands(Status::kOk)),
        static_cast<unsigned long long>(stats.commands(Status::kCorrected)),
        static_cast<unsigned long long>(stats.commands(Status::kRecovered)),
        static_cast<unsigned long long>(
            stats.commands(Status::kUncorrectable)),
        tracker.read_quantile_us(0.50), tracker.read_quantile_us(0.99),
        tracker.read_quantile_us(0.999), stats.stall_seconds()));
  }

  table.new_section();
  table.comment(
      "Read-latency CDF, sharded_mc open-loop (one point per non-empty "
      "5us bin; Histogram::cdf_points upper-edge convention)");
  table.row("latency_us,cum_fraction");
  for (const auto& p :
       detail->histogram(host::CommandKind::kRead).cdf_points())
    table.row(strf("%.1f,%.6f", p.value, p.fraction));

  table.new_section();
  table.comment(strf(
      "Moving read percentiles, sharded_mc open-loop (%.0f ms windows of "
      "simulated time from replay start)",
      kWindowS * 1e3));
  table.row("window_start_s,reads,p50_us,p99_us,p999_us");
  for (const replay::WindowRow& w : detail->window_rows())
    table.row(strf("%.3f,%llu,%.1f,%.1f,%.1f", w.window_start_s,
                   static_cast<unsigned long long>(w.reads), w.p50_us,
                   w.p99_us, w.p999_us));
  return table;
}

}  // namespace rdsim::sim
