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
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "common/datafile.h"
#include "replay/latency.h"
#include "sim/experiments.h"

namespace rdsim::sim {

Table run_fig_trace_replay(ExperimentContext& ctx) {
  const std::string trace_path =
      find_test_data("msr_cambridge_sample.csv");
  if (trace_path.empty())
    throw std::runtime_error(
        "cannot locate tests/data/msr_cambridge_sample.csv (set "
        "RDSIM_DATA_DIR or run from the repo/build tree)");

  const bool full_scale = ctx.scale() >= 1.0;
  const double kWindowS = 0.5;
  const std::uint64_t drive_seed = 19 + (ctx.seed() - 42);

  // One spec per (backend, mode) combo. An analytic drive is
  // warm-filled; the MC chips are pre-aged.
  std::vector<cfg::ScenarioSpec> specs;
  for (const bool mc : {false, true}) {
    for (const replay::ReplayMode mode :
         {replay::ReplayMode::kOpen, replay::ReplayMode::kClosed}) {
      cfg::ScenarioSpec spec;
      if (!mc) {
        spec.drive.blocks = full_scale ? 512 : 64;
        spec.drive.pages_per_block = full_scale ? 128 : 32;
        spec.drive.overprovision = 0.2;
        spec.drive.gc_free_target = 4;
      } else {
        nand::Geometry shard_geometry = ctx.geometry();
        shard_geometry.blocks = full_scale ? 4 : 2;
        spec.drive = mc_drive(shard_geometry, 4, 8000);
      }
      spec.trace.path = trace_path;
      spec.trace.format = replay::TraceFormat::kMsr;
      spec.trace.remap = replay::RemapPolicy::kHash;
      spec.trace.mode = mode;
      spec.trace.queue_depth = 8;
      // The sample spans ~116 s of light traffic; compressing 50x forces
      // arrivals into the flash service times so open-loop queueing (and
      // the moving-percentile windows) have something to show.
      spec.trace.speedup = 50.0;
      specs.push_back(spec);
    }
  }

  struct ComboResult {
    std::string row;
    replay::LatencyTracker tracker;
  };
  const std::vector<ComboResult> results = sweep_drives(
      ctx, specs, drive_seed,
      [&](const cfg::ScenarioSpec& spec, host::Device& device) {
        ComboResult r{{}, replay::LatencyTracker(kWindowS, 1e5, 20000)};
        // A 64-record window exercises the streaming path: 200 records,
        // 4 chunks. Warm fill resets the statistics and MC drives start
        // empty, so they cover exactly the replay.
        replay_spec_trace(spec.trace, device, &r.tracker, 64);
        const host::CompletionStats& stats = device.stats();
        r.row = strf(
            "%s,%s,%llu,%llu,%llu,%s,%.1f,%.1f,%.1f,%.6f",
            cfg::backend_name(spec.drive.backend),
            std::string(name(spec.trace.mode)).c_str(),
            static_cast<unsigned long long>(stats.commands()),
            static_cast<unsigned long long>(
                stats.commands(host::CommandKind::kRead)),
            static_cast<unsigned long long>(
                stats.commands(host::CommandKind::kWrite)),
            status_columns(stats, host::Status::kOk,
                           host::Status::kUncorrectable)
                .c_str(),
            r.tracker.read_quantile_us(0.50),
            r.tracker.read_quantile_us(0.99),
            r.tracker.read_quantile_us(0.999), stats.stall_seconds());
        return r;
      });

  Table table;
  table.comment(
      "Trace replay: MSR sample (200 records, hash remap) vs backend and "
      "replay discipline; per-status counts from the ECC/retry/RDR error "
      "path");
  table.row(
      "backend,mode,commands,reads,writes,ok,corrected,recovered,"
      "uncorrectable,read_p50_us,read_p99_us,read_p999_us,stall_s");
  for (const ComboResult& r : results) table.row(r.row);

  // Sections 2/3 drill into the sharded-MC open-loop combo.
  const replay::LatencyTracker& detail = results[2].tracker;
  table.new_section();
  table.comment(
      "Read-latency CDF, sharded_mc open-loop (one point per non-empty "
      "5us bin; Histogram::cdf_points upper-edge convention)");
  table.row("latency_us,cum_fraction");
  for (const auto& p :
       detail.histogram(host::CommandKind::kRead).cdf_points())
    table.row(strf("%.1f,%.6f", p.value, p.fraction));

  table.new_section();
  table.comment(strf(
      "Moving read percentiles, sharded_mc open-loop (%.0f ms windows of "
      "simulated time from replay start)",
      kWindowS * 1e3));
  table.row("window_start_s,reads,p50_us,p99_us,p999_us");
  for (const replay::WindowRow& w : detail.window_rows())
    table.row(strf("%.3f,%llu,%.1f,%.1f,%.1f", w.window_start_s,
                   static_cast<unsigned long long>(w.reads), w.p50_us,
                   w.p99_us, w.p999_us));
  return table;
}

}  // namespace rdsim::sim
