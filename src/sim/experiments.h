// rdsim/sim/experiments.h
//
// Internal declarations of the individual experiment functions, one group
// per experiments_<group>.cc file: analytic (closed-form RberModel /
// EnduranceEvaluator sweeps), chip (Monte-Carlo nand::Chip experiments),
// system (whole-SSD endurance, queued-drive QoS, DRAM RowHammer), tenants,
// reliability, replay, scenario (with the shared drive helpers) and fleet.
// The registry in experiment.cc stitches these into the public list.
//
// Every queued-drive figure (fig_qos, fig_qos_mc, fig_qos_tenants,
// fig_reliability, fig_trace_replay, scenario) describes its drive as a
// cfg::ScenarioSpec and brings it up with build_drive; the sweeping
// figures do so through sweep_drives. Generated traffic then runs
// through drive_days, trace files through replay::replay_trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cfg/spec.h"
#include "host/device.h"
#include "replay/replayer.h"
#include "sim/experiment.h"

namespace rdsim::sim {

// experiments_analytic.cc
Table run_fig03(ExperimentContext& ctx);
Table run_fig04(ExperimentContext& ctx);
Table run_fig05(ExperimentContext& ctx);
Table run_fig06(ExperimentContext& ctx);
Table run_fig07(ExperimentContext& ctx);
Table run_ablation_tuning(ExperimentContext& ctx);
Table run_mitigation_compare(ExperimentContext& ctx);
Table run_overheads(ExperimentContext& ctx);

// experiments_chip.cc
Table run_fig02(ExperimentContext& ctx);
Table run_fig09(ExperimentContext& ctx);
Table run_fig10(ExperimentContext& ctx);
Table run_ablation_rdr(ExperimentContext& ctx);
Table run_ext_mechanisms(ExperimentContext& ctx);

// experiments_reliability.cc
Table run_fig_reliability(ExperimentContext& ctx);

// experiments_replay.cc
Table run_fig_trace_replay(ExperimentContext& ctx);

// experiments_scenario.cc
Table run_scenario(ExperimentContext& ctx);

/// Parses and validates a scenario config file; throws
/// std::runtime_error naming the file and every diagnostic.
cfg::ScenarioSpec load_scenario_config(const std::string& path);

/// Brings up spec.drive: host::make_device, then a warm fill on an
/// analytic drive when spec.warm_fill, then the [tenants] arbitration
/// (installed after the single-tenant FIFO fill, so fill traffic never
/// skews a tenant's fair-queueing clock). `workers` sizes the service
/// pool and never affects results.
std::unique_ptr<host::Device> build_drive(const cfg::ScenarioSpec& spec,
                                          std::uint64_t drive_seed,
                                          int workers);

/// Runs fn(spec, device) on a fresh build_drive(spec, drive_seed, ...)
/// per spec; results come back in spec order. The specs alone decide
/// where: all-analytic drives each run on a one-worker device, the points
/// spread over the pool; once any drive has Monte Carlo chips, the points
/// run in order on the calling thread, each device as wide as the pool.
/// No context stream is consumed, so results never depend on placement.
template <typename Fn>
auto sweep_drives(ExperimentContext& ctx,
                  const std::vector<cfg::ScenarioSpec>& specs,
                  std::uint64_t drive_seed, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, const cfg::ScenarioSpec&,
                                 host::Device&>;
  const bool analytic = std::all_of(
      specs.begin(), specs.end(),
      [](const cfg::ScenarioSpec& spec) { return spec.drive.is_analytic(); });
  const int workers = analytic ? 1 : ctx.pool().thread_count();
  ThreadPool caller(1);  // Runs every point inline, in order.
  return (analytic ? ctx.pool() : caller).map<R>(
      specs.size(), [&](std::size_t i) {
        return fn(specs[i], *build_drive(specs[i], drive_seed, workers));
      });
}

/// Replays spec.days days of generated traffic with end_of_day after
/// each. Two or more tenants: one decorrelated stream per tenant, driven
/// in burst windows of spec.queue_depth so the tenants are co-pending
/// when the policy arbitrates. Otherwise one TraceGenerator stream
/// (a single tenant's profile, else the [workload] one) driven closed
/// loop at spec.queue_depth.
void drive_days(const cfg::ScenarioSpec& spec, host::Device& device,
                std::uint64_t trace_seed);

/// Replays the trace file spec.trace describes onto `device`, `window`
/// records at a time, feeding *tracker when non-null; throws
/// std::runtime_error when the file does not open.
void replay_spec_trace(const cfg::TraceSpec& trace, host::Device& device,
                       replay::LatencyTracker* tracker,
                       std::size_t window = replay::ReplayOptions{}.window);

/// The shared QoS tail "iops,read_mean_us,read_p50_us,read_p99_us,
/// read_p999_us,stall_pct", where stall_pct is the background stall as a
/// share of all command latency.
std::string qos_columns(const host::CompletionStats& stats);

/// The completion counts "%llu,..." of every status in [first, last]
/// (severity order), of tenant `tenant` only when one is given.
std::string status_columns(const host::CompletionStats& stats,
                           host::Status first, host::Status last,
                           std::optional<std::uint32_t> tenant = {});

/// A pre-aged sharded Monte Carlo drive of `shards` chips shaped like
/// `geometry` (wordlines, bitlines, blocks per chip): every block gets
/// `pre_wear_pe` P/E wear and fresh random data before the replay.
cfg::DriveSpec mc_drive(const nand::Geometry& geometry, std::uint32_t shards,
                        std::uint64_t pre_wear_pe);

/// Fleet lifetime runner: lifecycle trajectories + checkpoint/resume.
Table run_fig_fleet(ExperimentContext& ctx);

// experiments_tenants.cc
Table run_fig_qos_tenants(ExperimentContext& ctx);

// experiments_system.cc
Table run_fig08(ExperimentContext& ctx);
Table run_fig_qos(ExperimentContext& ctx);
Table run_fig_qos_mc(ExperimentContext& ctx);
Table run_fig11(ExperimentContext& ctx);
Table run_fig12(ExperimentContext& ctx);

}  // namespace rdsim::sim
