// The generic `scenario` experiment: replay any cfg::ScenarioSpec —
// a config file (--config), a built-in profile (--profile), or the
// default profile — against the factory-built drive it describes, and
// report the QoS summary fig_qos established plus per-shard attribution
// when the drive is sharded. This is the config-driven front door: the
// experiment itself contains no bring-up code, only spec resolution,
// volume scaling, and the replay loop, so every backend the factory can
// build is runnable from a text file without recompiling.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/config.h"
#include "cfg/profiles.h"
#include "cfg/spec.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/factory.h"
#include "replay/latency.h"
#include "replay/replayer.h"
#include "sim/experiments.h"
#include "workload/generator.h"
#include "workload/tenants.h"

namespace rdsim::sim {

namespace {

/// Resolves the scenario the context asks for. Invalid configs throw —
/// the driver prints the message and exits non-zero, so a typo'd key
/// never produces a silently-default run.
cfg::ScenarioSpec resolve_scenario(ExperimentContext& ctx) {
  if (!ctx.scenario_config().empty()) {
    std::vector<cfg::Diagnostic> diags;
    cfg::Config config = cfg::Config::parse_file(ctx.scenario_config(), &diags);
    cfg::ScenarioSpec spec;
    if (diags.empty()) spec = cfg::parse_scenario(config, &diags);
    if (!diags.empty())
      throw std::runtime_error("invalid scenario config '" +
                               ctx.scenario_config() + "':\n" +
                               cfg::format_diagnostics(diags));
    return spec;
  }
  const std::string name = ctx.scenario_profile().empty()
                               ? cfg::builtin_profiles().front().name
                               : ctx.scenario_profile();
  const cfg::Profile* profile = cfg::find_profile(name);
  if (profile == nullptr)
    throw std::runtime_error("unknown scenario profile '" + name +
                             "' (see rdsim --list-profiles)");
  return profile->spec;
}

/// Shrinks the spec's volume knobs by the context scale the same way
/// fig_qos/fig_qos_mc do, so `--tiny` smoke runs and the golden CRCs
/// stay fast while `--scale 1` replays the spec verbatim.
void apply_scale(ExperimentContext& ctx, cfg::ScenarioSpec* spec) {
  if (ctx.scale() >= 1.0) return;
  cfg::DriveSpec& drive = spec->drive;
  // Analytic floor keeps the FTL feasible after shrinking: GC needs the
  // overprovisioned slack to cover gc_free_target + 2 whole blocks or it
  // livelocks (the same invariant parse_scenario validates unscaled).
  const std::uint32_t floor =
      drive.is_analytic()
          ? static_cast<std::uint32_t>(
                std::ceil((static_cast<double>(drive.gc_free_target) + 2.0) /
                          std::max(drive.overprovision, 0.01)))
          : 2;
  const double scaled = static_cast<double>(drive.blocks) * ctx.scale();
  drive.blocks =
      scaled < floor ? floor : static_cast<std::uint32_t>(scaled);
  workload::WorkloadProfile& w = spec->workload.profile;
  w.daily_page_ios = ctx.scaled(w.daily_page_ios, 4000.0);
  // Tenant profiles were copied out of [workload] at parse time, so they
  // scale the same way, each with its own floor.
  for (cfg::TenantSpec& tenant : spec->tenants.tenants)
    tenant.profile.daily_page_ios =
        ctx.scaled(tenant.profile.daily_page_ios, 4000.0);
}

}  // namespace

Table run_scenario(ExperimentContext& ctx) {
  cfg::ScenarioSpec spec = resolve_scenario(ctx);
  apply_scale(ctx, &spec);
  // CLI --trace overrides (or supplies) the spec's trace path; the other
  // [trace] knobs keep their config/default values.
  if (!ctx.scenario_trace().empty()) spec.trace.path = ctx.scenario_trace();

  // Same seed-derivation scheme as fig08/fig_qos: one drive seed and one
  // trace seed, offset so seeds near the default move continuously.
  const std::uint64_t drive_seed = 17 + (ctx.seed() - 42);
  const std::uint64_t trace_seed = 7531 + (ctx.seed() - 42);
  const int workers = ctx.runner().thread_count();

  std::unique_ptr<host::Device> device =
      host::make_device(spec.drive, drive_seed, workers);
  if (spec.warm_fill && spec.drive.is_analytic()) host::warm_fill(*device);
  // Arbitration installs after the (single-tenant FIFO) warm fill, while
  // the device is quiet, so the fill traffic never skews a tenant's
  // fair-queueing clock.
  if (spec.tenants.enabled())
    device->set_arbitration(spec.tenants.arbitration());
  const bool multi_tenant = spec.tenants.count() >= 2;

  replay::ReplaySummary trace_summary;
  if (spec.trace.enabled()) {
    // Real-trace replay through src/replay instead of the generator.
    std::ifstream file(spec.trace.path);
    if (!file)
      throw std::runtime_error("cannot open trace file '" + spec.trace.path +
                               "'");
    replay::ReplayOptions opts;
    opts.format = spec.trace.format;
    opts.remap = spec.trace.remap;
    opts.mode = spec.trace.mode;
    opts.queue_depth = spec.trace.queue_depth;
    opts.speedup = spec.trace.speedup;
    opts.page_bytes = spec.trace.page_bytes;
    trace_summary = replay::replay_trace(file, *device, opts, nullptr);
    device->end_of_day();
  } else if (multi_tenant) {
    // One decorrelated stream per tenant, merged by arrival and driven
    // in bursts so the tenants are co-pending when the policy arbitrates
    // (a closed-loop trickle would leave it nothing to choose between).
    std::vector<workload::WorkloadProfile> profiles;
    profiles.reserve(spec.tenants.tenants.size());
    for (const cfg::TenantSpec& tenant : spec.tenants.tenants)
      profiles.push_back(tenant.profile);
    workload::MultiTenantGenerator gen(profiles, device->logical_pages(),
                                       trace_seed);
    host::BurstWindowDriver driver(*device,
                                   static_cast<int>(spec.queue_depth));
    for (int day = 0; day < spec.days; ++day) {
      driver.run(gen.day_commands());
      device->end_of_day();
    }
  } else {
    // Untagged scenario — or a single-tenant [tenants] section, which
    // replays this exact path (plus a policy that degenerates to FIFO),
    // so its table is byte-identical to the untagged one.
    const workload::WorkloadProfile& profile =
        spec.tenants.count() == 1 ? spec.tenants.tenants[0].profile
                                  : spec.workload.profile;
    workload::TraceGenerator gen(profile, device->logical_pages(),
                                 trace_seed, device->queue_count());
    host::ClosedLoopDriver driver(*device,
                                  static_cast<int>(spec.queue_depth));
    for (int day = 0; day < spec.days; ++day) {
      driver.run(gen.day_commands());
      device->end_of_day();
    }
  }

  const host::CompletionStats& stats = device->stats();
  const auto us = [](double seconds) { return seconds * 1e6; };
  using host::CommandKind;
  double latency_sum_s = 0.0;
  for (const CommandKind k :
       {CommandKind::kRead, CommandKind::kWrite, CommandKind::kTrim,
        CommandKind::kFlush})
    latency_sum_s +=
        stats.mean_latency_s(k) * static_cast<double>(stats.commands(k));
  const double stall_pct =
      latency_sum_s <= 0.0 ? 0.0
                           : stats.stall_seconds() / latency_sum_s * 100.0;

  Table table;
  const std::string source =
      spec.trace.enabled()
          ? "trace " + spec.trace.path + " (" +
                std::string(name(spec.trace.mode)) + "-loop, " +
                std::string(name(spec.trace.remap)) + " remap)"
          : "workload " + spec.workload.profile.name + ", " +
                std::to_string(spec.days) + " day(s), queue depth " +
                std::to_string(spec.queue_depth);
  table.comment("scenario '" + spec.name + "': " +
                cfg::backend_name(spec.drive.backend) + " drive, " + source);
  table.row(
      "backend,shards,days,queue_depth,reads,writes,trims,flushes,iops,"
      "read_mean_us,read_p50_us,read_p99_us,read_p999_us,stall_pct");
  const bool sharded = spec.drive.is_sharded();
  table.row(strf(
      "%s,%u,%d,%u,%llu,%llu,%llu,%llu,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f",
      cfg::backend_name(spec.drive.backend),
      sharded ? spec.drive.shards : 1, spec.days, spec.queue_depth,
      static_cast<unsigned long long>(stats.commands(CommandKind::kRead)),
      static_cast<unsigned long long>(stats.commands(CommandKind::kWrite)),
      static_cast<unsigned long long>(stats.commands(CommandKind::kTrim)),
      static_cast<unsigned long long>(stats.commands(CommandKind::kFlush)),
      stats.iops(), us(stats.mean_latency_s(CommandKind::kRead)),
      us(stats.latency_quantile_s(CommandKind::kRead, 0.50)),
      us(stats.latency_quantile_s(CommandKind::kRead, 0.99)),
      us(stats.latency_quantile_s(CommandKind::kRead, 0.999)), stall_pct));

  if (multi_tenant) {
    table.new_section();
    table.comment(
        "Per-tenant QoS under the '" +
        std::string(host::arbitration_policy_name(spec.tenants.policy)) +
        "' policy (counts, read tail, stall share, per-status outcomes; "
        "every column sums/merges to the global row above)");
    table.row(
        "tenant,profile,weight,deadline_us,commands,reads,iops,"
        "read_mean_us,read_p50_us,read_p99_us,read_p999_us,stall_s,ok,"
        "corrected,recovered,uncorrectable,failed_write,read_only,uber");
    for (std::uint32_t t = 0; t < spec.tenants.count(); ++t) {
      const cfg::TenantSpec& tenant = spec.tenants.tenants[t];
      table.row(strf(
          "%u,%s,%.3g,%.3g,%llu,%llu,%.0f,%.1f,%.1f,%.1f,%.1f,%.6g,"
          "%llu,%llu,%llu,%llu,%llu,%llu,%.3g",
          t, tenant.profile.name.c_str(), tenant.weight, tenant.deadline_us,
          static_cast<unsigned long long>(stats.tenant_commands(t)),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, CommandKind::kRead)),
          stats.tenant_iops(t), us(stats.tenant_mean_read_latency_s(t)),
          us(stats.tenant_read_latency_quantile_s(t, 0.50)),
          us(stats.tenant_read_latency_quantile_s(t, 0.99)),
          us(stats.tenant_read_latency_quantile_s(t, 0.999)),
          stats.tenant_stall_seconds(t),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, host::Status::kOk)),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, host::Status::kCorrected)),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, host::Status::kRecovered)),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, host::Status::kUncorrectable)),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, host::Status::kFailedWrite)),
          static_cast<unsigned long long>(
              stats.tenant_commands(t, host::Status::kReadOnly)),
          stats.tenant_uber(t,
                            static_cast<double>(spec.drive.bitlines))));
    }
  }

  if (spec.trace.enabled()) {
    table.new_section();
    table.comment(
        "Trace replay outcome (per-status completion counts; see "
        "host::Status for the severity ladder)");
    table.row(
        "trace_commands,reads,writes,ok,corrected,recovered,uncorrectable,"
        "failed_write,read_only,span_s");
    table.row(strf(
        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.6f",
        static_cast<unsigned long long>(trace_summary.commands),
        static_cast<unsigned long long>(trace_summary.reads),
        static_cast<unsigned long long>(trace_summary.writes),
        static_cast<unsigned long long>(trace_summary.status_counts[0]),
        static_cast<unsigned long long>(trace_summary.status_counts[1]),
        static_cast<unsigned long long>(trace_summary.status_counts[2]),
        static_cast<unsigned long long>(trace_summary.status_counts[3]),
        static_cast<unsigned long long>(trace_summary.status_counts[4]),
        static_cast<unsigned long long>(trace_summary.status_counts[5]),
        trace_summary.last_complete_s - trace_summary.first_submit_s));
  }

  if (sharded) {
    const host::Device& dev = *device;
    table.new_section();
    table.comment(
        "Per-shard attribution (pages serviced and stall seconds booked "
        "to each shard's timeline; stall sums to the device total)");
    table.row("shard,pages_read,pages_written,read_bit_errors,stall_s");
    for (std::uint32_t s = 0; s < dev.shard_count(); ++s) {
      const host::Servicer& servicer = dev.shard_servicer(s);
      table.row(strf(
          "%u,%llu,%llu,%llu,%.6g", s,
          static_cast<unsigned long long>(servicer.pages_read()),
          static_cast<unsigned long long>(servicer.pages_written()),
          static_cast<unsigned long long>(servicer.read_bit_errors()),
          dev.shard_stall_seconds(s)));
    }
  }
  return table;
}

}  // namespace rdsim::sim
