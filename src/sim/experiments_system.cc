// System-scale experiments: the whole-SSD endurance evaluation (Fig. 8),
// the queued-host QoS study (fig_qos), and the DRAM RowHammer population
// figures (Figs. 11-12). Each workload, combo, or module is one shard;
// the volume knobs (trace size, FTL geometry, rows per module, replay
// days) honor the context's scale so the tests can run the same code in
// milliseconds. Drives are driven exclusively through the host::Device
// queued interface.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "core/endurance.h"
#include "dram/rowhammer.h"
#include "ecc/ecc_model.h"
#include "flash/rber_model.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/factory.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"
#include "sim/experiments.h"
#include "ssd/ssd.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::sim {

Table run_fig08(ExperimentContext& ctx) {
  const auto params = flash::FlashModelParams::default_2ynm();
  const flash::RberModel model(params);
  const ecc::EccModel ecc{ecc::EccConfig::paper_provisioning()};
  const core::EnduranceEvaluator evaluator(model, ecc);
  const auto profiles = workload::standard_suite();
  const bool full_scale = ctx.scale() >= 1.0;
  const double io_scale = ctx.scale();
  const int days = full_scale ? 7 : 2;

  struct WorkloadResult {
    std::string row;
    double gain = 0.0;
  };
  // One drive seed and one trace seed shared by every workload, so the
  // per-profile comparison reflects the workload shape, not per-shard
  // sampling differences. The offsets put the default seed 42 exactly on
  // the original bench's constants (7 / 1234), and nearby seeds move
  // continuously rather than switching derivation schemes.
  const std::uint64_t drive_seed = 7 + (ctx.seed() - 42);
  const std::uint64_t trace_seed = 1234 + (ctx.seed() - 42);
  const auto results = ctx.map_seeded<WorkloadResult>(
      profiles.size(), [&](std::size_t i, Rng&) {
        workload::WorkloadProfile profile = profiles[i];
        profile.daily_page_ios =
            std::max(2000.0, profile.daily_page_ios * io_scale);
        ssd::SsdConfig config;
        config.ftl.blocks = full_scale ? 1024 : 128;
        config.ftl.pages_per_block = full_scale ? 256 : 32;
        config.vpass_tuning = false;  // Pressure measurement only.
        auto servicer =
            std::make_unique<host::SsdServicer>(config, params, drive_seed);
        const ssd::Ssd& ssd = servicer->ssd();
        host::Device drive(std::move(servicer));

        workload::TraceGenerator gen(profile, drive.logical_pages(),
                                     trace_seed);
        // Warm the drive (fill the logical space once), then replay one
        // refresh interval to observe steady-state block read pressure.
        host::warm_fill(drive);
        std::vector<host::Completion> scratch;
        for (int day = 0; day < days; ++day) {
          for (const auto& c : workload::to_commands(gen.day()))
            drive.submit(c);
          drive.drain(&scratch);
          drive.end_of_day();
          scratch.clear();
        }

        const double reads_per_interval =
            static_cast<double>(ssd.max_reads_per_interval());
        const double base = evaluator.endurance_pe(reads_per_interval, false);
        const double tuned = evaluator.endurance_pe(reads_per_interval, true);
        const double gain = (tuned / base - 1.0) * 100.0;
        return WorkloadResult{
            strf("%s,%.0f,%.0f,%.0f,%+.1f", profile.name.c_str(),
                 reads_per_interval, base, tuned, gain),
            gain};
      });

  Table table;
  table.comment("Fig 8: endurance improvement with Vpass Tuning");
  table.row("workload,reads_per_interval,endurance_baseline,"
            "endurance_tuned,improvement_pct");
  double improvement_sum = 0.0;
  for (const auto& r : results) {
    table.row(r.row);
    improvement_sum += r.gain;
  }
  table.new_section();
  table.comment("Average improvement (paper: 21.0%)");
  table.row("average_improvement_pct");
  table.row(strf("%.1f",
                 improvement_sum / static_cast<double>(results.size())));
  return table;
}

Table run_fig_qos(ExperimentContext& ctx) {
  // System QoS study on the queued host interface: read tail latency vs
  // read-disturb mitigation policy across queue depths. The host drives
  // the drive closed-loop (zero think time) at a fixed queue depth over
  // 4 submission queues; the same command stream — including trims and
  // flushes — is replayed against each policy, so differences come from
  // the background work each policy induces (reclaim churn, tuning
  // probes), not from sampling. The drive comes out of host::make_device
  // (the flash model defaults to the paper's 2y-nm parameters there).
  const bool full_scale = ctx.scale() >= 1.0;
  const int days = full_scale ? 3 : 2;

  workload::WorkloadProfile profile =
      workload::profile_by_name("fiu-web-vm");
  profile.daily_page_ios = std::max(4000.0, profile.daily_page_ios *
                                                ctx.scale());
  profile.trim_fraction = 0.10;
  profile.flush_period_s = 400.0;

  // Reclaim threshold sized off the replayed volume (the hottest block
  // draws a few percent of the daily reads), so the policy engages within
  // the replay at any scale — including the floored tiny volumes.
  const auto reclaim_threshold = std::max<std::uint64_t>(
      50, static_cast<std::uint64_t>(0.025 * profile.read_fraction *
                                     profile.daily_page_ios));

  struct Policy {
    const char* name;
    bool tuning;
    std::uint64_t reclaim;
  };
  const Policy policies[] = {
      {"none", false, 0},
      {"reclaim", false, reclaim_threshold},
      {"tuning", true, 0},
  };
  const int depths[] = {1, 4, 16};
  constexpr int kDepths = 3;
  const std::size_t combos = std::size(policies) * kDepths;

  // One drive seed and one trace seed shared by every combo (same scheme
  // as fig08), so rows differ only by policy and depth.
  const std::uint64_t drive_seed = 11 + (ctx.seed() - 42);
  const std::uint64_t trace_seed = 4321 + (ctx.seed() - 42);

  const auto rows = ctx.map_seeded<std::string>(
      combos, [&](std::size_t combo, Rng&) {
        const Policy& policy = policies[combo / kDepths];
        const int depth = depths[combo % kDepths];

        cfg::DriveSpec drive;
        drive.backend = cfg::Backend::kAnalytic;
        drive.blocks = full_scale ? 512 : 64;
        drive.pages_per_block = full_scale ? 128 : 32;
        drive.overprovision = 0.2;
        drive.gc_free_target = 4;
        drive.vpass_tuning = policy.tuning;
        drive.read_reclaim_threshold = policy.reclaim;
        drive.queue_count = 4;
        const std::unique_ptr<host::Device> device_ptr =
            host::make_device(drive, drive_seed);
        host::Device& device = *device_ptr;
        host::warm_fill(device);

        workload::TraceGenerator gen(profile, device.logical_pages(),
                                     trace_seed, device.queue_count());
        // Closed-loop replay: keep `depth` commands outstanding; the
        // next command is submitted the instant a completion frees a
        // slot.
        host::ClosedLoopDriver driver(device, depth);
        for (int day = 0; day < days; ++day) {
          driver.run(gen.day_commands());
          device.end_of_day();
        }

        const host::CompletionStats& stats = device.stats();
        const auto us = [](double seconds) { return seconds * 1e6; };
        using host::CommandKind;
        double latency_sum_s = 0.0;
        for (const CommandKind k :
             {CommandKind::kRead, CommandKind::kWrite, CommandKind::kTrim,
              CommandKind::kFlush})
          latency_sum_s += stats.mean_latency_s(k) *
                           static_cast<double>(stats.commands(k));
        const double stall_pct =
            latency_sum_s <= 0.0
                ? 0.0
                : stats.stall_seconds() / latency_sum_s * 100.0;
        return strf(
            "%s,%d,%llu,%llu,%llu,%llu,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f",
            policy.name, depth,
            static_cast<unsigned long long>(
                stats.commands(CommandKind::kRead)),
            static_cast<unsigned long long>(
                stats.commands(CommandKind::kWrite)),
            static_cast<unsigned long long>(
                stats.commands(CommandKind::kTrim)),
            static_cast<unsigned long long>(
                stats.commands(CommandKind::kFlush)),
            stats.iops(), us(stats.mean_latency_s(CommandKind::kRead)),
            us(stats.latency_quantile_s(CommandKind::kRead, 0.50)),
            us(stats.latency_quantile_s(CommandKind::kRead, 0.99)),
            us(stats.latency_quantile_s(CommandKind::kRead, 0.999)),
            stall_pct);
      });

  Table table;
  table.comment(
      "fig_qos: read latency percentiles vs mitigation policy and queue "
      "depth (closed-loop host, 4 submission queues)");
  table.row(
      "policy,queue_depth,reads,writes,trims,flushes,iops,"
      "read_mean_us,read_p50_us,read_p99_us,read_p999_us,stall_pct");
  for (const auto& r : rows) table.row(r);
  return table;
}

Table run_fig_qos_mc(ExperimentContext& ctx) {
  // Drive-scale QoS on the per-cell Monte Carlo backend: a
  // host::Device stripes the logical space over four pre-aged
  // chips (one flash timeline each) and a closed-loop host sweeps the
  // queue depth over the same command stream. Unlike fig_qos (analytic
  // RBER, FTL maintenance), every read here senses real cells, so the
  // table reports the raw bit error rate the host observed alongside the
  // latency percentiles — the read-disturb QoS view at drive scale. The
  // device services its shards on its own worker pool sized from the
  // experiment's --threads; the merged completion log (and therefore
  // this table) is byte-identical for any worker count.
  const bool full_scale = ctx.scale() >= 1.0;
  const int days = 2;
  const std::uint32_t kShards = 4;
  const std::uint32_t kPreWearPe = 8000;

  nand::Geometry shard_geometry = ctx.geometry();
  shard_geometry.blocks = full_scale ? 8 : 2;

  workload::WorkloadProfile profile =
      workload::profile_by_name("fiu-web-vm");
  profile.daily_page_ios = ctx.scaled(12000.0, 3000.0);

  // Same derivation scheme as fig08/fig_qos: one drive seed and one
  // trace seed shared by every depth, offset so seeds near the default
  // move continuously.
  const std::uint64_t drive_seed = 13 + (ctx.seed() - 42);
  const std::uint64_t trace_seed = 2468 + (ctx.seed() - 42);
  const int workers = ctx.runner().thread_count();

  struct DepthResult {
    std::string row;
    std::vector<std::string> shard_rows;
  };
  const int depths[] = {1, 4, 16};
  std::vector<DepthResult> results;
  for (const int depth : depths) {
    cfg::DriveSpec drive;
    drive.backend = cfg::Backend::kShardedMc;
    drive.shards = kShards;
    drive.wordlines_per_block = shard_geometry.wordlines_per_block;
    drive.bitlines = shard_geometry.bitlines;
    drive.blocks = shard_geometry.blocks;
    // Pre-age every shard like a characterization drive: the factory
    // applies heavy P/E wear then fresh random data per block
    // (O(bookkeeping) under lazy materialization).
    drive.pre_wear_pe = kPreWearPe;
    drive.queue_count = 4;
    const auto device_ptr = host::make_device(drive, drive_seed, workers);
    host::Device& device = *device_ptr;

    workload::TraceGenerator gen(profile, device.logical_pages(),
                                 trace_seed, device.queue_count());
    host::ClosedLoopDriver driver(device, depth);
    for (int day = 0; day < days; ++day) {
      driver.run(gen.day_commands());
      device.end_of_day();
    }

    const host::CompletionStats& stats = device.stats();
    const auto us = [](double seconds) { return seconds * 1e6; };
    using host::CommandKind;
    double latency_sum_s = 0.0;
    for (const CommandKind k :
         {CommandKind::kRead, CommandKind::kWrite, CommandKind::kTrim,
          CommandKind::kFlush})
      latency_sum_s +=
          stats.mean_latency_s(k) * static_cast<double>(stats.commands(k));
    const double stall_pct =
        latency_sum_s <= 0.0
            ? 0.0
            : stats.stall_seconds() / latency_sum_s * 100.0;
    const double sensed_bits =
        static_cast<double>(device.pages_read()) *
        static_cast<double>(shard_geometry.bitlines);
    const double rber =
        sensed_bits <= 0.0
            ? 0.0
            : static_cast<double>(device.read_bit_errors()) / sensed_bits;

    DepthResult r;
    r.row = strf(
        "%d,%llu,%llu,%.0f,%.1f,%.1f,%.1f,%.1f,%.1f,%.3e,%llu",
        depth,
        static_cast<unsigned long long>(stats.commands(CommandKind::kRead)),
        static_cast<unsigned long long>(stats.commands(CommandKind::kWrite)),
        stats.iops(), us(stats.mean_latency_s(CommandKind::kRead)),
        us(stats.latency_quantile_s(CommandKind::kRead, 0.50)),
        us(stats.latency_quantile_s(CommandKind::kRead, 0.99)),
        us(stats.latency_quantile_s(CommandKind::kRead, 0.999)), stall_pct,
        rber, static_cast<unsigned long long>(device.block_rewrites()));
    // Per-shard attribution at this depth: where the reads landed, the
    // errors they saw, and the stall seconds booked to each chip.
    for (std::uint32_t s = 0; s < device.shard_count(); ++s) {
      r.shard_rows.push_back(
          strf("%d,%u,%llu,%llu,%.6g", depth, s,
               static_cast<unsigned long long>(device.shard_pages_read(s)),
               static_cast<unsigned long long>(
                   device.shard_read_bit_errors(s)),
               device.shard_stall_seconds(s)));
    }
    results.push_back(std::move(r));
  }

  Table table;
  table.comment(
      "fig_qos_mc: read QoS vs queue depth on the sharded Monte Carlo "
      "drive (4 chips, closed-loop host, real per-cell senses)");
  table.row(
      "queue_depth,reads,writes,iops,read_mean_us,read_p50_us,read_p99_us,"
      "read_p999_us,stall_pct,read_rber,block_rewrites");
  for (const auto& r : results) table.row(r.row);
  table.new_section();
  table.comment(
      "Per-shard attribution (stall seconds booked to each chip's "
      "timeline; sums to the device total)");
  table.row("queue_depth,shard,pages_read,read_bit_errors,stall_s");
  for (const auto& r : results)
    for (const auto& row : r.shard_rows) table.row(row);
  return table;
}

namespace {

/// Shrinks a module's row count by the context scale (hammer loops are
/// per-row) while keeping enough rows for a meaningful distribution.
void scale_module(dram::DramModule& module, double scale) {
  if (scale >= 1.0) return;
  const auto scaled =
      static_cast<std::uint64_t>(static_cast<double>(module.rows) * scale);
  module.rows = std::max<std::uint64_t>(512, scaled);
}

}  // namespace

Table run_fig11(ExperimentContext& ctx) {
  Rng population_rng = ctx.next_stream();
  auto modules = dram::sample_population(population_rng, 129);
  for (auto& m : modules) scale_module(m, ctx.scale());

  const auto rates = ctx.map_seeded<double>(
      modules.size(), [&](std::size_t i, Rng& rng) {
        return dram::errors_per_billion_cells(modules[i], rng);
      });

  Table table;
  table.comment(
      "Fig 11: RowHammer errors per 1e9 cells vs module manufacture date "
      "(129 modules)");
  table.row("manufacturer,year,week,errors_per_1e9_cells");
  int vulnerable = 0;
  int y2012_13 = 0, y2012_13_vulnerable = 0;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const auto& m = modules[i];
    const double rate = rates[i];
    vulnerable += rate > 0;
    if (m.year == 2012 || m.year == 2013) {
      ++y2012_13;
      y2012_13_vulnerable += rate > 0;
    }
    table.row(strf("%s,%d,%d,%.4g", dram::manufacturer_name(m.manufacturer),
                   m.year, m.week, rate));
  }
  table.new_section();
  table.comment("Summary (paper: 110 of 129 vulnerable; all 2012-2013 "
                "modules vulnerable)");
  table.row("total,vulnerable,modules_2012_13,vulnerable_2012_13");
  table.row(strf("%zu,%d,%d,%d", modules.size(), vulnerable, y2012_13,
                 y2012_13_vulnerable));
  return table;
}

Table run_fig12(ExperimentContext& ctx) {
  auto modules = dram::representative_modules();
  for (auto& m : modules) scale_module(m, ctx.scale());
  const int max_victims = 120;

  const auto hists = ctx.map_seeded<std::vector<std::uint64_t>>(
      modules.size(), [&](std::size_t i, Rng& rng) {
        return dram::victim_histogram(modules[i], rng, max_victims);
      });

  Table table;
  table.comment(
      "Fig 12: victim cells per aggressor row, representative modules");
  std::string header = "victims";
  for (const auto& m : modules) header += strf(",%s", m.label().c_str());
  table.row(header);
  for (int v = 0; v <= max_victims; ++v) {
    std::string row = strf("%d", v);
    for (const auto& h : hists)
      row += strf(",%llu",
                  static_cast<unsigned long long>(
                      h[static_cast<std::size_t>(v)]));
    table.row(row);
  }
  return table;
}

}  // namespace rdsim::sim
