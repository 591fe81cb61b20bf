// Reliability experiments: fig_reliability, the end-to-end error-path
// study. Section A injects latent uncorrectable pages (and one die kill)
// into the sharded Monte Carlo drive and reports how far down the
// escalation ladder (ECC -> read-retry -> RDR -> uncorrectable) the
// host's reads had to go, the flash time the recovery steps charged, and
// the host-observed UBER. Section B injects program/erase failures into
// the analytic drive's FTL and watches grown defects eat the spare pool
// until the drive degrades to read-only. All fault randomness rides
// dedicated Rng streams, so the table is byte-identical for any
// --threads, and the zero-fault control rows are bit-identical to a
// fault-free build.
#include <memory>
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "ftl/ftl.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/factory.h"
#include "host/ssd_servicer.h"
#include "sim/experiments.h"
#include "ssd/ssd.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::sim {

Table run_fig_reliability(ExperimentContext& ctx) {
  const bool full_scale = ctx.scale() >= 1.0;

  // Same derivation scheme as fig08/fig_qos_mc: one drive seed and one
  // trace seed shared by every fault configuration, offset so seeds near
  // the default move continuously.
  const std::uint64_t drive_seed = 31 + (ctx.seed() - 42);
  const std::uint64_t trace_seed = 8642 + (ctx.seed() - 42);
  const int workers = ctx.runner().thread_count();

  Table table;
  table.comment(
      "fig_reliability: fault injection vs the end-to-end error path "
      "(ECC -> retry -> RDR ladder, UBER, graceful degradation)");

  // --- Section A: latent pages and a die kill on the sharded MC drive.
  {
    const int days = 2;
    const std::uint32_t kShards = 4;
    nand::Geometry shard_geometry = ctx.geometry();
    shard_geometry.blocks = full_scale ? 8 : 2;

    workload::WorkloadProfile profile =
        workload::profile_by_name("fiu-web-vm");
    profile.daily_page_ios = ctx.scaled(12000.0, 3000.0);

    struct FaultCase {
      const char* label;
      double latent_page_prob;
      double die_kill_day;  // < 0: no kill. Kill always targets shard 1.
      std::uint64_t pre_wear_pe;
    };
    const FaultCase cases[] = {
        {"none", 0.0, -1.0, 8000},
        {"latent=1e-3", 1e-3, -1.0, 8000},
        {"latent=1e-2", 1e-2, -1.0, 8000},
        {"die_kill(shard1,day1)", 0.0, 1.0, 8000},
        // No injected fault: wear alone pushes raw errors past the ECC,
        // so the recovery steps (retry, then RDR) do real work here.
        {"worn(pe=25000)", 0.0, -1.0, 25000},
    };

    struct CaseResult {
      std::string row;
      std::vector<std::string> shard_rows;
    };
    std::vector<CaseResult> results;
    for (const FaultCase& fc : cases) {
      cfg::DriveSpec drive;
      drive.backend = cfg::Backend::kShardedMc;
      drive.shards = kShards;
      drive.wordlines_per_block = shard_geometry.wordlines_per_block;
      drive.bitlines = shard_geometry.bitlines;
      drive.blocks = shard_geometry.blocks;
      // Pre-age like a characterization drive so the ECC sees realistic
      // raw error counts under the injected faults.
      drive.pre_wear_pe = fc.pre_wear_pe;
      drive.queue_count = 4;
      drive.faults.latent_page_prob = fc.latent_page_prob;
      if (fc.die_kill_day >= 0.0) {
        drive.faults.die_kill_shard = 1;
        drive.faults.die_kill_day = fc.die_kill_day;
      }
      const auto device_ptr = host::make_device(drive, drive_seed, workers);
      host::Device& device = *device_ptr;

      workload::TraceGenerator gen(profile, device.logical_pages(),
                                   trace_seed, device.queue_count());
      host::ClosedLoopDriver driver(device, 4);
      for (int day = 0; day < days; ++day) {
        driver.run(gen.day_commands());
        device.end_of_day();
      }

      const host::CompletionStats& stats = device.stats();
      const host::ErrorStats es = device.error_stats();
      const std::uint64_t ladder_reads =
          es.reads_ok + es.reads_corrected + es.reads_retry_recovered +
          es.reads_rdr_recovered + es.reads_uncorrectable;
      const double recovered_share =
          ladder_reads == 0
              ? 0.0
              : static_cast<double>(es.reads_retry_recovered +
                                    es.reads_rdr_recovered) /
                    static_cast<double>(ladder_reads);

      CaseResult r;
      using host::Status;
      r.row = strf(
          "%s,%llu,%llu,%llu,%llu,%llu,%.4f,%.3e,%llu,%llu,%.3f,%.3f",
          fc.label,
          static_cast<unsigned long long>(ladder_reads),
          static_cast<unsigned long long>(stats.commands(Status::kOk)),
          static_cast<unsigned long long>(
              stats.commands(Status::kCorrected)),
          static_cast<unsigned long long>(
              stats.commands(Status::kRecovered)),
          static_cast<unsigned long long>(
              stats.commands(Status::kUncorrectable)),
          recovered_share,
          stats.uber(static_cast<double>(shard_geometry.bitlines)),
          static_cast<unsigned long long>(es.retry_attempts),
          static_cast<unsigned long long>(es.rdr_attempts),
          es.retry_seconds, es.rdr_seconds);
      for (std::uint32_t s = 0; s < device.shard_count(); ++s) {
        const host::ErrorStats se = device.shard_error_stats(s);
        r.shard_rows.push_back(strf(
            "%s,%u,%llu,%llu,%llu,%llu,%llu,%.3f,%.3f", fc.label, s,
            static_cast<unsigned long long>(se.reads_ok),
            static_cast<unsigned long long>(se.reads_corrected),
            static_cast<unsigned long long>(se.reads_retry_recovered),
            static_cast<unsigned long long>(se.reads_rdr_recovered),
            static_cast<unsigned long long>(se.reads_uncorrectable),
            se.retry_seconds, se.rdr_seconds));
      }
      results.push_back(std::move(r));
    }

    table.comment(
        "Section A: sharded MC drive (4 chips, pre-aged), latent-page and "
        "die-kill injection vs host-visible read outcomes");
    table.row(
        "fault,page_reads,cmd_ok,cmd_corrected,cmd_recovered,"
        "cmd_uncorrectable,recovered_share,uber,retry_attempts,"
        "rdr_attempts,retry_s,rdr_s");
    for (const auto& r : results) table.row(r.row);
    table.new_section();
    table.comment(
        "Per-shard ladder attribution (die kill lands on shard 1 only)");
    table.row(
        "fault,shard,reads_ok,corrected,retry_recovered,rdr_recovered,"
        "uncorrectable,retry_s,rdr_s");
    for (const auto& r : results)
      for (const auto& row : r.shard_rows) table.row(row);
  }

  // --- Section B: P/E failures on the analytic drive: grown defects eat
  // the spare pool, then the drive degrades to read-only.
  {
    const int max_days = full_scale ? 14 : 6;

    workload::WorkloadProfile profile =
        workload::profile_by_name("fiu-web-vm");
    profile.daily_page_ios = ctx.scaled(20000.0, 4000.0);
    profile.read_fraction = 0.2;  // Write-heavy: exercise the P/E path.

    const double fail_probs[] = {0.0, 1e-4, 1e-3, 1e-2};
    std::vector<std::string> rows;
    for (const double p : fail_probs) {
      cfg::DriveSpec drive;
      drive.backend = cfg::Backend::kAnalytic;
      drive.blocks = full_scale ? 256 : 64;
      drive.pages_per_block = full_scale ? 64 : 16;
      drive.overprovision = 0.25;
      drive.gc_free_target = 4;
      drive.spare_blocks = 2;  // Small defect budget: degradation is
                               // reachable within the replay.
      drive.queue_count = 4;
      drive.faults.program_fail_prob = p;
      drive.faults.erase_fail_prob = p;
      const auto device_ptr = host::make_device(drive, drive_seed, workers);
      host::Device& device = *device_ptr;
      const ssd::Ssd& ssd =
          static_cast<host::SsdServicer&>(device.shard_servicer(0)).ssd();

      workload::TraceGenerator gen(profile, device.logical_pages(),
                                   trace_seed, device.queue_count());
      host::ClosedLoopDriver driver(device, 4);
      int read_only_day = -1;
      for (int day = 0; day < max_days; ++day) {
        driver.run(gen.day_commands());
        device.end_of_day();
        if (ssd.ftl().read_only()) {
          read_only_day = day + 1;
          break;  // Permanent freeze: further days only reject writes.
        }
      }

      const ftl::FtlStats& fs = ssd.ftl().stats();
      const host::CompletionStats& stats = device.stats();
      using host::Status;
      rows.push_back(strf(
          "%g,%d,%llu,%llu,%llu,%u,%llu,%llu,%llu", p, read_only_day,
          static_cast<unsigned long long>(fs.host_writes),
          static_cast<unsigned long long>(fs.program_failures),
          static_cast<unsigned long long>(fs.erase_failures),
          ssd.ftl().retired_blocks(),
          static_cast<unsigned long long>(fs.defect_writes),
          static_cast<unsigned long long>(
              stats.commands(Status::kFailedWrite)),
          static_cast<unsigned long long>(
              stats.commands(Status::kReadOnly))));
    }

    table.new_section();
    table.comment(
        "Section B: analytic drive, P/E failure injection vs grown "
        "defects and time-to-read-only (spare_blocks=2; read_only_day=-1 "
        "means the drive outlived the replay)");
    table.row(
        "pe_fail_prob,read_only_day,host_writes,program_failures,"
        "erase_failures,retired_blocks,defect_writes,cmd_failed_write,"
        "cmd_read_only");
    for (const auto& row : rows) table.row(row);
  }

  return table;
}

}  // namespace rdsim::sim
