// fig_qos_tenants: the multi-tenant noisy-neighbor isolation study. A
// latency-sensitive victim tenant shares a sharded analytic drive with a
// read-hot, large-request aggressor (the disturb generator the paper's
// read-hot workloads model), and the host sweeps arbitration policy ×
// burst window. The interesting comparison is the victim's read tail:
//   * fifo        — the victim sits wherever it arrived in the window,
//                   behind up to a full window of aggressor bulk reads;
//   * round_robin — one command per tenant per round, so the victim's
//                   k-th command still waits behind k large aggressor
//                   requests (round-robin is command-fair, not
//                   work-fair);
//   * weighted    — share-proportional on pages: with the victim's 8x
//                   weight and small requests its virtual clock crawls,
//                   so its commands sort ahead of the aggressor's bulk;
//   * deadline    — EDF on submit + target: the victim's 500 us target
//                   against the aggressor's 10 ms orders every victim
//                   command first.
// Alongside the tail the table carries each tenant's per-status outcome
// counts and host-observed UBER — the disturb the aggressor generates is
// visible on the same rows that show who paid for it in latency.
//
// Driven by drive_days in burst windows (whole windows co-pending, each
// serviced as one set), so the completion log — and this table — is a
// pure function of (seed, scale): byte-identical at any --threads
// (tests/test_arbitration.cc, tests/test_golden_experiments.cc).
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "host/arbitration.h"
#include "sim/experiments.h"
#include "workload/profiles.h"

namespace rdsim::sim {

Table run_fig_qos_tenants(ExperimentContext& ctx) {
  const bool full_scale = ctx.scale() >= 1.0;

  // Tenant 0, the victim: web-VM style, mostly small reads, latency
  // sensitive. Tenant 1, the aggressor: the read-hottest profile in the
  // suite, at 4x the victim's volume and with bulk requests — the
  // noisy neighbor accumulating read disturb on the shared flash.
  cfg::TenantSpec victim{/*weight=*/8.0, /*deadline_us=*/500.0,
                         workload::profile_by_name("fiu-web-vm")};
  victim.profile.daily_page_ios = ctx.scaled(2.2e5, 6000.0);
  victim.profile.mean_request_pages = 2.0;
  cfg::TenantSpec aggressor{/*weight=*/1.0, /*deadline_us=*/10000.0,
                            workload::profile_by_name("umass-web")};
  aggressor.profile.daily_page_ios = ctx.scaled(8.8e5, 24000.0);
  aggressor.profile.mean_request_pages = 8.0;

  // A 4-shard analytic drive, warm-filled before the tenants' traffic.
  cfg::ScenarioSpec spec;
  spec.days = 2;
  spec.drive.backend = cfg::Backend::kShardedAnalytic;
  spec.drive.shards = 4;
  spec.drive.blocks = full_scale ? 256 : 48;  // Per shard.
  spec.drive.pages_per_block = full_scale ? 128 : 32;
  spec.drive.overprovision = 0.2;
  spec.drive.gc_free_target = 4;
  spec.tenants.tenants = {victim, aggressor};

  std::vector<cfg::ScenarioSpec> specs;
  for (const host::ArbitrationPolicy policy :
       {host::ArbitrationPolicy::kFifo, host::ArbitrationPolicy::kRoundRobin,
        host::ArbitrationPolicy::kWeighted,
        host::ArbitrationPolicy::kDeadline}) {
    for (const std::uint32_t window : {8u, 32u}) {
      spec.tenants.policy = policy;
      spec.queue_depth = window;
      specs.push_back(spec);
    }
  }

  // Same derivation scheme as fig08/fig_qos: one drive seed and one
  // trace seed shared by every combo, offset so seeds near the default
  // move continuously.
  const std::uint64_t drive_seed = 19 + (ctx.seed() - 42);
  const std::uint64_t trace_seed = 8642 + (ctx.seed() - 42);
  const auto rows = sweep_drives(
      ctx, specs, drive_seed,
      [&](const cfg::ScenarioSpec& spec, host::Device& device) {
        drive_days(spec, device, trace_seed);
        const host::CompletionStats& stats = device.stats();
        const auto us = [](double seconds) { return seconds * 1e6; };
        const auto bits = static_cast<double>(spec.drive.bitlines);
        return strf(
            "%s,%u,%llu,%.1f,%.1f,%.1f,%.6g,%s,%.3g,%llu,%.1f,%.3g,%.0f",
            host::arbitration_policy_name(spec.tenants.policy),
            spec.queue_depth,
            static_cast<unsigned long long>(
                stats.tenant_commands(0, host::CommandKind::kRead)),
            us(stats.tenant_read_latency_quantile_s(0, 0.50)),
            us(stats.tenant_read_latency_quantile_s(0, 0.99)),
            us(stats.tenant_read_latency_quantile_s(0, 0.999)),
            stats.tenant_stall_seconds(0),
            status_columns(stats, host::Status::kCorrected,
                           host::Status::kUncorrectable, 0)
                .c_str(),
            stats.tenant_uber(0, bits),
            static_cast<unsigned long long>(
                stats.tenant_commands(1, host::CommandKind::kRead)),
            us(stats.tenant_read_latency_quantile_s(1, 0.999)),
            stats.tenant_uber(1, bits), stats.iops());
      });

  Table table;
  table.comment(
      "fig_qos_tenants: victim read tail vs arbitration policy and burst "
      "window; tenant 0 = latency-sensitive victim (weight 8, 500 us "
      "target), tenant 1 = read-hot bulk aggressor (weight 1, 10 ms) on "
      "a 4-shard analytic drive");
  table.row(
      "policy,window,victim_reads,victim_p50_us,victim_p99_us,"
      "victim_p999_us,victim_stall_s,victim_corrected,victim_recovered,"
      "victim_uncorrectable,victim_uber,aggr_reads,aggr_p999_us,"
      "aggr_uber,iops");
  for (const auto& row : rows) table.row(row);
  return table;
}

}  // namespace rdsim::sim
