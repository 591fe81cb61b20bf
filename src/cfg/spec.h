// rdsim/cfg/spec.h
//
// The typed scenario schema over cfg::Config: DriveSpec (which backend,
// its geometry and policy knobs), WorkloadSpec (a named trace profile
// plus overrides), and ScenarioSpec (drive + workload + replay shape).
// parse_scenario() maps a parsed Config onto the schema, validating as
// it goes — enum values, ranges, required keys — and then flags every
// key it did not consume as unknown. A spec that parses with zero
// diagnostics is guaranteed constructible: host::make_device accepts any
// valid DriveSpec and the scenario experiment any valid ScenarioSpec.
//
// The full key reference (every key, type, default, validation rule)
// lives in docs/CONFIG.md; examples/configs/ holds runnable files.
// Deliberately NOT in the schema: the seed (the CLI --seed governs all
// randomness so one flag reruns a scenario on a fresh universe) and the
// worker count (results never depend on it; --threads stays a pure
// performance knob).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfg/config.h"
#include "host/arbitration.h"
#include "replay/options.h"
#include "workload/profiles.h"

namespace rdsim::cfg {

/// Which drive engine services the scenario's commands: a fidelity and a
/// shard count (host::make_device builds every one as a host::Device).
enum class Backend {
  kAnalytic,          ///< One ssd::Ssd (FTL + closed-form RBER).
  kMcChip,            ///< One per-cell Monte Carlo chip.
  kShardedMc,         ///< N Monte Carlo chips, RAID-0 striped.
  kShardedAnalytic,   ///< N analytic drives, RAID-0 striped.
};

const char* backend_name(Backend backend);
bool backend_from_name(const std::string& name, Backend* out);

/// Flash reliability parameter set (flash::FlashModelParams preset).
enum class FlashModel { k2ynm, kEarly3d };

/// Deterministic fault injection ([faults] section). All knobs default to
/// "inject nothing"; with every knob at its default the simulation is
/// bit-identical to a build without the fault layer (the fault RNG
/// streams are never drawn from).
struct FaultSpec {
  /// Per-host-page-write program failure probability (analytic backends:
  /// the failing block retires to the grown-defect table).
  double program_fail_prob = 0.0;
  /// Per-erase failure probability (analytic backends).
  double erase_fail_prob = 0.0;
  /// Probability a (block, page, program) is latently uncorrectable on
  /// the Monte Carlo backends (no recovery step can decode it).
  double latent_page_prob = 0.0;
  /// Monte Carlo die-kill: at the end of day `die_kill_day`, the chip of
  /// shard `die_kill_shard` dies wholesale (reads uncorrectable, writes
  /// failed). die_kill_day < 0 (default) never kills.
  std::uint32_t die_kill_shard = 0;
  double die_kill_day = -1.0;

  /// True when any knob would actually inject something.
  bool any() const {
    return program_fail_prob > 0.0 || erase_fail_prob > 0.0 ||
           latent_page_prob > 0.0 || die_kill_day >= 0.0;
  }
};

struct DriveSpec {
  Backend backend = Backend::kAnalytic;
  FlashModel flash_model = FlashModel::k2ynm;
  std::uint32_t shards = 4;       ///< Sharded backends: stripe width.
  std::uint32_t queue_count = 4;  ///< NVMe-style submission queues.

  /// Shared geometry: blocks per drive or chip, i.e. per shard.
  std::uint32_t blocks = 2048;

  // Analytic backends: FTL shape and mitigation policy.
  std::uint32_t pages_per_block = 256;
  double overprovision = 0.125;
  std::uint32_t gc_free_target = 8;
  double refresh_interval_days = 7.0;
  std::uint64_t read_reclaim_threshold = 0;
  bool vpass_tuning = true;
  std::uint32_t spare_blocks = 4;  ///< Grown-defect budget before the
                                   ///< drive goes read-only.

  // Monte Carlo backends: chip geometry and characterization pre-aging.
  std::uint32_t wordlines_per_block = 64;
  std::uint32_t bitlines = 8192;
  std::uint64_t pre_wear_pe = 0;  ///< P/E wear applied to every block
                                  ///< before the replay starts.

  FaultSpec faults;  ///< [faults] section; defaults inject nothing.

  bool is_sharded() const {
    return backend == Backend::kShardedMc ||
           backend == Backend::kShardedAnalytic;
  }
  bool is_analytic() const {
    return backend == Backend::kAnalytic ||
           backend == Backend::kShardedAnalytic;
  }
};

struct WorkloadSpec {
  /// The resolved profile: the named standard_suite() entry with any
  /// config overrides (daily_page_ios, trim_fraction, ...) applied.
  workload::WorkloadProfile profile;
};

/// Real-trace replay ([trace] section). When `path` is set the scenario
/// replays that trace file through src/replay instead of generating
/// synthetic traffic from the workload profile (which then becomes
/// optional). Defaults mirror replay::ReplayOptions.
struct TraceSpec {
  std::string path;  ///< Trace file; empty = no trace replay.
  replay::TraceFormat format = replay::TraceFormat::kAuto;
  replay::RemapPolicy remap = replay::RemapPolicy::kModulo;
  replay::ReplayMode mode = replay::ReplayMode::kOpen;
  std::uint32_t queue_depth = 16;  ///< Closed-loop outstanding commands.
  double speedup = 1.0;            ///< Open-loop time compression factor.
  std::uint32_t page_bytes = 8192; ///< MSR byte-offset -> page conversion.

  bool enabled() const { return !path.empty(); }
};

/// Fleet-scale lifetime simulation ([fleet] section). When `drives` is
/// set the scenario becomes a fleet run: N analytic drives simulated
/// over a multi-year horizon with lifecycle tracking (degraded /
/// read-only / replaced), per-drive fault rates drawn from fleet-level
/// distributions, and periodic whole-fleet checkpoints.
struct FleetSpec {
  std::uint32_t drives = 0;  ///< Fleet size; 0 = no [fleet] section.
  double years = 2.0;        ///< Simulated horizon.
  /// Reporting epoch: the fleet table gains one row set per interval.
  std::uint32_t report_interval_days = 30;
  /// Checkpoint cadence in reporting epochs (a checkpoint is written
  /// after every k-th epoch). 0 = checkpoint only on interruption.
  std::uint32_t checkpoint_every = 0;
  /// Every k-th drive is a "teardown" drive: its analytic state is
  /// cross-checked against a sampled Monte Carlo chip each epoch for
  /// ground-truth RBER. 0 = no teardown sampling.
  std::uint32_t teardown_every = 0;
  /// Median per-drive program/erase fault probability; each drive draws
  /// its own rate from a lognormal around this median (sigma below) via
  /// a counter-based stream, so drive i's rate never depends on fleet
  /// size or thread count. 0 injects nothing.
  double pe_fail_prob_median = 0.0;
  double fault_rate_sigma = 0.0;  ///< Lognormal sigma of the rate draw.
  bool replace_failed = true;     ///< Swap in a fresh drive after
                                  ///< read-only failure + rebuild.
  double rebuild_days = 1.0;      ///< Downtime + rebuild traffic window.

  bool enabled() const { return drives > 0; }
};

/// One tenant of a multi-tenant scenario: its arbitration parameters
/// plus the workload profile generating its traffic (the scenario's
/// [workload] profile with the per-tenant overrides applied).
struct TenantSpec {
  double weight = 1.0;        ///< Share under the weighted policy (> 0).
  double deadline_us = 1000.0;  ///< Latency target under deadline (EDF).
  workload::WorkloadProfile profile;
};

/// Multi-tenant QoS ([tenants] section). When `tenants` is non-empty the
/// scenario splits the workload into one decorrelated stream per tenant
/// (tenant t submits on queue t) and installs the arbitration policy on
/// the device. A single-tenant [tenants] section reproduces the untagged
/// scenario byte-for-byte (the policies all degenerate to FIFO with one
/// tenant — the bit-transparency test in tests/test_arbitration.cc).
struct TenantsSpec {
  host::ArbitrationPolicy policy = host::ArbitrationPolicy::kFifo;
  std::vector<TenantSpec> tenants;

  bool enabled() const { return !tenants.empty(); }
  std::uint32_t count() const {
    return static_cast<std::uint32_t>(tenants.size());
  }
  /// The device-side arbitration table this section configures.
  host::ArbitrationConfig arbitration() const;
};

struct ScenarioSpec {
  std::string name = "scenario";
  int days = 2;                   ///< Simulated days to replay.
  std::uint32_t queue_depth = 4;  ///< Closed-loop outstanding commands.
  bool warm_fill = true;          ///< Pre-fill the FTL before measuring
                                  ///< (analytic backends only).
  DriveSpec drive;
  WorkloadSpec workload;
  TraceSpec trace;  ///< Optional [trace] replay; see TraceSpec.enabled().
  FleetSpec fleet;  ///< Optional [fleet] run; see FleetSpec.enabled().
  TenantsSpec tenants;  ///< Optional [tenants] QoS; see TenantsSpec.enabled().
};

/// Parses and validates a scenario from `config`, consuming every key it
/// understands and reporting the rest as unknown. Appends all problems
/// to `diags`; the returned spec is only meaningful when no diagnostics
/// were added (callers check diags->empty()).
ScenarioSpec parse_scenario(Config& config, std::vector<Diagnostic>* diags);

}  // namespace rdsim::cfg
