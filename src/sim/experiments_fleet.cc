// fig_fleet: the fleet-scale lifetime experiment over src/fleet. N
// config-driven analytic drives run for a multi-year horizon with
// lifecycle tracking (healthy -> degraded -> read-only -> replaced),
// per-drive fault rates drawn from fleet-level distributions, and
// sampled Monte Carlo teardown drives cross-checking the analytic RBER.
// The robustness path rides the same experiment: --checkpoint/-every
// write periodic whole-fleet checkpoints, --resume continues a killed
// run byte-identically, and the driver's SIGINT/SIGTERM flag turns into
// a final checkpoint + clean exit (fleet::Interrupted).
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "sim/experiments.h"
#include "workload/profiles.h"

namespace rdsim::sim {

namespace {

/// The built-in fleet scenario the golden CRC pins: small drives with a
/// 2-block spare budget (so lifecycle transitions happen inside the
/// horizon), lognormally spread P/E fault rates, every 4th drive a
/// teardown drive. Volume knobs scale with the context.
cfg::ScenarioSpec default_fleet_spec(ExperimentContext& ctx) {
  cfg::ScenarioSpec spec;
  spec.name = "fig_fleet";
  spec.drive.backend = cfg::Backend::kAnalytic;
  spec.drive.blocks = 64;
  spec.drive.pages_per_block = 16;
  spec.drive.overprovision = 0.25;
  spec.drive.gc_free_target = 4;
  spec.drive.spare_blocks = 2;
  spec.drive.queue_count = 1;
  spec.workload.profile = workload::profile_by_name("fiu-web-vm");
  spec.workload.profile.daily_page_ios = ctx.scaled(20000.0, 4000.0);
  spec.workload.profile.read_fraction = 0.3;  // Write-heavy: exercises
                                              // the P/E fault path.
  const std::uint32_t horizon =
      static_cast<std::uint32_t>(ctx.scaled(360.0, 30.0));
  spec.fleet.drives = static_cast<std::uint32_t>(ctx.scaled(96.0, 12.0));
  spec.fleet.years = static_cast<double>(horizon) / 365.0;
  spec.fleet.report_interval_days = std::max<std::uint32_t>(1, horizon / 6);
  spec.fleet.teardown_every = 4;
  spec.fleet.pe_fail_prob_median = 2e-4;
  spec.fleet.fault_rate_sigma = 0.8;
  spec.fleet.replace_failed = true;
  spec.fleet.rebuild_days = 1.0;
  return spec;
}

cfg::ScenarioSpec fleet_spec_from_config(const std::string& path) {
  cfg::ScenarioSpec spec = load_scenario_config(path);
  if (!spec.fleet.enabled())
    throw std::runtime_error("config '" + path +
                             "' has no [fleet] section; fig_fleet needs "
                             "fleet.drives");
  return spec;
}

}  // namespace

Table run_fig_fleet(ExperimentContext& ctx) {
  const ExperimentConfig& config = ctx.config();
  std::unique_ptr<fleet::FleetRunner> runner;
  if (!config.fleet_resume.empty()) {
    std::string error;
    runner = fleet::FleetRunner::from_checkpoint_file(config.fleet_resume,
                                                      ctx.pool(), &error);
    if (runner == nullptr)
      throw std::runtime_error("cannot resume from '" + config.fleet_resume +
                               "': " + error);
    // An explicit --config alongside --resume must describe the same
    // run; a drifted config is a config-mismatch rejection, not a
    // silent override.
    if (!config.scenario_config.empty()) {
      const cfg::ScenarioSpec given =
          fleet_spec_from_config(config.scenario_config);
      if (fleet::FleetRunner::canonical_config(given) !=
          fleet::FleetRunner::canonical_config(runner->spec()))
        throw std::runtime_error(
            "cannot resume from '" + config.fleet_resume + "': --config " +
            config.scenario_config +
            " does not match the configuration the checkpoint was taken "
            "under");
    }
  } else {
    const cfg::ScenarioSpec spec =
        config.scenario_config.empty()
            ? default_fleet_spec(ctx)
            : fleet_spec_from_config(config.scenario_config);
    runner = std::make_unique<fleet::FleetRunner>(spec, ctx.seed(),
                                                  ctx.pool());
  }

  fleet::FleetOptions options;
  options.checkpoint_path = config.fleet_checkpoint;
  options.checkpoint_every = config.fleet_checkpoint_every;
  options.stop_flag = config.stop_flag;
  options.stop_after_checkpoints = config.fleet_stop_after;
  return fleet::run_fleet(*runner, options);
}

}  // namespace rdsim::sim
