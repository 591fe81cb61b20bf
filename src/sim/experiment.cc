#include "sim/experiment.h"

#include <stdexcept>
#include <string>

#include "sim/experiments.h"

namespace rdsim::sim {

const std::vector<ExperimentInfo>& experiments() {
  static const std::vector<ExperimentInfo> kExperiments = {
      {"fig02", "Vth distributions before/after read disturb", run_fig02},
      {"fig03", "RBER vs read disturb count at 2K-15K P/E", run_fig03},
      {"fig04", "RBER vs read disturb count for relaxed Vpass", run_fig04},
      {"fig05", "Additional RBER from relaxed Vpass vs retention age",
       run_fig05},
      {"fig06", "Retention RBER, ECC margin and tolerable Vpass reduction",
       run_fig06},
      {"fig07", "Error-rate peaks across refresh intervals, with tuning",
       run_fig07},
      {"fig08", "P/E cycle endurance per workload, baseline vs tuning",
       run_fig08},
      {"fig09", "ER/P1 boundary shift under read disturb", run_fig09},
      {"fig10", "RBER with and without Read Disturb Recovery", run_fig10},
      {"fig11", "RowHammer error rate vs DRAM manufacture date", run_fig11},
      {"fig12", "Victim cells per aggressor row, representative modules",
       run_fig12},
      {"ablation_rdr", "RDR sensitivity to its design choices",
       run_ablation_rdr},
      {"ablation_tuning", "Vpass Tuning sensitivity to its design choices",
       run_ablation_tuning},
      {"ext_mechanisms", "Extension studies: RFR, ROR, 3D NAND, PARA",
       run_ext_mechanisms},
      {"mitigation_compare", "Mitigation landscape: reclaim vs tuning",
       run_mitigation_compare},
      {"overheads", "Vpass Tuning time/storage overheads (512 GB SSD)",
       run_overheads},
      {"fig_qos",
       "Read latency percentiles vs mitigation policy and queue depth",
       run_fig_qos},
      {"fig_qos_mc",
       "Drive-scale read QoS on the sharded Monte Carlo backend",
       run_fig_qos_mc},
      {"fig_qos_tenants",
       "Multi-tenant noisy-neighbor isolation: victim read tail vs "
       "arbitration policy (fifo/round_robin/weighted/deadline)",
       run_fig_qos_tenants},
      {"fig_reliability",
       "Fault injection vs the error path: UBER, recovery attribution, "
       "time-to-read-only",
       run_fig_reliability},
      {"fig_trace_replay",
       "Real-trace replay: MSR sample through analytic and sharded-MC "
       "drives, open and closed loop, latency CDF + moving percentiles",
       run_fig_trace_replay},
      {"scenario",
       "Config-driven drive replay (--config FILE or --profile NAME)",
       run_scenario},
      {"fig_fleet",
       "Fleet lifetime: AFR vs age, UBER trajectory, refresh overhead, "
       "time-to-read-only (checkpoint/resume via --checkpoint/--resume)",
       run_fig_fleet},
  };
  return kExperiments;
}

const ExperimentInfo* find_experiment(std::string_view name) {
  for (const auto& e : experiments())
    if (name == e.name) return &e;
  return nullptr;
}

Table run_experiment(const ExperimentInfo& info,
                     const ExperimentConfig& config) {
  ThreadPool pool(config.threads);
  ExperimentContext ctx(config, pool);
  return info.fn(ctx);
}

Table run_experiment(std::string_view name, const ExperimentConfig& config) {
  const ExperimentInfo* info = find_experiment(name);
  if (info == nullptr)
    throw std::invalid_argument("unknown experiment: " + std::string(name));
  return run_experiment(*info, config);
}

}  // namespace rdsim::sim
