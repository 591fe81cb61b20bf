// rdsim/sim/experiment.h
//
// The unified experiment layer: every paper figure and ablation that used
// to live in its own bench main() is registered here as a named experiment
// over shared library code. Experiments receive an ExperimentContext that
// carries the base seed, the chip geometry, a Monte-Carlo scale knob, and
// a handle to the thread pool — so the same experiment runs full-size from
// the `rdsim` driver or tiny-and-fast from the unit tests, with results
// byte-identical across thread counts.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nand/geometry.h"
#include "sim/table.h"

namespace rdsim::sim {

struct ExperimentConfig {
  std::uint64_t seed = 42;  ///< Base seed; shard i draws Rng::stream(seed, i).
  int threads = 1;          ///< Pool width (results do not depend on it).
  /// Chip geometry for Monte-Carlo experiments; tests use Geometry::tiny().
  nand::Geometry geometry = nand::Geometry::characterization();
  /// Multiplier on simulation volume knobs that are not captured by the
  /// geometry: SSD trace sizes, DRAM rows-per-module, day counts. 1.0
  /// reproduces the paper-scale experiment; tests run ~0.01.
  double scale = 1.0;
  /// Inputs for the generic `scenario` experiment (CLI --config /
  /// --profile). A config file wins over a profile name; both empty runs
  /// the default built-in profile (cfg::builtin_profiles().front()).
  std::string scenario_config;
  std::string scenario_profile;
  /// CLI --trace: a trace file the scenario experiment replays instead of
  /// the spec's generated workload (overrides any [trace] path in the
  /// config file; format and remap policy keep their spec values).
  std::string scenario_trace;
  /// Fleet-run robustness knobs (fig_fleet; see src/fleet): --resume
  /// rebuilds a runner from a checkpoint file; --checkpoint/-every set
  /// where periodic checkpoints land and their epoch cadence;
  /// --stop-after-checkpoints stops deterministically after N periodic
  /// checkpoints (CI's signal-free kill); stop_flag is polled at epoch
  /// boundaries (the driver's SIGINT/SIGTERM flag — on stop the run
  /// writes a final checkpoint and raises fleet::Interrupted).
  std::string fleet_resume;
  std::string fleet_checkpoint;
  std::uint32_t fleet_checkpoint_every = 0;
  std::uint32_t fleet_stop_after = 0;
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

class ExperimentContext {
 public:
  ExperimentContext(const ExperimentConfig& config, ThreadPool& pool)
      : config_(config), pool_(&pool) {}

  std::uint64_t seed() const { return config_.seed; }
  const nand::Geometry& geometry() const { return config_.geometry; }
  double scale() const { return config_.scale; }
  /// Every input of the run; `scenario` and `fig_fleet` read their
  /// file, profile, trace and checkpoint knobs straight from it.
  const ExperimentConfig& config() const { return config_; }
  ThreadPool& pool() { return *pool_; }

  /// `count` scaled by the volume knob, kept >= `floor`.
  double scaled(double count, double floor = 1.0) const {
    const double s = count * config_.scale;
    return s < floor ? floor : s;
  }

  /// The next decorrelated Rng stream. Streams are numbered in call order
  /// on the experiment's main thread, so the k-th call is the same
  /// generator in every run with the same seed.
  Rng next_stream() { return Rng::stream(config_.seed, stream_base_++); }

  /// Deterministic parallel sweep: fn(points[i], rng_i) runs somewhere
  /// on the pool with rng_i = Rng::stream(seed, base + i), where base is
  /// the next unused stream number (it then advances by points.size());
  /// results come back in point order.
  template <typename Point, typename Fn>
  auto sweep(const std::vector<Point>& points, Fn&& fn) {
    using R = std::invoke_result_t<Fn&, const Point&, Rng&>;
    const std::uint64_t base = stream_base_;
    stream_base_ += points.size();
    const std::uint64_t seed = config_.seed;
    return pool_->map<R>(points.size(), [&](std::size_t i) {
      Rng rng = Rng::stream(seed, base + i);
      return fn(points[i], rng);
    });
  }

 private:
  ExperimentConfig config_;
  ThreadPool* pool_;
  std::uint64_t stream_base_ = 0;
};

using ExperimentFn = Table (*)(ExperimentContext&);

struct ExperimentInfo {
  const char* name;   ///< CLI name, e.g. "fig03".
  const char* title;  ///< One-line description (the figure caption).
  ExperimentFn fn;
};

/// All registered experiments, in figure order.
const std::vector<ExperimentInfo>& experiments();

/// Looks up an experiment by name; nullptr when unknown.
const ExperimentInfo* find_experiment(std::string_view name);

/// Runs one experiment under `config` (builds a pool of config.threads).
/// Throws std::invalid_argument for unknown names.
Table run_experiment(std::string_view name, const ExperimentConfig& config);
Table run_experiment(const ExperimentInfo& info,
                     const ExperimentConfig& config);

}  // namespace rdsim::sim
