// rdsim — the unified experiment driver.
//
// One binary reproduces every paper figure and ablation study:
//
//   rdsim --list
//   rdsim --experiment fig03
//   rdsim --experiment fig10 --threads 8 --seed 7 --csv out/fig10.csv
//   rdsim --experiment fig08 --tiny            # fast smoke run
//
// Experiments are sharded across a thread pool with per-shard Rng streams
// derived only from (--seed, shard index), so the output — stdout or CSV —
// is byte-identical for any --threads value.
#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>

#include "cfg/profiles.h"
#include "fleet/fleet.h"
#include "sim/cli.h"
#include "sim/experiment.h"

namespace {

// SIGINT/SIGTERM request a graceful stop: long-running experiments that
// poll this flag (the fleet runner, at epoch boundaries) write a final
// checkpoint and raise fleet::Interrupted, which main() turns into a
// clean exit 0 with resume instructions.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: rdsim --experiment NAME [flags]\n"
               "       rdsim --list\n\nFlags:\n%s",
               rdsim::sim::cli_flag_help());
  // Enumerate the registry so --help is self-contained (the docs CI job
  // snapshots this text against docs/rdsim-help.txt; adding an
  // experiment without regenerating the snapshot fails that job).
  std::fprintf(out, "\nExperiments:\n");
  for (const auto& e : rdsim::sim::experiments())
    std::fprintf(out, "  %-20s %s\n", e.name, e.title);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdsim::sim;
  CliOptions options = parse_cli(argc, argv);
  if (options.help) {
    print_usage(stdout);
    return 0;
  }
  if (!options.error.empty()) {
    std::fprintf(stderr, "rdsim: %s\n", options.error.c_str());
    print_usage(stderr);
    return 2;
  }
  if (options.list) {
    std::printf("%-20s %s\n", "name", "description");
    for (const auto& e : experiments())
      std::printf("%-20s %s\n", e.name, e.title);
    return 0;
  }
  if (options.list_profiles) {
    std::printf("%-20s %s\n", "profile", "description");
    for (const auto& p : rdsim::cfg::builtin_profiles())
      std::printf("%-20s %s\n", p.name.c_str(), p.description.c_str());
    return 0;
  }
  if (options.experiment.empty()) {
    print_usage(stderr);
    return 2;
  }
  const ExperimentInfo* info = find_experiment(options.experiment);
  if (info == nullptr) {
    std::fprintf(stderr,
                 "rdsim: unknown experiment '%s' (see rdsim --list)\n",
                 options.experiment.c_str());
    return 2;
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  options.config.stop_flag = &g_stop;
  try {
    const Table table = run_experiment(*info, options.config);
    if (!options.no_file &&
        (options.csv_requested || !options.csv_path.empty())) {
      const std::string path = options.csv_path.empty()
                                   ? default_csv_path(options, info->name)
                                   : options.csv_path;
      if (!write_csv_file(path, table)) return 1;
      std::fprintf(stderr, "rdsim: wrote %s\n", path.c_str());
    } else if (!options.quiet) {
      table.write(std::cout);
    }
  } catch (const rdsim::fleet::Interrupted& e) {
    // A requested stop (Ctrl-C, SIGTERM, or --stop-after-checkpoints)
    // is a clean exit: the final checkpoint is already on disk.
    std::fprintf(stderr, "rdsim: %s\n", e.what());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdsim: %s\n", e.what());
    return 1;
  }
  return 0;
}
