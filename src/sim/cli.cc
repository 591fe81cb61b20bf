#include "sim/cli.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

namespace rdsim::sim {
namespace {

/// True when `arg` matches `flag` and a value argument follows.
bool take_value(int argc, char** argv, int& i, std::string_view flag,
                std::string& value, CliOptions& options) {
  if (std::string_view(argv[i]) != flag) return false;
  if (i + 1 >= argc) {
    options.error = std::string(flag) + " requires a value";
    return true;
  }
  value = argv[++i];
  return true;
}

// Strict numeric parsers: trailing garbage is an error, not silently
// dropped ("--seed 4Z" must not run as seed 4).
bool parse_u64(const std::string& s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_int(const std::string& s, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX)
    return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_double(const std::string& s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc && options.error.empty(); ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    if (take_value(argc, argv, i, "--seed", value, options)) {
      if (options.error.empty() && !parse_u64(value, &options.config.seed))
        options.error = "--seed needs an unsigned integer, got '" + value +
                        "'";
    } else if (take_value(argc, argv, i, "--threads", value, options)) {
      if (options.error.empty() &&
          (!parse_int(value, &options.config.threads) ||
           options.config.threads < 1))
        options.error = "--threads must be an integer >= 1, got '" + value +
                        "'";
    } else if (take_value(argc, argv, i, "--out-dir", value, options)) {
      if (options.error.empty()) options.out_dir = value;
    } else if (take_value(argc, argv, i, "--scale", value, options)) {
      if (options.error.empty()) {
        if (!parse_double(value, &options.config.scale) ||
            options.config.scale <= 0.0) {
          options.error = "--scale must be a number > 0, got '" + value + "'";
        } else {
          options.scale_set = true;
        }
      }
    } else if (arg == "--tiny") {
      options.config.geometry = nand::Geometry::tiny();
      if (!options.scale_set) options.config.scale = 0.02;
    } else if (arg == "--csv") {
      options.csv_requested = true;
      // Optional value: consume the next argument unless it is a flag.
      if (i + 1 < argc && argv[i + 1][0] != '-') options.csv_path = argv[++i];
    } else if (take_value(argc, argv, i, "--config", value, options)) {
      if (options.error.empty()) options.config.scenario_config = value;
    } else if (take_value(argc, argv, i, "--profile", value, options)) {
      if (options.error.empty()) options.config.scenario_profile = value;
    } else if (take_value(argc, argv, i, "--trace", value, options)) {
      if (options.error.empty()) options.config.scenario_trace = value;
    } else if (take_value(argc, argv, i, "--resume", value, options)) {
      if (options.error.empty()) options.config.fleet_resume = value;
    } else if (take_value(argc, argv, i, "--checkpoint", value, options)) {
      if (options.error.empty()) options.config.fleet_checkpoint = value;
    } else if (take_value(argc, argv, i, "--checkpoint-every", value,
                          options)) {
      std::uint64_t every = 0;
      if (options.error.empty() && (!parse_u64(value, &every) || every == 0 ||
                                    every > 100000))
        options.error =
            "--checkpoint-every must be an integer in [1, 100000], got '" +
            value + "'";
      else if (options.error.empty())
        options.config.fleet_checkpoint_every =
            static_cast<std::uint32_t>(every);
    } else if (take_value(argc, argv, i, "--stop-after-checkpoints", value,
                          options)) {
      std::uint64_t count = 0;
      if (options.error.empty() && (!parse_u64(value, &count) || count == 0 ||
                                    count > 100000))
        options.error = "--stop-after-checkpoints must be an integer in "
                        "[1, 100000], got '" + value + "'";
      else if (options.error.empty())
        options.config.fleet_stop_after = static_cast<std::uint32_t>(count);
    } else if (arg == "--list-profiles") {
      options.list_profiles = true;
    } else if (arg == "--no-file") {
      options.no_file = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (take_value(argc, argv, i, "--experiment", value, options)) {
      if (options.error.empty()) options.experiment = value;
    } else if (arg == "--list") {
      options.list = true;
    } else {
      options.error = "unknown flag: " + std::string(arg);
    }
  }
  return options;
}

const char* cli_flag_help() {
  return
      "  --seed S        base seed for all random streams (default 42)\n"
      "  --threads N     worker threads; results are identical for any N\n"
      "  --out-dir DIR   directory for CSV output (default ./out)\n"
      "  --csv [PATH]    write the CSV (default PATH <out-dir>/<name>.csv);\n"
      "                  the rdsim driver then keeps the table off stdout.\n"
      "                  Bench binaries always write their CSV unless\n"
      "                  --no-file is given\n"
      "  --no-file       print to stdout only, write no file\n"
      "  --quiet         suppress the stdout table\n"
      "  --tiny          tiny chip geometry + 0.02 scale (fast smoke run)\n"
      "  --scale X       volume multiplier for SSD/DRAM experiments\n"
      "  --config PATH   scenario config file for the `scenario`\n"
      "                  experiment (see docs/CONFIG.md); a bad config\n"
      "                  exits non-zero listing every problem by key\n"
      "  --profile NAME  built-in scenario profile (see --list-profiles);\n"
      "                  --config wins when both are given\n"
      "  --trace PATH    trace file (MSR-Cambridge or rdsim CSV) the\n"
      "                  `scenario` experiment replays instead of its\n"
      "                  generated workload; overrides any [trace] path in\n"
      "                  the config (see docs/CONFIG.md [trace])\n"
      "  --list-profiles list the built-in scenario profiles\n"
      "  --resume PATH   continue a fleet run from a checkpoint written by\n"
      "                  an earlier `fig_fleet` run; self-contained (the\n"
      "                  config and seed come from the checkpoint), and the\n"
      "                  resumed output is byte-identical to an\n"
      "                  uninterrupted run. Corrupt, truncated or\n"
      "                  mismatched checkpoints are rejected with a\n"
      "                  diagnostic, never silently restored\n"
      "  --checkpoint PATH\n"
      "                  where fleet checkpoints are written\n"
      "                  (default fleet.ckpt); files land atomically via\n"
      "                  temp file + rename\n"
      "  --checkpoint-every N\n"
      "                  write a checkpoint every N reporting epochs\n"
      "                  during `fig_fleet` (overrides the config's\n"
      "                  fleet.checkpoint_every). Ctrl-C (SIGINT/SIGTERM)\n"
      "                  always writes a final checkpoint and exits\n"
      "                  cleanly with resume instructions\n"
      "  --stop-after-checkpoints N\n"
      "                  stop the fleet run right after the N-th periodic\n"
      "                  checkpoint, exactly as if interrupted (used by CI\n"
      "                  for deterministic kill-and-resume smokes)\n"
      "  --help          this text\n";
}

std::string default_csv_path(const CliOptions& options,
                             const std::string& name) {
  return (std::filesystem::path(options.out_dir) / (name + ".csv")).string();
}

bool write_csv_file(const std::string& path, const Table& table) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "rdsim: cannot write %s\n", path.c_str());
    return false;
  }
  table.write(out);
  return out.good();
}

}  // namespace rdsim::sim
