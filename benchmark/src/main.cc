// rdbench — rdsim's calibrated benchmark.
//
//   rdbench --workload NAME [--seed S] [--seconds T] [--traced]
//           [--trace-out PATH] [--scratch DIR] [--git-sha SHA]
//
// Runs one workload's measured phase repeatedly, each repetition from
// fresh state with the same seeded traffic, until T seconds of measured
// phase have passed and at least three repetitions ran, on 4 workers (the
// calling thread included). Prints one line of JSON with every metric
// (median, min, max), the host's provenance, the simulated-output summary
// and the checks; then, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --traced the per-layer ones.
//
// --traced alternates untraced and traced repetitions (spans recorded,
// windows driven one call each), then probes the workload's end state,
// reruns it on 1 worker (its digest must match) and runs the workload's
// own extra checks. Layers the workload does not exercise are measured on
// one traced repetition of a companion workload that does. --trace-out
// writes the workload's spans as Chrome trace-event JSON. Exits 1 if any
// check failed, 2 on a usage error.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "report.h"
#include "tracer.h"
#include "workloads.h"

namespace rdbench {
namespace {

constexpr int kWorkers = 4;
constexpr std::size_t kMaxRepetitions = 50;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
  std::string scratch = ".";
  std::string git_sha = "unknown";
};

struct UnitName {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run prints, in this order.
// sim.exp_ms.<experiment> follow, one per registered experiment.
constexpr UnitName kLayerMetrics[] = {
    {"host.driver_s", "s"},
    {"host.end_of_day_s", "s"},
    {"host.window_us_p50", "us"},
    {"host.window_us_p99", "us"},
    {"host.window_samples", "count"},
    {"host.stats_add_ns", "ns"},
    {"host.arb_drain_us.fifo", "us"},
    {"host.arb_drain_us.round_robin", "us"},
    {"host.arb_drain_us.weighted", "us"},
    {"host.arb_drain_us.deadline", "us"},
    {"host.scaling_eff", "ratio"},
    {"host.commands", "count"},
    {"host.stall_share", "ratio"},
    {"host.retry_attempts", "count"},
    {"host.rdr_attempts", "count"},
    {"host.reads_corrected", "count"},
    {"host.reads_uncorrectable", "count"},
    {"nand.page_sense_us", "us"},
    {"nand.materialize_us", "us"},
    {"nand.retry_scan_us", "us"},
    {"core.rdr_recover_us", "us"},
    {"ftl.write_amp", "ratio"},
    {"ftl.gc_erases", "count"},
    {"replay.parse_ns_per_cmd", "ns"},
    {"workload.gen_ns_per_cmd", "ns"},
    {"fleet.epoch_s_p50", "s"},
    {"fleet.epoch_s_max", "s"},
    {"fleet.checkpoint_ms", "ms"},
    {"fleet.write_ms", "ms"},
    {"fleet.restore_ms", "ms"},
    {"fleet.checkpoint_mb", "MB"},
    {"common.pool_speedup", "ratio"},
    {"cfg.parse_us", "us"},
    {"trace.overhead_pct", "%"},
};

// Workloads that supply the per-layer metrics a traced workload does not
// measure itself, tried in this order while any is missing. tenants_qos
// covers the host layer, trace_replay the parser, fleet the fleet layer
// and mc_worn the chip and the recovery ladder.
constexpr std::string_view kCompanions[] = {"tenants_qos", "trace_replay",
                                            "fleet", "mc_worn"};

/// workload.gen_ns_per_cmd over `reps`, if they generate traffic at all
/// (the fleet's drives generate their own, inside the measured phase).
void set_gen_ns(const std::vector<Repetition>& reps, Metrics* out) {
  std::vector<double> ns;
  for (const Repetition& r : reps)
    if (r.gen_s > 0.0 && r.ops > 0)
      ns.push_back(r.gen_s / static_cast<double>(r.ops) * 1e9);
  if (!ns.empty()) out->set_median("workload.gen_ns_per_cmd", "ns", ns);
}

void usage() {
  std::fprintf(stderr,
               "usage: rdbench --workload NAME [--seed S] [--seconds T] "
               "[--traced] [--trace-out PATH] [--scratch DIR] "
               "[--git-sha SHA]\nworkloads:");
  for (const std::string_view name : workload_names())
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()),
                 name.data());
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      args->traced = true;
    } else if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      args->seed = std::strtoull(text, &end, 10);
      if (errno != 0 || end == text || *end != '\0' || *text == '-')
        return false;
    } else if (arg == "--seconds" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      args->seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 3600.0)
        return false;
    } else if (arg == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else if (arg == "--scratch" && has_value) {
      args->scratch = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      args->git_sha = argv[++i];
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), args->workload) !=
         names.end();
}

/// A per-process directory for temporary files, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent, const std::string& name)
      : path_(parent + "/rdbench-" + name + "-" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

/// The digest most repetitions agree on (the first one's on a tie).
std::uint32_t majority_digest(const std::vector<Repetition>& reps) {
  std::map<std::uint32_t, int> votes;
  for (const Repetition& r : reps) ++votes[r.digest];
  std::uint32_t best = reps.front().digest;
  for (const auto& [digest, count] : votes)
    if (count > votes[best]) best = digest;
  return best;
}

std::string hex32(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", value);
  return buf;
}

/// Operations attempted and failed over the run, one line per failed check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Counts repetition `r`'s operations and failures. A digest other than
  /// `reference`, when there is one, fails every operation of `r`.
  void add(const std::string& label, const Repetition& r,
           std::optional<std::uint32_t> reference) {
    attempted += r.ops;
    failed += r.failed;
    for (const std::string& p : r.problems) problems.push_back(label + ": " + p);
    if (reference.has_value() && r.digest != *reference) {
      failed += r.ops;
      problems.push_back(label + ": digest " + hex32(r.digest) +
                         " differs from " + hex32(*reference));
    }
  }
};

std::string metric_list_json(const Metrics& metrics) {
  std::string out = "[";
  for (const Metric& m : metrics.all()) {
    if (out.size() > 1) out += ",";
    out += "{\"name\":" + json_string(m.name) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"value\":" + json_number(m.value) +
           ",\"min\":" + json_number(m.min) +
           ",\"max\":" + json_number(m.max) + "}";
  }
  return out + "]";
}

std::string simulated_json(const SimSummary& sim, std::uint32_t digest) {
  const auto& e = sim.errors;
  const double reads = static_cast<double>(
      e.reads_ok + e.reads_corrected + e.reads_retry_recovered +
      e.reads_rdr_recovered + e.reads_uncorrectable);
  const auto share = [reads](std::uint64_t n) {
    return json_number(reads > 0.0 ? static_cast<double>(n) / reads : 0.0);
  };
  const auto at_ceiling = [&sim](double us) {
    return sim.latency_ceiling_us > 0.0 && us >= sim.latency_ceiling_us
               ? "true"
               : "false";
  };
  return "{\"digest\":\"" + hex32(digest) +
         "\",\"drive_days\":" + json_number(sim.drive_days) +
         ",\"iops\":" + json_number(sim.iops) +
         ",\"read_p50_us\":" + json_number(sim.read_p50_us) +
         ",\"read_p99_us\":" + json_number(sim.read_p99_us) +
         ",\"latency_ceiling_us\":" + json_number(sim.latency_ceiling_us) +
         ",\"read_p50_at_ceiling\":" + at_ceiling(sim.read_p50_us) +
         ",\"read_p99_at_ceiling\":" + at_ceiling(sim.read_p99_us) +
         ",\"uber\":" + json_number(sim.uber) +
         ",\"stall_share\":" + json_number(sim.stall_share) +
         ",\"ladder\":{\"page_reads\":" + json_number(reads) +
         ",\"ok_share\":" + share(e.reads_ok) +
         ",\"corrected_share\":" + share(e.reads_corrected) +
         ",\"retry_share\":" + share(e.reads_retry_recovered) +
         ",\"rdr_share\":" + share(e.reads_rdr_recovered) +
         ",\"uncorrectable_share\":" + share(e.reads_uncorrectable) +
         ",\"retry_attempts\":" +
         json_number(static_cast<double>(e.retry_attempts)) +
         ",\"rdr_attempts\":" +
         json_number(static_cast<double>(e.rdr_attempts)) +
         "},\"write_amp\":" + json_number(sim.write_amp) +
         ",\"gc_erases\":" + json_number(static_cast<double>(sim.gc_erases)) +
         "}";
}

int run(const Args& args) {
  const ScratchDir scratch(args.scratch, args.workload);
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, scratch.path());

  // Scored repetitions. A traced run alternates untraced and traced ones,
  // so the untraced medians and the tracing overhead come from one run.
  Tracer tracer;
  std::vector<Repetition> reps;
  std::vector<Repetition> untraced;
  std::vector<Repetition> traced;
  const std::size_t min_each = args.traced ? 2 : 3;
  double measured_s = 0.0;
  while (reps.size() < kMaxRepetitions) {
    const bool trace_this = args.traced && reps.size() % 2 == 1;
    tracer.set_track(static_cast<int>(reps.size()));
    Repetition r =
        workload->run({kWorkers, trace_this ? &tracer : nullptr});
    measured_s += r.wall_s;
    (trace_this ? traced : untraced).push_back(r);
    reps.push_back(std::move(r));
    const bool enough = untraced.size() >= min_each &&
                        (!args.traced || traced.size() >= min_each);
    if (enough && measured_s >= args.seconds) break;
  }

  Checks checks;
  const std::uint32_t reference = majority_digest(reps);
  for (std::size_t i = 0; i < reps.size(); ++i)
    checks.add("repetition " + std::to_string(i), reps[i], reference);

  const auto collect = [](const std::vector<Repetition>& rs, auto field) {
    std::vector<double> out;
    for (const Repetition& r : rs) out.push_back(field(r));
    return out;
  };
  const auto wall = [](const Repetition& r) { return r.wall_s; };
  Metrics e2e;
  e2e.set_median("wall_s", "s", collect(untraced, wall));
  e2e.set_median("setup_s", "s", collect(untraced, [](const Repetition& r) {
                   return r.setup_s;
                 }));
  e2e.set_median("kops_per_s", "kop/s",
                 collect(untraced, [](const Repetition& r) {
                   return static_cast<double>(r.ops) / r.wall_s / 1e3;
                 }));
  e2e.set_median("drive_days_per_s", "drive-day/s",
                 collect(untraced, [](const Repetition& r) {
                   return r.sim.drive_days / r.wall_s;
                 }));

  Metrics layers;
  std::string companions_json;
  if (args.traced) {
    // What this workload measures itself. Simulated counts come from its
    // own output even where they read 0 (no retries on mc_aged).
    Metrics own;
    tracer.set_track(-1);
    workload->probe(tracer, &own);
    const SimSummary& sim = reps.front().sim;
    own.set("host.stall_share", "ratio", sim.stall_share);
    own.set("host.retry_attempts", "count",
            static_cast<double>(sim.errors.retry_attempts));
    own.set("host.rdr_attempts", "count",
            static_cast<double>(sim.errors.rdr_attempts));
    own.set("host.reads_corrected", "count",
            static_cast<double>(sim.errors.reads_corrected));
    own.set("host.reads_uncorrectable", "count",
            static_cast<double>(sim.errors.reads_uncorrectable));
    own.set("ftl.write_amp", "ratio", sim.write_amp);
    own.set("ftl.gc_erases", "count", static_cast<double>(sim.gc_erases));
    set_gen_ns(reps, &own);
    const double speedup = pool_speedup(kWorkers);
    own.set("common.pool_speedup", "ratio", speedup);
    own.set("cfg.parse_us", "us",
            cfg_parse_us(std::string(RDBENCH_REPO_ROOT) +
                         "/examples/configs"));
    // Repetition 0 runs in a cold process: it stays scored, but the
    // tracing overhead compares warm repetitions only.
    const std::vector<Repetition> warm_untraced(untraced.begin() + 1,
                                                untraced.end());
    own.set("trace.overhead_pct", "%",
            (median(collect(traced, wall)) /
                 median(collect(warm_untraced, wall)) -
             1.0) *
                100.0);
    const double untraced_wall = median(collect(untraced, wall));

    // The same repetition on one worker: identical simulated output, and
    // the wall-time ratio the pool turns into scaling.
    const Repetition one = workload->run({1, nullptr});
    checks.add("1-worker repetition", one, reference);
    own.set("host.scaling_eff", "ratio",
            one.wall_s / untraced_wall / speedup);
    const Workload::Outcome extra =
        workload->extra_checks(reference, &checks.problems);
    checks.attempted += extra.attempted;
    checks.failed += extra.failed;

    // A layer this workload does not exercise (no burst windows on
    // mc_aged, no chip on fleet, ...) is measured on one traced
    // repetition of a workload that does, so every per-layer time is a
    // measurement rather than a constant 0.
    const auto missing = [&own] {
      return std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                         [&own](const UnitName& m) {
                           return own.find(m.name) == nullptr;
                         });
    };
    for (const std::string_view name : kCompanions) {
      if (name == args.workload || !missing()) continue;
      const std::unique_ptr<Workload> companion =
          make_workload(name, args.seed, scratch.path());
      Tracer companion_tracer;
      companion_tracer.set_track(0);
      const Repetition r = companion->run({kWorkers, &companion_tracer});
      checks.add("companion " + std::string(name), r, std::nullopt);
      companion_tracer.set_track(-1);
      Metrics provided;
      companion->probe(companion_tracer, &provided);
      set_gen_ns({r}, &provided);
      std::string names;
      for (const Metric& m : provided.all()) {
        if (own.find(m.name) != nullptr) continue;
        own.set(m.name, m.unit, m.value, m.min, m.max);
        names += (names.empty() ? "" : ",") + json_string(m.name);
      }
      companions_json += (companions_json.empty() ? "" : ",") +
                         json_string(name) + ":[" + names + "]";
    }
    for (const UnitName& m : kLayerMetrics) {
      const Metric* found = own.find(m.name);
      if (found != nullptr)
        layers.set(m.name, m.unit, found->value, found->min, found->max);
      else
        layers.set(m.name, m.unit, 0.0);
    }

    experiment_ms(kWorkers, scratch.path(), &layers);
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out))
      std::fprintf(stderr, "rdbench: cannot write %s\n",
                   args.trace_out.c_str());
  }
  // Measured last, after every repetition and probe of this process.
  e2e.set("peak_rss_mb", "MB", peak_rss_mb());

  const std::uint64_t attempted = checks.attempted;
  const std::uint64_t failed = checks.failed;
  const std::vector<std::string>& problems = checks.problems;
  const bool correct = failed == 0 && problems.empty();
  Metrics all = e2e;
  for (const Metric& m : layers.all())
    all.set(m.name, m.unit, m.value, m.min, m.max);
  std::string report =
      "{\"rdbench\":{\"workload\":" + json_string(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"traced\":" + (args.traced ? "true" : "false") +
      ",\"seconds\":" + json_number(args.seconds) +
      ",\"provenance\":{\"nproc\":" + std::to_string(affinity_cpus()) +
      ",\"hardware_concurrency\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"workers\":" + std::to_string(kWorkers) +
      ",\"compiler\":" + json_string(RDBENCH_COMPILER) +
#ifdef __OPTIMIZE__
      ",\"optimized\":true" +
#else
      ",\"optimized\":false" +
#endif
      ",\"git_sha\":" + json_string(args.git_sha) +
      "},\"repetitions\":{\"untraced\":" + std::to_string(untraced.size()) +
      ",\"traced\":" + std::to_string(traced.size()) +
      "},\"companions\":{" + companions_json +
      "},\"metrics\":" + metric_list_json(all) +
      ",\"simulated\":" + simulated_json(reps.front().sim, reference) +
      ",\"checks\":{\"attempted\":" + std::to_string(attempted) +
      ",\"failed\":" + std::to_string(failed) + ",\"failed_frac\":" +
      json_number(attempted == 0 ? 0.0
                                 : static_cast<double>(failed) /
                                       static_cast<double>(attempted)) +
      ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) report += ",";
    report += json_string(problems[i]);
  }
  report += "]}}}";
  std::printf("%s\n", report.c_str());

  std::string result = "{\"correct\":" + std::string(correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"metrics\":{";
  const Metrics& scored = args.traced ? layers : e2e;
  for (std::size_t i = 0; i < scored.all().size(); ++i) {
    const Metric& m = scored.all()[i];
    if (i > 0) result += ",";
    result += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
              ",\"unit\":" + json_string(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  for (const std::string& p : problems)
    std::fprintf(stderr, "rdbench: check failed: %s\n", p.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rdbench

int main(int argc, char** argv) {
  rdbench::Args args;
  if (!rdbench::parse_args(argc, argv, &args)) {
    rdbench::usage();
    return 2;
  }
  try {
    return rdbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rdbench: %s\n", e.what());
    return 1;
  }
}
