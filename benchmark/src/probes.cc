#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cfg/config.h"
#include "cfg/spec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/rdr.h"
#include "host/stats.h"
#include "replay/trace_reader.h"
#include "sim/experiment.h"
#include "tracer.h"

namespace rdbench {
namespace {

using namespace rdsim;

// Results of probed calls land here so the compiler cannot drop them.
volatile double g_sink = 0.0;

/// Median over `batches` of the mean seconds per call of `calls` calls
/// fn(i), i counting across batches.
template <typename Fn>
double median_s_per_call(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  int i = 0;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int c = 0; c < calls; ++c) fn(i++);
    per_call.push_back(seconds_since(start) / calls);
  }
  return median(per_call);
}

}  // namespace

double pool_speedup(int workers) {
  constexpr std::size_t kTasks = 64;
  constexpr int kDraws = 400000;
  std::vector<double> out(kTasks);
  const auto load = [&out](std::size_t i) {
    Rng rng(i);
    double acc = 0.0;
    for (int k = 0; k < kDraws; ++k) acc += rng.uniform();
    out[i] = acc;
  };
  ThreadPool one(1);
  ThreadPool many(workers);
  std::vector<double> t1;
  std::vector<double> tn;
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    one.for_each(kTasks, load);
    t1.push_back(seconds_since(start));
    start = Clock::now();
    many.for_each(kTasks, load);
    tn.push_back(seconds_since(start));
  }
  g_sink = out[0];
  return median(t1) / median(tn);
}

double cfg_parse_us(const std::string& config_dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_dir, ec))
    if (entry.path().extension() == ".conf") files.push_back(entry.path());
  if (files.empty()) return 0.0;
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return median_s_per_call(7, 50, [&](int) {
           std::size_t diagnostics = 0;
           for (const std::string& text : texts) {
             std::vector<cfg::Diagnostic> diags;
             cfg::Config config = cfg::Config::parse(text, &diags);
             const cfg::ScenarioSpec spec = cfg::parse_scenario(config, &diags);
             diagnostics += diags.size() + spec.name.size();
           }
           g_sink = static_cast<double>(diagnostics);
         }) *
         1e6;
}

void experiment_ms(int workers, const std::string& scratch_dir,
                   Metrics* out) {
  for (const sim::ExperimentInfo& info : sim::experiments()) {
    sim::ExperimentConfig config;
    config.seed = 42;
    config.threads = workers;
    config.geometry = nand::Geometry::tiny();
    config.scale = 0.02;
    config.fleet_checkpoint = scratch_dir + "/fig_fleet.ckpt";
    const auto start = Clock::now();
    const sim::Table table = sim::run_experiment(info, config);
    out->set(std::string("sim.exp_ms.") + info.name, "ms",
             seconds_since(start) * 1e3);
    g_sink = static_cast<double>(table.sections().size());
  }
}

double stats_add_ns(const std::vector<host::Completion>& log) {
  if (log.empty()) return 0.0;
  std::vector<double> per_add;
  for (int rep = 0; rep < 5; ++rep) {
    host::CompletionStats stats;
    const auto start = Clock::now();
    for (const host::Completion& c : log) stats.add(c);
    per_add.push_back(seconds_since(start) / static_cast<double>(log.size()));
    g_sink = static_cast<double>(stats.commands());
  }
  return median(per_add) * 1e9;
}

double arb_drain_us(host::Device& device,
                    const host::ArbitrationConfig& arbitration,
                    const std::vector<host::Command>& commands) {
  if (commands.empty()) return 0.0;
  std::vector<host::Completion> done;
  device.drain(&done);
  device.set_arbitration(arbitration);
  std::vector<double> drains;
  for (int rep = 0; rep < 9; ++rep) {
    const double now = device.now_s();
    for (host::Command c : commands) {
      c.submit_time_s = now;
      device.submit(c);
    }
    done.clear();
    const auto start = Clock::now();
    device.drain(&done);
    drains.push_back(seconds_since(start));
  }
  return median(drains) * 1e6;
}

void probe_chip(nand::Chip& chip, Metrics* out) {
  const std::uint32_t wordlines = chip.geometry().wordlines_per_block;
  const auto wl = [wordlines](int i) {
    return static_cast<std::uint32_t>(i) % wordlines;
  };

  nand::Block& sensed = chip.block(0);
  for (std::uint32_t w = 0; w < wordlines; ++w)
    g_sink = sensed.count_errors({w, nand::PageKind::kLsb});
  out->set("nand.page_sense_us", "us",
           median_s_per_call(7, static_cast<int>(wordlines), [&](int i) {
             g_sink = sensed.count_errors({wl(i), nand::PageKind::kLsb});
           }) * 1e6);
  out->set("nand.retry_scan_us", "us",
           median_s_per_call(5, 4, [&](int i) {
             g_sink = static_cast<double>(
                 sensed.read_retry_scan(wl(i), 0.0, 520.0, 0.5).size());
           }) * 1e6);

  // RDR applies real disturbs to the block; give it one of its own.
  nand::Block& recovered = chip.block(1);
  const core::ReadDisturbRecovery rdr;
  out->set("core.rdr_recover_us", "us",
           median_s_per_call(5, 1, [&](int i) {
             g_sink = rdr.recover(recovered, wl(i * 7)).errors_after;
           }) * 1e6);

  // First touch of freshly programmed wordlines: the deferred program
  // sampling plus one sense.
  std::vector<double> first_touch;
  for (const std::size_t b : {2, 3}) {
    nand::Block& block = chip.block(b);
    block.erase();
    block.program_random();
    for (std::uint32_t w = 0; w < wordlines; ++w) {
      const auto start = Clock::now();
      g_sink = block.count_errors({w, nand::PageKind::kLsb});
      first_touch.push_back(seconds_since(start));
    }
  }
  out->set("nand.materialize_us", "us", median(first_touch) * 1e6);
}

double parse_ns_per_record(const std::vector<std::string>& paths) {
  std::uint64_t records = 0;
  std::vector<workload::IoRequest> chunk;
  const auto start = Clock::now();
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    replay::StreamingTraceReader reader(in, replay::TraceFormat::kCsv);
    while (reader.read_chunk(4096, &chunk) > 0) records += chunk.size();
  }
  const double elapsed = seconds_since(start);
  return records == 0 ? 0.0 : elapsed / static_cast<double>(records) * 1e9;
}

}  // namespace rdbench
