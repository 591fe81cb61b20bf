#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "cfg/spec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ecc/crc32.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "host/driver.h"
#include "host/factory.h"
#include "host/sharded_device.h"
#include "host/ssd_servicer.h"
#include "probes.h"
#include "replay/latency.h"
#include "replay/replayer.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/tenants.h"
#include "workload/trace_io.h"

namespace rdbench {
namespace {

using namespace rdsim;

// Drive and traffic seeds are independent streams of the run's seed.
std::uint64_t drive_seed(std::uint64_t seed) {
  return Rng::stream(seed, 0).next();
}
std::uint64_t traffic_seed(std::uint64_t seed) {
  return Rng::stream(seed, 1).next();
}

// The clamps of CompletionStats' and LatencyTracker's default latency
// histograms: a quantile reading exactly this is a floor, not a value.
constexpr double kStatsCeilingUs = 250000.0;
constexpr double kTrackerCeilingUs = 50000.0;

constexpr double kBitsPerPage = 8192.0;

// A traced run keeps this many completions of each repetition for the
// CompletionStats::add probe.
constexpr std::size_t kProbeLogCap = 200000;

/// Checks a completion log against the ids submitted and folds it into
/// the repetition's digest. Ids are device-assigned in submission order,
/// so the measured commands own [first_id, first_id + expected()).
class LogCheck {
 public:
  explicit LogCheck(std::uint64_t first_id) : first_id_(first_id) {}

  void expect(std::size_t commands) {
    delivered_.resize(delivered_.size() + commands, 0);
  }
  std::uint64_t expected() const { return delivered_.size(); }

  void add(const std::vector<host::Completion>& log) {
    std::vector<std::uint8_t> bytes(log.size() * kRecordBytes);
    std::uint8_t* p = bytes.data();
    for (const host::Completion& c : log) {
      if (c.id < first_id_ || c.id - first_id_ >= delivered_.size()) {
        ++unknown_;
      } else {
        std::uint8_t& d = delivered_[c.id - first_id_];
        if ((d & kCountMask) < kCountMask) ++d;
        if (c.complete_time_s < c.submit_time_s) d |= kEarly;
      }
      latency_s_ += c.latency_s();
      stall_s_ += c.stall_s;
      p = pack(c, p);
    }
    crc_.update(bytes);
  }

  /// Ids delivered other than exactly once or completed before their
  /// submission, plus completions of ids never submitted.
  std::uint64_t failed() const {
    std::uint64_t n = unknown_;
    for (const std::uint8_t d : delivered_) n += d != 1 ? 1 : 0;
    return n;
  }
  std::uint32_t digest() const { return crc_.value(); }
  double stall_share() const {
    return latency_s_ > 0.0 ? stall_s_ / latency_s_ : 0.0;
  }

 private:
  static constexpr std::uint8_t kEarly = 0x80;
  static constexpr std::uint8_t kCountMask = 0x7F;
  static constexpr std::size_t kRecordBytes = 62;

  template <typename T>
  static std::uint8_t* put(std::uint8_t* p, const T& v) {
    std::memcpy(p, &v, sizeof(v));
    return p + sizeof(v);
  }
  /// Every field of the record, packed without padding.
  static std::uint8_t* pack(const host::Completion& c, std::uint8_t* p) {
    p = put(p, c.id);
    p = put(p, c.kind);
    p = put(p, c.queue);
    p = put(p, c.tenant);
    p = put(p, c.lpn);
    p = put(p, c.pages);
    p = put(p, c.submit_time_s);
    p = put(p, c.service_start_s);
    p = put(p, c.complete_time_s);
    p = put(p, c.stall_s);
    p = put(p, c.status);
    return put(p, c.error_pages);
  }

  std::uint64_t first_id_;
  std::vector<std::uint8_t> delivered_;
  std::uint64_t unknown_ = 0;
  double latency_s_ = 0.0;
  double stall_s_ = 0.0;
  ecc::Crc32 crc_;
};

/// FTL counters summed over an analytic sharded drive's shards; zero for
/// other engines.
struct FtlCounts {
  std::uint64_t host_writes = 0;
  std::uint64_t copies = 0;  ///< GC, refresh, reclaim and defect copies.
  std::uint64_t gc_erases = 0;
};

FtlCounts ftl_counts(host::Device& device) {
  FtlCounts sum;
  auto* sharded = dynamic_cast<host::ShardedDevice*>(&device);
  if (sharded == nullptr) return sum;
  for (std::uint32_t s = 0; s < sharded->shard_count(); ++s) {
    auto* shard =
        dynamic_cast<host::SsdServicer*>(&sharded->shard_servicer(s));
    if (shard == nullptr) return FtlCounts{};
    const ftl::FtlStats& f = shard->ssd().ftl().stats();
    sum.host_writes += f.host_writes;
    sum.copies += f.gc_writes + f.refresh_writes + f.reclaim_writes +
                  f.defect_writes;
    sum.gc_erases += f.gc_erases;
  }
  return sum;
}

host::ErrorStats error_stats(host::Device& device) {
  auto* sharded = dynamic_cast<host::ShardedDevice*>(&device);
  return sharded != nullptr ? sharded->error_stats() : host::ErrorStats{};
}

/// Base of the command-driven workloads: owns the drive, the completion
/// check and the end-of-repetition bookkeeping they share.
class DeviceWorkload : public Workload {
 protected:
  /// Starts the measured phase on a freshly built drive whose first
  /// `warm_commands` ids went to set-up traffic.
  void begin(std::uint64_t warm_commands, bool traced) {
    check_ = LogCheck(warm_commands);
    ftl_before_ = ftl_counts(*device_);
    traced_ = traced;
    if (traced_) probe_log_.clear();
  }

  void expect(std::size_t commands) { check_.expect(commands); }

  /// Folds drained completions into the check (and, traced, the probe
  /// log), then clears them.
  void absorb(std::vector<host::Completion>* log) {
    check_.add(*log);
    if (traced_ && probe_log_.size() < kProbeLogCap) {
      const std::size_t n =
          std::min(log->size(), kProbeLogCap - probe_log_.size());
      probe_log_.insert(probe_log_.end(), log->begin(),
                        log->begin() + static_cast<std::ptrdiff_t>(n));
    }
    log->clear();
  }

  /// Completes `rep` from the check and the drive's statistics, and
  /// verifies that the per-tenant slices sum to the global counts.
  void finish(double drive_days, double read_p50_us, double read_p99_us,
              double ceiling_us, Repetition* rep) {
    const host::CompletionStats& stats = device_->stats();
    rep->ops = check_.expected();
    if (check_.failed() > 0) {
      rep->failed += check_.failed();
      rep->problems.push_back(std::to_string(check_.failed()) +
                              " commands completed other than exactly once "
                              "or before their submission");
    }
    if (stats.commands() != check_.expected()) {
      rep->failed += 1;
      rep->problems.push_back("CompletionStats counted " +
                              std::to_string(stats.commands()) + " of " +
                              std::to_string(check_.expected()) +
                              " commands");
    }
    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < stats.tenants_seen(); ++t)
      total += stats.tenant_commands(t);
    bool tenants_sum = total == stats.commands();
    for (const host::CommandKind kind :
         {host::CommandKind::kRead, host::CommandKind::kWrite,
          host::CommandKind::kTrim, host::CommandKind::kFlush}) {
      std::uint64_t sum = 0;
      for (std::uint32_t t = 0; t < stats.tenants_seen(); ++t)
        sum += stats.tenant_commands(t, kind);
      tenants_sum = tenants_sum && sum == stats.commands(kind);
    }
    if (!tenants_sum) {
      rep->failed += 1;
      rep->problems.push_back(
          "per-tenant counts do not sum to the global counts");
    }
    rep->digest = check_.digest();

    SimSummary& sim = rep->sim;
    sim.drive_days = drive_days;
    sim.iops = stats.iops();
    sim.read_p50_us = read_p50_us;
    sim.read_p99_us = read_p99_us;
    sim.latency_ceiling_us = ceiling_us;
    sim.uber = stats.uber(kBitsPerPage);
    sim.stall_share = check_.stall_share();
    sim.errors = error_stats(*device_);  // Set-up never reads.
    const FtlCounts ftl = ftl_counts(*device_);
    const std::uint64_t host_writes = ftl.host_writes - ftl_before_.host_writes;
    const std::uint64_t copies = ftl.copies - ftl_before_.copies;
    sim.write_amp = host_writes == 0
                        ? 0.0
                        : static_cast<double>(host_writes + copies) /
                              static_cast<double>(host_writes);
    sim.gc_erases = ftl.gc_erases - ftl_before_.gc_erases;
  }

  /// finish() with the drive's own read-latency quantiles.
  void finish(double drive_days, Repetition* rep) {
    const host::CompletionStats& stats = device_->stats();
    finish(drive_days,
           stats.latency_quantile_s(host::CommandKind::kRead, 0.50) * 1e6,
           stats.latency_quantile_s(host::CommandKind::kRead, 0.99) * 1e6,
           kStatsCeilingUs, rep);
  }

  /// The metrics every command-driven workload reports from its log.
  void probe_log(Metrics* out) const {
    out->set("host.commands", "count",
             static_cast<double>(check_.expected()));
    out->set("host.stats_add_ns", "ns", stats_add_ns(probe_log_));
  }

  std::unique_ptr<host::Device> device_;

 private:
  LogCheck check_{0};
  FtlCounts ftl_before_;
  bool traced_ = false;
  std::vector<host::Completion> probe_log_;
};

void set_driver_metrics(const Tracer& tracer, const char* driver_call,
                        Metrics* out) {
  out->set_median("host.driver_s", "s", tracer.track_totals(driver_call));
  out->set_median("host.end_of_day_s", "s",
                  tracer.track_totals("Device::end_of_day"));
}

// --- mc_aged / mc_worn ------------------------------------------------------

/// A pre-aged sharded Monte Carlo drive under closed-loop fiu-web-vm
/// traffic. The wear level decides whether reads climb the recovery
/// ladder. A simulated day is a fixed number of commands: the closed loop
/// restamps every submit time, so only the count matters, and a fixed
/// count keeps the work from varying with the seed.
struct McShape {
  std::uint64_t pre_wear_pe;
  int queue_depth;
  int commands_per_day;
  int days;
  double footprint_fraction;
};

class McWorkload final : public DeviceWorkload {
 public:
  McWorkload(const McShape& shape, std::uint64_t seed)
      : shape_(shape), seed_(seed) {}

  Repetition run(const RunConfig& config) override {
    Repetition rep;
    Stopwatch sw(config.tracer);
    cfg::DriveSpec spec;
    spec.backend = cfg::Backend::kShardedMc;
    spec.shards = 4;
    spec.queue_count = 4;
    spec.blocks = 8;  // Per shard.
    spec.wordlines_per_block = 64;
    spec.bitlines = 8192;
    spec.pre_wear_pe = shape_.pre_wear_pe;
    device_.reset();
    sw.setup("host", "make_device", [&] {
      device_ = host::make_device(spec, drive_seed(seed_), config.workers);
    });
    begin(0, sw.tracing());

    workload::WorkloadProfile profile =
        workload::profile_by_name("fiu-web-vm");
    profile.footprint_fraction = shape_.footprint_fraction;
    workload::TraceGenerator gen(
        profile, device_->logical_pages(), traffic_seed(seed_),
        static_cast<std::uint16_t>(device_->queue_count()));
    host::ClosedLoopDriver driver(*device_, shape_.queue_depth);
    std::vector<host::Completion> log;
    driver.set_completion_sink(&log);
    for (int day = 0; day < shape_.days; ++day) {
      std::vector<host::Command> commands;
      sw.generate("TraceGenerator::next_command", [&] {
        for (int i = 0; i < shape_.commands_per_day; ++i)
          commands.push_back(gen.next_command());
      });
      expect(commands.size());
      sw.measure("host", "ClosedLoopDriver::run",
                 [&] { driver.run(commands); });
      sw.measure("host", "Device::end_of_day",
                 [&] { device_->end_of_day(); });
      absorb(&log);
    }
    rep.setup_s = sw.setup_s();
    rep.gen_s = sw.gen_s();
    rep.wall_s = sw.wall_s();
    finish(shape_.days, &rep);
    return rep;
  }

  void probe(const Tracer& tracer, Metrics* out) override {
    set_driver_metrics(tracer, "ClosedLoopDriver::run", out);
    probe_log(out);
    probe_chip(dynamic_cast<host::ShardedDevice&>(*device_).shard_chip(0),
               out);
  }

 private:
  McShape shape_;
  std::uint64_t seed_;
};

// --- tenants_qos ------------------------------------------------------------

/// Victim and aggressor tenants under weighted arbitration on a sharded
/// analytic drive, driven in burst windows with nightly maintenance.
class TenantsWorkload final : public DeviceWorkload {
 public:
  explicit TenantsWorkload(std::uint64_t seed) : seed_(seed) {}

  Repetition run(const RunConfig& config) override {
    Repetition rep;
    Stopwatch sw(config.tracer);
    cfg::DriveSpec spec;
    spec.backend = cfg::Backend::kShardedAnalytic;
    spec.shards = 4;
    spec.queue_count = 4;
    spec.blocks = 256;  // Per shard.
    spec.pages_per_block = 64;
    spec.overprovision = 0.2;
    spec.gc_free_target = 4;
    device_.reset();
    sw.setup("host", "make_device", [&] {
      device_ = host::make_device(spec, drive_seed(seed_), config.workers);
    });
    sw.setup("host", "warm_fill", [&] { host::warm_fill(*device_); });
    device_->set_arbitration(arbitration(host::ArbitrationPolicy::kWeighted));
    begin(device_->logical_pages(), sw.tracing());

    workload::MultiTenantGenerator gen(profiles(), device_->logical_pages(),
                                       traffic_seed(seed_));
    host::BurstWindowDriver driver(*device_, kWindow);
    std::vector<host::Completion> log;
    driver.set_completion_sink(&log);
    // Untraced, the driver gets a day in slices of whole windows (the
    // clock carries across run() calls, so the schedule is the same as
    // one call per day and the log is bounded). Traced, it gets one
    // window per call, so each window is a span.
    const std::size_t slice = sw.tracing() ? kWindow : kSlice;
    std::vector<host::Command> part;
    for (int day = 0; day < kDays; ++day) {
      std::vector<host::Command> commands;
      sw.generate("MultiTenantGenerator::day_commands",
                  [&] { commands = gen.day_commands(); });
      if (day == 0)
        drain_sample_.assign(commands.begin(),
                             commands.begin() +
                                 std::min<std::ptrdiff_t>(
                                     kDrainCommands,
                                     static_cast<std::ptrdiff_t>(
                                         commands.size())));
      expect(commands.size());
      for (std::size_t i = 0; i < commands.size(); i += slice) {
        part.assign(commands.begin() + static_cast<std::ptrdiff_t>(i),
                    commands.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(commands.size(),
                                                    i + slice)));
        sw.measure("host", "BurstWindowDriver::run",
                   [&] { driver.run(part); });
        if (log.size() >= kSlice) absorb(&log);
      }
      sw.measure("host", "Device::end_of_day",
                 [&] { device_->end_of_day(); });
      absorb(&log);
    }
    rep.setup_s = sw.setup_s();
    rep.gen_s = sw.gen_s();
    rep.wall_s = sw.wall_s();
    finish(kDays, &rep);
    return rep;
  }

  void probe(const Tracer& tracer, Metrics* out) override {
    set_driver_metrics(tracer, "BurstWindowDriver::run", out);
    std::vector<double> windows_us =
        tracer.durations("BurstWindowDriver::run");
    for (double& w : windows_us) w *= 1e6;
    out->set("host.window_us_p50", "us", quantile(windows_us, 0.50));
    out->set("host.window_us_p99", "us", quantile(windows_us, 0.99));
    out->set("host.window_samples", "count",
             static_cast<double>(windows_us.size()));
    probe_log(out);
    for (const host::ArbitrationPolicy policy :
         {host::ArbitrationPolicy::kFifo, host::ArbitrationPolicy::kRoundRobin,
          host::ArbitrationPolicy::kWeighted,
          host::ArbitrationPolicy::kDeadline}) {
      out->set(std::string("host.arb_drain_us.") +
                   host::arbitration_policy_name(policy),
               "us", arb_drain_us(*device_, arbitration(policy),
                                  drain_sample_));
    }
  }

 private:
  static constexpr int kDays = 3;
  static constexpr int kWindow = 16;
  static constexpr std::size_t kSlice = 65536;  // A multiple of kWindow.
  static constexpr std::ptrdiff_t kDrainCommands = 256;

  /// fig_qos_tenants' pair at 45 times its smallest volume: a
  /// latency-sensitive web-VM victim and a read-hot bulk aggressor.
  static std::vector<workload::WorkloadProfile> profiles() {
    workload::WorkloadProfile victim =
        workload::profile_by_name("fiu-web-vm");
    victim.daily_page_ios = 45 * 6000.0;
    victim.mean_request_pages = 2.0;
    workload::WorkloadProfile aggressor =
        workload::profile_by_name("umass-web");
    aggressor.daily_page_ios = 45 * 24000.0;
    aggressor.mean_request_pages = 8.0;
    return {victim, aggressor};
  }

  static host::ArbitrationConfig arbitration(host::ArbitrationPolicy policy) {
    host::ArbitrationConfig arb;
    arb.policy = policy;
    arb.tenants = {{/*weight=*/8.0, /*deadline_us=*/500.0},
                   {/*weight=*/1.0, /*deadline_us=*/10000.0}};
    return arb;
  }

  std::uint64_t seed_;
  std::vector<host::Command> drain_sample_;
};

// --- trace_replay -----------------------------------------------------------

/// A umass-web trace written from the seed as rdsim-CSV files, replayed
/// open-loop with hash remap onto a serial analytic drive. The trace is
/// split into segments, each rebased to t = 0 and replayed by its own
/// replay_trace call (which starts it at the drive's clock), so the
/// completion log each call returns stays bounded.
class TraceReplayWorkload final : public DeviceWorkload {
 public:
  TraceReplayWorkload(std::uint64_t seed, const std::string& scratch_dir)
      : seed_(seed), scratch_dir_(scratch_dir) {}

  Repetition run(const RunConfig& config) override {
    Repetition rep;
    Stopwatch sw(config.tracer);
    if (paths_.empty()) write_trace();
    cfg::DriveSpec spec;
    spec.backend = cfg::Backend::kAnalytic;
    spec.blocks = 1024;
    spec.pages_per_block = 64;
    spec.queue_count = 4;
    device_.reset();
    sw.setup("host", "make_device", [&] {
      device_ = host::make_device(spec, drive_seed(seed_), config.workers);
    });
    sw.setup("host", "warm_fill", [&] { host::warm_fill(*device_); });
    begin(device_->logical_pages(), sw.tracing());

    replay::ReplayOptions options;
    options.format = replay::TraceFormat::kCsv;
    options.remap = replay::RemapPolicy::kHash;
    options.mode = replay::ReplayMode::kOpen;
    options.speedup = 10.0;
    replay::LatencyTracker tracker(/*window_s=*/3600.0);
    std::vector<host::Completion> log;
    const double start_s = device_->now_s();
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      std::ifstream in(paths_[i], std::ios::binary);
      expect(segment_records_[i]);
      sw.measure("replay", "replay_trace", [&] {
        replay::replay_trace(in, *device_, options, &tracker, &log);
      });
      if (!in.eof()) {
        rep.failed += segment_records_[i];
        rep.problems.push_back("could not read " + paths_[i]);
      }
      absorb(&log);
    }
    rep.setup_s = sw.setup_s();
    rep.gen_s = gen_s_;
    rep.wall_s = sw.wall_s();
    finish((device_->now_s() - start_s) / 86400.0,
           tracker.read_quantile_us(0.50), tracker.read_quantile_us(0.99),
           kTrackerCeilingUs, &rep);
    return rep;
  }

  void probe(const Tracer&, Metrics* out) override {
    probe_log(out);
    out->set("replay.parse_ns_per_cmd", "ns", parse_ns_per_record(paths_));
  }

 private:
  static constexpr std::uint64_t kRecords = 1200000;
  static constexpr std::uint64_t kSegmentRecords = 250000;

  void write_trace() {
    const auto start = Clock::now();
    std::filesystem::create_directories(scratch_dir_);
    // Trace LBAs address a larger device than the simulated one, as real
    // traces do; the hash remap folds them onto it.
    workload::TraceGenerator gen(workload::profile_by_name("umass-web"),
                                 /*logical_pages=*/1ULL << 24,
                                 traffic_seed(seed_));
    std::vector<workload::IoRequest> segment;
    for (std::uint64_t written = 0; written < kRecords;
         written += segment.size()) {
      segment.clear();
      const std::uint64_t n = std::min(kSegmentRecords, kRecords - written);
      for (std::uint64_t i = 0; i < n; ++i) segment.push_back(gen.next());
      const double t0 = segment.front().time_s;
      for (workload::IoRequest& r : segment) r.time_s -= t0;
      paths_.push_back(scratch_dir_ + "/trace_replay." +
                       std::to_string(paths_.size()) + ".csv");
      std::ofstream out(paths_.back(), std::ios::binary | std::ios::trunc);
      workload::write_trace_csv(out, segment);
      segment_records_.push_back(segment.size());
    }
    gen_s_ = seconds_since(start);
  }

  std::uint64_t seed_;
  std::string scratch_dir_;
  std::vector<std::string> paths_;
  std::vector<std::size_t> segment_records_;
  double gen_s_ = 0.0;
};

// --- fleet ------------------------------------------------------------------

/// fig_fleet's fleet over a shorter horizon, checkpointed to a file after
/// every epoch.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, const std::string& scratch_dir)
      : seed_(seed),
        path_(scratch_dir + "/fleet.ckpt"),
        resume_path_(scratch_dir + "/fleet-resume.ckpt") {
    spec_.name = "rdbench_fleet";
    spec_.drive.backend = cfg::Backend::kAnalytic;
    spec_.drive.blocks = 64;
    spec_.drive.pages_per_block = 16;
    spec_.drive.overprovision = 0.25;
    spec_.drive.gc_free_target = 4;
    spec_.drive.spare_blocks = 2;
    spec_.drive.queue_count = 1;
    spec_.workload.profile = workload::profile_by_name("fiu-web-vm");
    spec_.workload.profile.daily_page_ios = 20000.0;
    spec_.workload.profile.read_fraction = 0.3;
    spec_.fleet.drives = kDrives;
    spec_.fleet.years = kHorizonDays / 365.0;
    spec_.fleet.report_interval_days = kHorizonDays / 6;
    spec_.fleet.teardown_every = 4;
    spec_.fleet.pe_fail_prob_median = 2e-4;
    spec_.fleet.fault_rate_sigma = 0.8;
    spec_.fleet.replace_failed = true;
    spec_.fleet.rebuild_days = 1.0;
    std::filesystem::create_directories(scratch_dir);
  }

  Repetition run(const RunConfig& config) override {
    Repetition rep;
    Stopwatch sw(config.tracer);
    runner_.reset();
    pool_.reset();
    sw.setup("common", "ThreadPool", [&] {
      pool_ = std::make_unique<ThreadPool>(config.workers);
    });
    sw.setup("fleet", "FleetRunner", [&] {
      runner_ =
          std::make_unique<fleet::FleetRunner>(spec_, drive_seed(seed_),
                                               *pool_);
    });
    while (!runner_->done()) {
      std::vector<std::uint8_t> bytes;
      bool written = false;
      std::string error;
      sw.measure("fleet", "FleetRunner::run_epoch",
                 [&] { runner_->run_epoch(); });
      sw.measure("fleet", "FleetRunner::checkpoint",
                 [&] { bytes = runner_->checkpoint(); });
      sw.measure("fleet", "write_checkpoint_file", [&] {
        written = fleet::write_checkpoint_file(path_, bytes, &error);
      });
      rep.ops += kDrives;
      if (!written || !checkpoint_valid(bytes, &error)) {
        rep.failed += kDrives;
        rep.problems.push_back("epoch " + std::to_string(runner_->epoch()) +
                               " checkpoint: " + error);
      }
      checkpoint_bytes_ = bytes.size();
    }
    rep.setup_s = sw.setup_s();
    rep.wall_s = sw.wall_s();
    rep.digest = table_digest(*runner_);
    rep.sim.drive_days = static_cast<double>(kDrives) * kHorizonDays;
    return rep;
  }

  /// Runs half the horizon, checkpoints to a file, resumes a new runner
  /// from it and finishes: the table must equal the uninterrupted one.
  Outcome extra_checks(std::uint32_t reference_digest,
                       std::vector<std::string>* problems) override {
    ThreadPool pool(RunConfig{}.workers);
    fleet::FleetRunner first(spec_, drive_seed(seed_), pool);
    while (first.epoch() < first.total_epochs() / 2) first.run_epoch();
    const Outcome resumed_epochs{
        (first.total_epochs() - first.epoch()) * kDrives, 0};
    Outcome failed = resumed_epochs;
    failed.failed = failed.attempted;
    std::string error;
    std::unique_ptr<fleet::FleetRunner> resumed;
    if (fleet::write_checkpoint_file(resume_path_, first.checkpoint(),
                                     &error))
      resumed = fleet::FleetRunner::from_checkpoint_file(resume_path_, pool,
                                                         &error);
    if (resumed == nullptr) {
      problems->push_back("fleet resume: " + error);
      return failed;
    }
    while (!resumed->done()) resumed->run_epoch();
    if (table_digest(*resumed) != reference_digest) {
      problems->push_back("fleet resumed mid-run produced a different table");
      return failed;
    }
    return resumed_epochs;
  }

  void probe(const Tracer& tracer, Metrics* out) override {
    const std::vector<double> epochs =
        tracer.durations("FleetRunner::run_epoch");
    out->set("fleet.epoch_s_p50", "s", median(epochs));
    out->set("fleet.epoch_s_max", "s",
             epochs.empty() ? 0.0
                            : *std::max_element(epochs.begin(), epochs.end()));
    std::vector<double> ms = tracer.durations("FleetRunner::checkpoint");
    for (double& v : ms) v *= 1e3;
    out->set_median("fleet.checkpoint_ms", "ms", ms);
    ms = tracer.durations("write_checkpoint_file");
    for (double& v : ms) v *= 1e3;
    out->set_median("fleet.write_ms", "ms", ms);
    std::vector<double> restore_ms;
    for (int i = 0; i < 5; ++i) {
      std::string error;
      const auto start = Clock::now();
      const auto restored =
          fleet::FleetRunner::from_checkpoint_file(path_, *pool_, &error);
      restore_ms.push_back(seconds_since(start) * 1e3);
      if (restored == nullptr) restore_ms.back() = 0.0;
    }
    out->set_median("fleet.restore_ms", "ms", restore_ms);
    out->set("fleet.checkpoint_mb", "MB",
             static_cast<double>(checkpoint_bytes_) / (1024.0 * 1024.0));
  }

 private:
  static constexpr std::uint32_t kDrives = 48;
  static constexpr std::uint32_t kHorizonDays = 90;

  bool checkpoint_valid(const std::vector<std::uint8_t>& bytes,
                        std::string* error) const {
    std::vector<std::uint8_t> read;
    std::uint32_t digest = 0;
    std::vector<fleet::CheckpointSection> sections;
    if (!fleet::read_checkpoint_file(path_, &read, error)) return false;
    if (read != bytes) {
      *error = "file differs from the bytes written";
      return false;
    }
    return fleet::unpack_checkpoint(read, &digest, &sections, error);
  }

  static std::uint32_t table_digest(const fleet::FleetRunner& runner) {
    const std::string text = runner.table().to_csv();
    return ecc::crc32(std::span(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }

  std::uint64_t seed_;
  std::string path_;
  std::string resume_path_;
  cfg::ScenarioSpec spec_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<fleet::FleetRunner> runner_;
  std::size_t checkpoint_bytes_ = 0;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> kNames = {
      "mc_aged", "mc_worn", "tenants_qos", "trace_replay", "fleet"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  // mc_aged spreads its footprint over half the drive (fiu-web-vm's own
  // is a quarter): over a quarter the hot set sits in two blocks per
  // shard, and the cost of re-materializing them after turnover swings
  // about 15 % with where the seed puts it.
  if (name == "mc_aged")
    return std::make_unique<McWorkload>(
        McShape{/*pre_wear_pe=*/8000, /*queue_depth=*/16,
                /*commands_per_day=*/2000, /*days=*/2,
                /*footprint_fraction=*/0.5},
        seed);
  if (name == "mc_worn")
    return std::make_unique<McWorkload>(
        McShape{/*pre_wear_pe=*/25000, /*queue_depth=*/4,
                /*commands_per_day=*/500, /*days=*/2,
                /*footprint_fraction=*/0.25},
        seed);
  if (name == "tenants_qos") return std::make_unique<TenantsWorkload>(seed);
  if (name == "trace_replay")
    return std::make_unique<TraceReplayWorkload>(seed, scratch_dir);
  if (name == "fleet")
    return std::make_unique<FleetWorkload>(seed, scratch_dir);
  return nullptr;
}

}  // namespace rdbench
