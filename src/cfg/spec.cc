#include "cfg/spec.h"

#include <limits>
#include <sstream>
#include <string_view>

#include "common/text.h"

namespace rdsim::cfg {

namespace {

struct BackendName {
  const char* name;
  Backend backend;
};

constexpr BackendName kBackends[] = {
    {"analytic", Backend::kAnalytic},
    {"mc_chip", Backend::kMcChip},
    {"sharded_mc", Backend::kShardedMc},
    {"sharded_analytic", Backend::kShardedAnalytic},
};

/// Consumes a u64 key and enforces a closed range, diagnosing violations
/// against the key (range problems are value problems, so they point at
/// the same key the typo would).
std::uint64_t get_u64_in(Config& config, const std::string& key,
                         std::uint64_t fallback, std::uint64_t lo,
                         std::uint64_t hi, std::vector<Diagnostic>* diags) {
  const std::uint64_t v = config.get_u64(key, fallback, diags);
  if (v < lo || v > hi) {
    std::ostringstream msg;
    msg << "value " << v << " out of range [" << lo << ", " << hi << "]";
    diags->push_back({0, key, msg.str()});
    return fallback;
  }
  return v;
}

double get_double_in(Config& config, const std::string& key, double fallback,
                     double lo, double hi, std::vector<Diagnostic>* diags) {
  const double v = config.get_double(key, fallback, diags);
  if (!(v >= lo && v <= hi)) {
    std::ostringstream msg;
    msg << "value " << v << " out of range [" << lo << ", " << hi << "]";
    diags->push_back({0, key, msg.str()});
    return fallback;
  }
  return v;
}

void parse_drive(Config& config, DriveSpec* drive,
                 std::vector<Diagnostic>* diags) {
  if (!config.has("drive.backend")) {
    diags->push_back({0, "drive.backend",
                      "missing required key (analytic, mc_chip, sharded_mc, "
                      "or sharded_analytic)"});
  } else {
    const std::string name = config.get_string("drive.backend", "", diags);
    if (!backend_from_name(name, &drive->backend))
      diags->push_back({0, "drive.backend",
                        "unknown backend '" + name +
                            "' (expected analytic, mc_chip, sharded_mc, or "
                            "sharded_analytic)"});
  }

  const std::string model =
      config.get_string("drive.flash_model", "2ynm", diags);
  if (model == "2ynm") {
    drive->flash_model = FlashModel::k2ynm;
  } else if (model == "3d") {
    drive->flash_model = FlashModel::kEarly3d;
  } else {
    diags->push_back({0, "drive.flash_model",
                      "unknown flash model '" + model +
                          "' (expected 2ynm or 3d)"});
  }

  drive->shards = static_cast<std::uint32_t>(
      get_u64_in(config, "drive.shards", drive->shards, 1, 1024, diags));
  drive->queue_count = static_cast<std::uint32_t>(get_u64_in(
      config, "drive.queue_count", drive->queue_count, 1, 65535, diags));
  drive->blocks = static_cast<std::uint32_t>(
      get_u64_in(config, "drive.blocks", drive->blocks, 1, 1u << 24, diags));

  drive->pages_per_block = static_cast<std::uint32_t>(
      get_u64_in(config, "drive.pages_per_block", drive->pages_per_block, 2,
                 1u << 16, diags));
  drive->overprovision = get_double_in(
      config, "drive.overprovision", drive->overprovision, 0.0, 0.9, diags);
  drive->gc_free_target = static_cast<std::uint32_t>(get_u64_in(
      config, "drive.gc_free_target", drive->gc_free_target, 1, 1u << 16,
      diags));
  drive->refresh_interval_days =
      get_double_in(config, "drive.refresh_interval_days",
                    drive->refresh_interval_days, 0.25, 3650.0, diags);
  drive->read_reclaim_threshold =
      config.get_u64("drive.read_reclaim_threshold",
                     drive->read_reclaim_threshold, diags);
  drive->vpass_tuning =
      config.get_bool("drive.vpass_tuning", drive->vpass_tuning, diags);
  drive->spare_blocks = static_cast<std::uint32_t>(
      get_u64_in(config, "drive.spare_blocks", drive->spare_blocks, 0,
                 1u << 16, diags));

  drive->wordlines_per_block = static_cast<std::uint32_t>(
      get_u64_in(config, "drive.wordlines_per_block",
                 drive->wordlines_per_block, 1, 1u << 16, diags));
  drive->bitlines = static_cast<std::uint32_t>(get_u64_in(
      config, "drive.bitlines", drive->bitlines, 1, 1u << 20, diags));
  drive->pre_wear_pe =
      config.get_u64("drive.pre_wear_pe", drive->pre_wear_pe, diags);
  // A Monte Carlo read that fails ECC ends in RDR, which induces its
  // disturbs by reading a sibling wordline: a one-wordline block has none.
  if (!drive->is_analytic() && drive->wordlines_per_block < 2)
    diags->push_back({0, "drive.wordlines_per_block",
                      "a Monte Carlo backend (mc_chip or sharded_mc) needs "
                      "at least 2 wordlines per block (read-disturb "
                      "recovery disturbs a sibling wordline)"});

  // Cross-field feasibility: GC can only ever reach gc_free_target free
  // blocks if the overprovisioned slack exceeds it (with one block of
  // headroom for the open block). A spec that violates this livelocks
  // the FTL's garbage collector, so reject it here.
  if (drive->is_analytic() &&
      static_cast<double>(drive->blocks) * drive->overprovision <
          static_cast<double>(drive->gc_free_target) + 2.0) {
    std::ostringstream msg;
    msg << "infeasible FTL: overprovisioned slack ("
        << static_cast<double>(drive->blocks) * drive->overprovision
        << " blocks) cannot sustain gc_free_target + 2 = "
        << drive->gc_free_target + 2
        << " free blocks; raise drive.overprovision or drive.blocks, or "
           "lower drive.gc_free_target";
    diags->push_back({0, "drive.gc_free_target", msg.str()});
  }
}

void parse_faults(Config& config, DriveSpec* drive,
                  std::vector<Diagnostic>* diags) {
  FaultSpec& f = drive->faults;
  f.program_fail_prob = get_double_in(config, "faults.program_fail_prob",
                                      f.program_fail_prob, 0.0, 1.0, diags);
  f.erase_fail_prob = get_double_in(config, "faults.erase_fail_prob",
                                    f.erase_fail_prob, 0.0, 1.0, diags);
  f.latent_page_prob = get_double_in(config, "faults.latent_page_prob",
                                     f.latent_page_prob, 0.0, 1.0, diags);
  const bool has_kill_day = config.has("faults.die_kill_day");
  if (has_kill_day) {
    f.die_kill_day = get_double_in(config, "faults.die_kill_day",
                                   f.die_kill_day, 0.0, 36500.0, diags);
  }
  if (config.has("faults.die_kill_shard")) {
    f.die_kill_shard = static_cast<std::uint32_t>(
        get_u64_in(config, "faults.die_kill_shard", f.die_kill_shard, 0,
                   drive->shards > 0 ? drive->shards - 1 : 0, diags));
    if (!has_kill_day)
      diags->push_back({0, "faults.die_kill_shard",
                        "faults.die_kill_shard requires faults.die_kill_day"});
  }

  // Cross-backend validation: each fault targets the layer that models
  // it. P/E failures live in the FTL (analytic backends); latent pages
  // and die kills live in the Monte Carlo chips.
  if (!drive->is_analytic() &&
      (f.program_fail_prob > 0.0 || f.erase_fail_prob > 0.0)) {
    diags->push_back(
        {0,
         f.program_fail_prob > 0.0 ? "faults.program_fail_prob"
                                   : "faults.erase_fail_prob",
         "P/E failure injection needs an FTL: use an analytic backend "
         "(analytic or sharded_analytic)"});
  }
  if (drive->is_analytic() && f.latent_page_prob > 0.0) {
    diags->push_back({0, "faults.latent_page_prob",
                      "latent-page injection senses real cells: use a Monte "
                      "Carlo backend (mc_chip or sharded_mc)"});
  }
  if (drive->is_analytic() && f.die_kill_day >= 0.0) {
    diags->push_back({0, "faults.die_kill_day",
                      "die-kill injection targets a Monte Carlo chip: use "
                      "mc_chip or sharded_mc"});
  }
}

void parse_trace(Config& config, TraceSpec* trace,
                 std::vector<Diagnostic>* diags) {
  // Any [trace] key without trace.path is a broken section: the replayer
  // has nothing to read, so the stray knobs would silently do nothing.
  const bool any_key =
      config.has("trace.path") || config.has("trace.format") ||
      config.has("trace.remap") || config.has("trace.mode") ||
      config.has("trace.queue_depth") || config.has("trace.speedup") ||
      config.has("trace.page_bytes");
  if (!any_key) return;
  trace->path = config.get_string("trace.path", trace->path, diags);
  if (trace->path.empty())
    diags->push_back({0, "trace.path",
                      "missing required key (the trace file to replay; other "
                      "trace.* keys have no effect without it)"});

  const std::string format =
      config.get_string("trace.format", std::string(name(trace->format)),
                        diags);
  if (!replay::trace_format_from_name(format, &trace->format))
    diags->push_back({0, "trace.format",
                      "unknown trace format '" + format +
                          "' (expected auto, msr, or csv)"});

  const std::string remap =
      config.get_string("trace.remap", std::string(name(trace->remap)), diags);
  if (!replay::remap_policy_from_name(remap, &trace->remap))
    diags->push_back({0, "trace.remap",
                      "unknown remap policy '" + remap +
                          "' (expected modulo or hash)"});

  const std::string mode =
      config.get_string("trace.mode", std::string(name(trace->mode)), diags);
  if (!replay::replay_mode_from_name(mode, &trace->mode))
    diags->push_back({0, "trace.mode",
                      "unknown replay mode '" + mode +
                          "' (expected open or closed)"});

  trace->queue_depth = static_cast<std::uint32_t>(get_u64_in(
      config, "trace.queue_depth", trace->queue_depth, 1, 65536, diags));
  trace->speedup = get_double_in(config, "trace.speedup", trace->speedup,
                                 1e-6, 1e9, diags);
  trace->page_bytes = static_cast<std::uint32_t>(get_u64_in(
      config, "trace.page_bytes", trace->page_bytes, 512, 1u << 20, diags));
}

void parse_fleet(Config& config, ScenarioSpec* spec,
                 std::vector<Diagnostic>* diags) {
  FleetSpec& f = spec->fleet;
  // Any [fleet] key without fleet.drives is a broken section: there is
  // no fleet to run, so the stray knobs would silently do nothing.
  const bool any_key =
      config.has("fleet.drives") || config.has("fleet.years") ||
      config.has("fleet.report_interval_days") ||
      config.has("fleet.checkpoint_every") ||
      config.has("fleet.teardown_every") ||
      config.has("fleet.pe_fail_prob_median") ||
      config.has("fleet.fault_rate_sigma") ||
      config.has("fleet.replace_failed") || config.has("fleet.rebuild_days");
  if (!any_key) return;
  if (!config.has("fleet.drives")) {
    diags->push_back({0, "fleet.drives",
                      "missing required key (the fleet size; other fleet.* "
                      "keys have no effect without it)"});
    return;
  }
  f.drives = static_cast<std::uint32_t>(
      get_u64_in(config, "fleet.drives", 64, 1, 1u << 20, diags));
  f.years = get_double_in(config, "fleet.years", f.years, 0.01, 100.0, diags);
  f.report_interval_days = static_cast<std::uint32_t>(
      get_u64_in(config, "fleet.report_interval_days", f.report_interval_days,
                 1, 3650, diags));
  f.checkpoint_every = static_cast<std::uint32_t>(get_u64_in(
      config, "fleet.checkpoint_every", f.checkpoint_every, 0, 100000, diags));
  f.teardown_every = static_cast<std::uint32_t>(get_u64_in(
      config, "fleet.teardown_every", f.teardown_every, 0, 1u << 20, diags));
  f.pe_fail_prob_median =
      get_double_in(config, "fleet.pe_fail_prob_median", f.pe_fail_prob_median,
                    0.0, 1.0, diags);
  f.fault_rate_sigma = get_double_in(config, "fleet.fault_rate_sigma",
                                     f.fault_rate_sigma, 0.0, 8.0, diags);
  f.replace_failed =
      config.get_bool("fleet.replace_failed", f.replace_failed, diags);
  f.rebuild_days = get_double_in(config, "fleet.rebuild_days", f.rebuild_days,
                                 0.0, 365.0, diags);

  // Cross-section validation: the fleet runner drives serial analytic
  // drives directly (checkpointable state lives in Ftl/Ssd snapshots),
  // and generates its traffic synthetically per drive.
  if (spec->drive.backend != Backend::kAnalytic) {
    diags->push_back({0, "fleet.drives",
                      "fleet runs require drive.backend = analytic (the "
                      "per-drive state machine checkpoints ssd::Ssd)"});
  }
  if (spec->trace.enabled()) {
    diags->push_back({0, "fleet.drives",
                      "fleet runs generate per-drive synthetic traffic and "
                      "cannot replay a [trace] section; remove one"});
  }
  if (f.fault_rate_sigma > 0.0 && f.pe_fail_prob_median <= 0.0) {
    diags->push_back({0, "fleet.fault_rate_sigma",
                      "fleet.fault_rate_sigma requires a positive "
                      "fleet.pe_fail_prob_median to spread"});
  }
}

/// Consumes `key` as a comma-separated list of exactly `expect` doubles,
/// each within [lo, hi]; diagnoses (against the key) and returns false on
/// any violation. `out` holds the parsed values on success.
bool get_double_list(Config& config, const std::string& key,
                     std::size_t expect, double lo, double hi,
                     std::vector<double>* out,
                     std::vector<Diagnostic>* diags) {
  const std::string value = config.get_string(key, "", diags);
  std::vector<std::string_view> tokens(expect);
  const std::size_t n = text::split_fields(value, tokens.data(), expect);
  if (n != expect) {
    std::ostringstream msg;
    msg << "expected " << expect << " comma-separated values (one per "
        << "tenant), got " << n;
    diags->push_back({0, key, msg.str()});
    return false;
  }
  out->clear();
  for (const std::string_view token : tokens) {
    double v = 0.0;
    if (!text::parse_f64(token, &v)) {
      diags->push_back(
          {0, key, "malformed number '" + std::string(token) + "'"});
      return false;
    }
    if (!(v >= lo && v <= hi)) {
      std::ostringstream msg;
      msg << "value " << v << " out of range [" << lo << ", " << hi << "]";
      diags->push_back({0, key, msg.str()});
      return false;
    }
    out->push_back(v);
  }
  return true;
}

void parse_tenants(Config& config, ScenarioSpec* spec,
                   std::vector<Diagnostic>* diags) {
  TenantsSpec& t = spec->tenants;
  // Any [tenants] key without tenants.count is a broken section: there is
  // no tenant table to fill, so the stray knobs would silently do nothing.
  const bool any_key =
      config.has("tenants.count") || config.has("tenants.policy") ||
      config.has("tenants.weights") || config.has("tenants.deadlines_us") ||
      config.has("tenants.profiles") ||
      config.has("tenants.daily_page_ios");
  if (!any_key) return;
  if (!config.has("tenants.count")) {
    diags->push_back({0, "tenants.count",
                      "missing required key (how many tenants share the "
                      "drive; other tenants.* keys have no effect without "
                      "it)"});
    return;
  }
  const auto count = static_cast<std::uint32_t>(
      get_u64_in(config, "tenants.count", 1, 1, 4096, diags));
  if (count > spec->drive.queue_count) {
    std::ostringstream msg;
    msg << "tenant count " << count << " exceeds drive.queue_count "
        << spec->drive.queue_count
        << " (each tenant submits on its own queue); raise "
           "drive.queue_count or lower tenants.count";
    diags->push_back({0, "tenants.count", msg.str()});
  }

  const std::string policy = config.get_string(
      "tenants.policy", host::arbitration_policy_name(t.policy), diags);
  if (!host::arbitration_policy_from_name(policy, &t.policy))
    diags->push_back({0, "tenants.policy",
                      "unknown arbitration policy '" + policy +
                          "' (expected fifo, round_robin, weighted, or "
                          "deadline)"});

  // Every tenant starts from the scenario's resolved [workload] profile;
  // the per-tenant lists below override it slot by slot.
  t.tenants.assign(count, TenantSpec{});
  for (TenantSpec& tenant : t.tenants)
    tenant.profile = spec->workload.profile;

  if (config.has("tenants.weights")) {
    std::vector<double> weights;
    // Weights are relative shares; zero (or negative) would starve the
    // tenant outright, which is a config error, not a policy.
    if (get_double_list(config, "tenants.weights", count,
                        std::numeric_limits<double>::min(), 1e9, &weights,
                        diags)) {
      for (std::uint32_t i = 0; i < count; ++i)
        t.tenants[i].weight = weights[i];
    }
  }

  if (config.has("tenants.deadlines_us")) {
    std::vector<double> deadlines;
    if (get_double_list(config, "tenants.deadlines_us", count, 1e-3, 1e12,
                        &deadlines, diags)) {
      for (std::uint32_t i = 0; i < count; ++i)
        t.tenants[i].deadline_us = deadlines[i];
    }
  } else if (t.policy == host::ArbitrationPolicy::kDeadline) {
    diags->push_back({0, "tenants.deadlines_us",
                      "missing required key: the deadline policy orders by "
                      "submit + deadline, so every tenant needs one "
                      "(comma-separated microseconds)"});
  }

  if (config.has("tenants.profiles")) {
    const std::string value =
        config.get_string("tenants.profiles", "", diags);
    std::vector<std::string_view> names(count);
    const std::size_t n = text::split_fields(value, names.data(), count);
    if (n != count) {
      std::ostringstream msg;
      msg << "expected " << count << " comma-separated profile names (one "
          << "per tenant), got " << n;
      diags->push_back({0, "tenants.profiles", msg.str()});
    } else {
      for (std::uint32_t i = 0; i < count; ++i) {
        bool found = false;
        for (const auto& s : workload::standard_suite()) {
          if (s.name == names[i]) {
            // A named per-tenant profile replaces the base wholesale
            // (including any [workload] overrides), exactly as
            // workload.profile replaces the built-in default.
            t.tenants[i].profile = s;
            found = true;
            break;
          }
        }
        if (!found)
          diags->push_back({0, "tenants.profiles",
                            "unknown workload profile '" +
                                std::string(names[i]) + "'"});
      }
    }
  }

  if (config.has("tenants.daily_page_ios")) {
    std::vector<double> ios;
    if (get_double_list(config, "tenants.daily_page_ios", count, 1.0, 1e12,
                        &ios, diags)) {
      for (std::uint32_t i = 0; i < count; ++i)
        t.tenants[i].profile.daily_page_ios = ios[i];
    }
  }

  // Cross-section validation: tenants shape the scenario's synthetic
  // generator and the queued device; the trace replayer and the fleet
  // runner each own their traffic wholesale.
  if (spec->trace.enabled()) {
    diags->push_back({0, "tenants.count",
                      "a [tenants] scenario generates per-tenant synthetic "
                      "traffic and cannot replay a [trace] section; remove "
                      "one"});
  }
  if (spec->fleet.enabled()) {
    diags->push_back({0, "tenants.count",
                      "fleet runs drive whole fleets of single-tenant "
                      "drives and cannot take a [tenants] section; remove "
                      "one"});
  }
}

void parse_workload(Config& config, WorkloadSpec* workload, bool required,
                    std::vector<Diagnostic>* diags) {
  workload::WorkloadProfile& p = workload->profile;
  if (!config.has("workload.profile")) {
    // With a [trace] section the workload generator is bypassed, so the
    // profile becomes optional (overrides below still parse, harmlessly).
    if (required) {
      std::string names;
      for (const auto& s : workload::standard_suite())
        names += (names.empty() ? "" : ", ") + s.name;
      diags->push_back({0, "workload.profile",
                        "missing required key (one of: " + names + ")"});
    }
  } else {
    const std::string name = config.get_string("workload.profile", "", diags);
    bool found = false;
    for (const auto& s : workload::standard_suite()) {
      if (s.name == name) {
        p = s;
        found = true;
        break;
      }
    }
    if (!found)
      diags->push_back(
          {0, "workload.profile", "unknown workload profile '" + name + "'"});
  }

  // Overrides on top of the named profile; absent keys keep its values.
  p.daily_page_ios = get_double_in(config, "workload.daily_page_ios",
                                   p.daily_page_ios, 1.0, 1e12, diags);
  p.read_fraction = get_double_in(config, "workload.read_fraction",
                                  p.read_fraction, 0.0, 1.0, diags);
  p.footprint_fraction =
      get_double_in(config, "workload.footprint_fraction",
                    p.footprint_fraction, 1e-6, 1.0, diags);
  p.mean_request_pages = get_double_in(config, "workload.mean_request_pages",
                                       p.mean_request_pages, 1.0, 4096.0,
                                       diags);
  p.trim_fraction = get_double_in(config, "workload.trim_fraction",
                                  p.trim_fraction, 0.0, 1.0, diags);
  p.flush_period_s = get_double_in(config, "workload.flush_period_s",
                                   p.flush_period_s, 0.0, 86400.0, diags);
}

}  // namespace

const char* backend_name(Backend backend) {
  for (const BackendName& b : kBackends)
    if (b.backend == backend) return b.name;
  return "?";
}

bool backend_from_name(const std::string& name, Backend* out) {
  for (const BackendName& b : kBackends) {
    if (name == b.name) {
      *out = b.backend;
      return true;
    }
  }
  return false;
}

ScenarioSpec parse_scenario(Config& config, std::vector<Diagnostic>* diags) {
  ScenarioSpec spec;
  spec.name = config.get_string("scenario.name", spec.name, diags);
  spec.days = static_cast<int>(
      get_u64_in(config, "scenario.days", static_cast<std::uint64_t>(spec.days),
                 1, 36500, diags));
  spec.queue_depth = static_cast<std::uint32_t>(get_u64_in(
      config, "scenario.queue_depth", spec.queue_depth, 1, 65536, diags));
  spec.warm_fill =
      config.get_bool("scenario.warm_fill", spec.warm_fill, diags);
  parse_drive(config, &spec.drive, diags);
  parse_faults(config, &spec.drive, diags);
  parse_trace(config, &spec.trace, diags);
  parse_fleet(config, &spec, diags);
  parse_workload(config, &spec.workload, !spec.trace.enabled(), diags);
  parse_tenants(config, &spec, diags);
  config.report_unknown(diags);
  return spec;
}

host::ArbitrationConfig TenantsSpec::arbitration() const {
  host::ArbitrationConfig arb;
  arb.policy = policy;
  arb.tenants.reserve(tenants.size());
  for (const TenantSpec& tenant : tenants)
    arb.tenants.push_back({tenant.weight, tenant.deadline_us});
  return arb;
}

}  // namespace rdsim::cfg
