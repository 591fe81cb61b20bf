#include "fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/serialize.h"
#include "ecc/crc32.h"
#include "fleet/checkpoint.h"
#include "host/command.h"
#include "host/factory.h"
#include "nand/chip.h"
#include "nand/geometry.h"

namespace rdsim::fleet {

namespace {

using serialize::append_bytes;
using serialize::append_pod;
using serialize::append_string;
using serialize::read_bytes;
using serialize::read_pod;
using serialize::read_string;

// Counter-based stream families: stream id = (kind << 32) | slot index,
// counter = generation (or epoch for teardown probes). Every random
// quantity a slot consumes is a pure function of (fleet seed, slot,
// generation/epoch), so nothing depends on fleet size, thread count, or
// execution order.
constexpr std::uint64_t kFaultKind = 1;     ///< Per-generation fault rate.
constexpr std::uint64_t kDriveKind = 2;     ///< Per-generation drive seed.
constexpr std::uint64_t kTraceKind = 3;     ///< Per-generation trace seed.
constexpr std::uint64_t kTeardownKind = 4;  ///< Per-epoch MC probe seed.

std::uint64_t stream_id(std::uint64_t kind, std::uint64_t index) {
  return (kind << 32) | index;
}

void accumulate(ftl::FtlStats* acc, const ftl::FtlStats& s) {
  acc->host_reads += s.host_reads;
  acc->host_writes += s.host_writes;
  acc->host_trims += s.host_trims;
  acc->gc_writes += s.gc_writes;
  acc->refresh_writes += s.refresh_writes;
  acc->reclaim_writes += s.reclaim_writes;
  acc->gc_erases += s.gc_erases;
  acc->refreshes += s.refreshes;
  acc->reclaims += s.reclaims;
  acc->program_failures += s.program_failures;
  acc->erase_failures += s.erase_failures;
  acc->defect_writes += s.defect_writes;
}

void accumulate(ssd::SsdStats* acc, const ssd::SsdStats& s) {
  acc->days += s.days;
  acc->uncorrectable_page_events += s.uncorrectable_page_events;
  acc->host_uncorrectable_pages += s.host_uncorrectable_pages;
  acc->host_failed_writes += s.host_failed_writes;
  acc->host_readonly_writes += s.host_readonly_writes;
  acc->tuning_fallbacks += s.tuning_fallbacks;
  acc->sum_vpass_reduction_pct += s.sum_vpass_reduction_pct;
  acc->tuned_block_days += s.tuned_block_days;
  acc->host_io_seconds += s.host_io_seconds;
  acc->background_seconds += s.background_seconds;
  acc->tuning_probe_seconds += s.tuning_probe_seconds;
}

std::string fmt_double(double v) { return sim::strf("%.17g", v); }

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

struct FleetRunner::DriveSlot {
  std::uint32_t generation = 0;
  bool dead = false;  ///< Failed with fleet.replace_failed = false.
  double rebuild_days_left = 0.0;
  std::uint64_t rebuild_next_lpn = 0;
  double teardown_rber = 0.0;  ///< Last epoch's MC ground-truth probe.
  std::vector<double> failure_days;  ///< Slot-day of each read-only freeze.
  // Lifetime counters of generations already replaced (the live ssd's
  // stats cover only the current generation).
  ftl::FtlStats acc_ftl{};
  ssd::SsdStats acc_ssd{};
  std::unique_ptr<ssd::Ssd> ssd;
  std::unique_ptr<workload::TraceGenerator> gen;
};

FleetRunner::FleetRunner(const cfg::ScenarioSpec& spec, std::uint64_t seed,
                         ThreadPool& pool)
    : FleetRunner(spec, seed, pool, /*defer_init=*/false) {}

FleetRunner::~FleetRunner() = default;

FleetRunner::FleetRunner(const cfg::ScenarioSpec& spec, std::uint64_t seed,
                         ThreadPool& pool, bool defer_init)
    : spec_(spec),
      seed_(seed),
      pool_(&pool),
      params_(host::flash_params_from_spec(spec.drive)) {
  assert(spec_.fleet.enabled());
  assert(spec_.drive.backend == cfg::Backend::kAnalytic);
  total_days_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(spec_.fleet.years * 365.0)));
  const std::uint32_t interval = spec_.fleet.report_interval_days;
  total_epochs_ = (total_days_ + interval - 1) / interval;
  slots_.resize(spec_.fleet.drives);
  if (!defer_init)
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
      init_slot(&slots_[i], i, 0);
}

double FleetRunner::draw_fail_prob(std::uint32_t index,
                                   std::uint32_t generation) const {
  const cfg::FleetSpec& f = spec_.fleet;
  if (f.pe_fail_prob_median <= 0.0) return 0.0;
  double p = f.pe_fail_prob_median;
  if (f.fault_rate_sigma > 0.0) {
    Rng rng = Rng::at(seed_, stream_id(kFaultKind, index), generation);
    p *= std::exp(f.fault_rate_sigma * rng.normal());
  }
  return std::min(p, 1.0);
}

void FleetRunner::init_slot(DriveSlot* slot, std::uint32_t index,
                            std::uint32_t generation) const {
  ssd::SsdConfig config = host::ssd_config_from_spec(spec_.drive);
  const double p = draw_fail_prob(index, generation);
  config.ftl.program_fail_prob = p;
  config.ftl.erase_fail_prob = p;
  const std::uint64_t drive_seed =
      Rng::at(seed_, stream_id(kDriveKind, index), generation).next();
  const std::uint64_t trace_seed =
      Rng::at(seed_, stream_id(kTraceKind, index), generation).next();
  slot->generation = generation;
  slot->ssd = std::make_unique<ssd::Ssd>(config, params_, drive_seed);
  slot->gen = std::make_unique<workload::TraceGenerator>(
      spec_.workload.profile, config.ftl.logical_pages(), trace_seed, 1);
}

void FleetRunner::step_drive(DriveSlot* slot, std::uint32_t index,
                             std::uint32_t days, double epoch_start_day) {
  const std::uint64_t logical =
      slot->ssd->config().ftl.logical_pages();
  for (std::uint32_t d = 0; d < days; ++d) {
    if (slot->dead) return;
    if (slot->rebuild_days_left > 0.0) {
      // Rebuild traffic: the replacement drive re-ingests the logical
      // space sequentially, spread over fleet.rebuild_days.
      const double total = std::max(spec_.fleet.rebuild_days, 1e-9);
      std::uint64_t remaining = static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(logical) / total));
      while (remaining > 0 && slot->rebuild_next_lpn < logical) {
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(std::min<std::uint64_t>(remaining, 256),
                                    logical - slot->rebuild_next_lpn));
        host::Command cmd;
        cmd.kind = host::CommandKind::kWrite;
        cmd.lpn = slot->rebuild_next_lpn;
        cmd.pages = chunk;
        slot->ssd->service(cmd);
        slot->rebuild_next_lpn += chunk;
        remaining -= chunk;
      }
      slot->rebuild_days_left -= 1.0;
    } else {
      for (const host::Command& cmd : slot->gen->day_commands())
        slot->ssd->service(cmd);
    }
    slot->ssd->end_of_day();
    if (slot->ssd->ftl().read_only()) {
      slot->failure_days.push_back(epoch_start_day +
                                   static_cast<double>(d) + 1.0);
      if (spec_.fleet.replace_failed) {
        // Retire this generation's counters into the slot accumulators,
        // then swap in a fresh drive and start its rebuild window.
        accumulate(&slot->acc_ftl, slot->ssd->ftl().stats());
        accumulate(&slot->acc_ssd, slot->ssd->stats());
        init_slot(slot, index, slot->generation + 1);
        slot->rebuild_days_left = spec_.fleet.rebuild_days;
        slot->rebuild_next_lpn = 0;
      } else {
        // No replacement: the slot keeps its frozen read-only drive
        // (stats stay on the live ssd) and generates no more traffic.
        slot->dead = true;
      }
    }
  }
}

double FleetRunner::teardown_probe(const DriveSlot& slot,
                                   std::uint32_t index) const {
  // Ground-truth RBER at the drive's current operating point, from a
  // sampled Monte Carlo block: wear to the drive's max P/E, age one
  // refresh interval, absorb its worst per-interval read pressure. Pure
  // function of (seed, slot, epoch, operating point) — no chip state
  // survives between probes, so checkpoints carry nothing for them.
  nand::Geometry g;
  g.wordlines_per_block = 16;
  g.bitlines = 1024;
  g.blocks = 1;
  const std::uint64_t probe_seed =
      Rng::at(seed_, stream_id(kTeardownKind, index), epoch_).next();
  nand::Chip chip(g, params_, probe_seed);
  auto& block = chip.block(0);
  block.add_wear(slot.ssd->ftl().max_pe());
  block.program_random();
  block.advance_time(
      std::min(spec_.drive.refresh_interval_days,
               static_cast<double>(spec_.fleet.report_interval_days)));
  const double reads = static_cast<double>(
      std::min<std::uint64_t>(slot.ssd->max_reads_per_interval(), 200000));
  if (reads > 0.0)
    for (std::uint32_t w = 0; w < g.wordlines_per_block; ++w)
      block.apply_reads(w, reads / g.wordlines_per_block);
  std::uint64_t errors = 0;
  for (std::uint32_t w = 0; w < g.wordlines_per_block; ++w) {
    errors += block.count_errors({w, nand::PageKind::kLsb});
    errors += block.count_errors({w, nand::PageKind::kMsb});
  }
  return static_cast<double>(errors) /
         static_cast<double>(g.bits_per_block());
}

void FleetRunner::run_epoch() {
  assert(!done());
  const std::uint32_t interval = spec_.fleet.report_interval_days;
  const std::uint32_t start_day = static_cast<std::uint32_t>(epoch_) * interval;
  const std::uint32_t days = std::min(interval, total_days_ - start_day);
  const std::uint32_t teardown_every = spec_.fleet.teardown_every;

  pool_->for_each(slots_.size(), [&](std::size_t i) {
    DriveSlot& slot = slots_[i];
    step_drive(&slot, static_cast<std::uint32_t>(i), days,
               static_cast<double>(start_day));
    if (teardown_every != 0 && i % teardown_every == 0 && !slot.dead)
      slot.teardown_rber =
          teardown_probe(slot, static_cast<std::uint32_t>(i));
  });
  ++epoch_;

  // Aggregate on the main thread in slot order (determinism contract).
  const std::uint32_t age_days = start_day + days;
  std::uint32_t healthy = 0, degraded = 0, rebuilding = 0, read_only = 0;
  std::uint64_t failures = 0;
  std::uint64_t host_reads = 0, host_writes = 0, refresh_writes = 0;
  std::uint64_t total_writes = 0, unc_pages = 0;
  double waf_sum = 0.0, td_sum = 0.0;
  std::uint32_t td_n = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const DriveSlot& slot = slots_[i];
    ftl::FtlStats ft = slot.acc_ftl;
    accumulate(&ft, slot.ssd->ftl().stats());
    ssd::SsdStats ss = slot.acc_ssd;
    accumulate(&ss, slot.ssd->stats());
    failures += slot.failure_days.size();
    if (slot.dead || slot.ssd->ftl().read_only()) {
      ++read_only;
    } else if (slot.rebuild_days_left > 0.0) {
      ++rebuilding;
    } else if (slot.ssd->ftl().retired_blocks() > 0) {
      ++degraded;
    } else {
      ++healthy;
    }
    host_reads += ft.host_reads;
    host_writes += ft.host_writes;
    refresh_writes += ft.refresh_writes;
    total_writes += ft.host_writes + ft.gc_writes + ft.refresh_writes +
                    ft.reclaim_writes + ft.defect_writes;
    unc_pages += ss.host_uncorrectable_pages;
    waf_sum += ft.waf();
    if (teardown_every != 0 && i % teardown_every == 0 && !slot.dead) {
      td_sum += slot.teardown_rber;
      ++td_n;
    }
  }
  const double slot_years = static_cast<double>(age_days) *
                            static_cast<double>(slots_.size()) / 365.0;
  const double afr =
      slot_years > 0.0 ? static_cast<double>(failures) / slot_years : 0.0;
  const ssd::SsdConfig base = host::ssd_config_from_spec(spec_.drive);
  const double page_bits = static_cast<double>(base.ecc.codeword_data_bits) *
                           static_cast<double>(base.ecc.codewords_per_page);
  const double uber =
      host_reads > 0
          ? static_cast<double>(unc_pages) /
                (static_cast<double>(host_reads) * page_bits)
          : 0.0;
  const double refresh_share =
      total_writes > 0
          ? static_cast<double>(refresh_writes) /
                static_cast<double>(total_writes)
          : 0.0;
  rows_.push_back(sim::strf(
      "%u,%u,%u,%u,%u,%llu,%.4f,%.3e,%.4f,%.3f,%.3e", age_days, healthy,
      degraded, rebuilding, read_only,
      static_cast<unsigned long long>(failures), afr, uber, refresh_share,
      waf_sum / static_cast<double>(slots_.size()),
      td_n > 0 ? td_sum / static_cast<double>(td_n) : 0.0));
}

sim::Table FleetRunner::table() const {
  sim::Table t;
  t.comment(sim::strf(
      "fig_fleet: %u analytic drives over %u days "
      "(report interval %u days, pe_fail_prob_median=%g, sigma=%g, "
      "teardown_every=%u, replace_failed=%d, rebuild_days=%g)",
      spec_.fleet.drives, total_days_, spec_.fleet.report_interval_days,
      spec_.fleet.pe_fail_prob_median, spec_.fleet.fault_rate_sigma,
      spec_.fleet.teardown_every, spec_.fleet.replace_failed ? 1 : 0,
      spec_.fleet.rebuild_days));
  t.comment(
      "Section A: fleet trajectory per reporting epoch (AFR in "
      "failures per slot-year; UBER over cumulative host read bits; "
      "refresh_share of all flash writes; teardown RBER from sampled "
      "MC ground-truth probes)");
  t.row(
      "age_days,healthy,degraded,rebuilding,read_only,failures_cum,afr,"
      "uber,refresh_share,waf_mean,teardown_rber_mean");
  for (const std::string& r : rows_) t.row(r);

  t.new_section();
  std::vector<double> fails;
  std::uint32_t never = 0;
  for (const DriveSlot& slot : slots_) {
    if (slot.failure_days.empty()) ++never;
    for (const double day : slot.failure_days) fails.push_back(day);
  }
  std::sort(fails.begin(), fails.end());
  t.comment(
      "Section B: time-to-read-only distribution over all failures "
      "(slot-day of each read-only freeze; never_failed counts slots "
      "with zero failures so far)");
  t.row("failures,first_min,p50,p90,max,never_failed");
  t.row(sim::strf("%llu,%.1f,%.1f,%.1f,%.1f,%u",
                  static_cast<unsigned long long>(fails.size()),
                  fails.empty() ? 0.0 : fails.front(),
                  percentile(fails, 0.5), percentile(fails, 0.9),
                  fails.empty() ? 0.0 : fails.back(), never));
  return t;
}

std::string FleetRunner::canonical_config(const cfg::ScenarioSpec& spec) {
  std::ostringstream o;
  o << "[drive]\n";
  o << "backend = " << cfg::backend_name(spec.drive.backend) << "\n";
  o << "flash_model = "
    << (spec.drive.flash_model == cfg::FlashModel::k2ynm ? "2ynm" : "3d")
    << "\n";
  o << "shards = " << spec.drive.shards << "\n";
  o << "queue_count = " << spec.drive.queue_count << "\n";
  o << "blocks = " << spec.drive.blocks << "\n";
  o << "pages_per_block = " << spec.drive.pages_per_block << "\n";
  o << "overprovision = " << fmt_double(spec.drive.overprovision) << "\n";
  o << "gc_free_target = " << spec.drive.gc_free_target << "\n";
  o << "refresh_interval_days = "
    << fmt_double(spec.drive.refresh_interval_days) << "\n";
  o << "read_reclaim_threshold = " << spec.drive.read_reclaim_threshold
    << "\n";
  o << "vpass_tuning = " << (spec.drive.vpass_tuning ? "true" : "false")
    << "\n";
  o << "spare_blocks = " << spec.drive.spare_blocks << "\n";
  o << "wordlines_per_block = " << spec.drive.wordlines_per_block << "\n";
  o << "bitlines = " << spec.drive.bitlines << "\n";
  o << "pre_wear_pe = " << spec.drive.pre_wear_pe << "\n";
  o << "\n[faults]\n";
  o << "program_fail_prob = " << fmt_double(spec.drive.faults.program_fail_prob)
    << "\n";
  o << "erase_fail_prob = " << fmt_double(spec.drive.faults.erase_fail_prob)
    << "\n";
  const workload::WorkloadProfile& p = spec.workload.profile;
  o << "\n[workload]\n";
  o << "profile = " << p.name << "\n";
  o << "daily_page_ios = " << fmt_double(p.daily_page_ios) << "\n";
  o << "read_fraction = " << fmt_double(p.read_fraction) << "\n";
  o << "footprint_fraction = " << fmt_double(p.footprint_fraction) << "\n";
  o << "mean_request_pages = " << fmt_double(p.mean_request_pages) << "\n";
  o << "trim_fraction = " << fmt_double(p.trim_fraction) << "\n";
  o << "flush_period_s = " << fmt_double(p.flush_period_s) << "\n";
  const cfg::FleetSpec& f = spec.fleet;
  o << "\n[fleet]\n";
  o << "drives = " << f.drives << "\n";
  o << "years = " << fmt_double(f.years) << "\n";
  o << "report_interval_days = " << f.report_interval_days << "\n";
  o << "checkpoint_every = " << f.checkpoint_every << "\n";
  o << "teardown_every = " << f.teardown_every << "\n";
  o << "pe_fail_prob_median = " << fmt_double(f.pe_fail_prob_median) << "\n";
  o << "fault_rate_sigma = " << fmt_double(f.fault_rate_sigma) << "\n";
  o << "replace_failed = " << (f.replace_failed ? "true" : "false") << "\n";
  o << "rebuild_days = " << fmt_double(f.rebuild_days) << "\n";
  return o.str();
}

std::vector<std::uint8_t> FleetRunner::checkpoint() const {
  std::vector<CheckpointSection> sections;

  const std::string config_text = canonical_config(spec_);

  CheckpointSection conf;
  conf.tag = kSectionConfig;
  append_string(&conf.payload, config_text);
  sections.push_back(std::move(conf));

  CheckpointSection meta;
  meta.tag = kSectionMeta;
  append_pod(&meta.payload, seed_);
  append_pod(&meta.payload, static_cast<std::uint64_t>(epoch_));
  append_pod(&meta.payload, total_days_);
  append_pod(&meta.payload, static_cast<std::uint32_t>(slots_.size()));
  append_pod(&meta.payload, static_cast<std::uint64_t>(rows_.size()));
  for (const std::string& r : rows_) append_string(&meta.payload, r);
  sections.push_back(std::move(meta));

  CheckpointSection drives;
  drives.tag = kSectionDrives;
  for (const DriveSlot& slot : slots_) {
    append_pod(&drives.payload, slot.generation);
    append_pod(&drives.payload,
               static_cast<std::uint8_t>(slot.dead ? 1 : 0));
    append_pod(&drives.payload, slot.rebuild_days_left);
    append_pod(&drives.payload, slot.rebuild_next_lpn);
    append_pod(&drives.payload, slot.teardown_rber);
    append_pod(&drives.payload,
               static_cast<std::uint64_t>(slot.failure_days.size()));
    for (const double day : slot.failure_days)
      append_pod(&drives.payload, day);
    append_pod(&drives.payload, slot.acc_ftl);
    append_pod(&drives.payload, slot.acc_ssd);
    append_bytes(&drives.payload, slot.ssd->snapshot());
    append_pod(&drives.payload, slot.gen->save_state());
  }
  sections.push_back(std::move(drives));

  return pack_checkpoint(ecc::crc32({
                             reinterpret_cast<const std::uint8_t*>(
                                 config_text.data()),
                             config_text.size(),
                         }),
                         sections);
}

std::unique_ptr<FleetRunner> FleetRunner::from_checkpoint(
    const std::vector<std::uint8_t>& bytes, const cfg::ScenarioSpec& spec,
    std::uint64_t seed, ThreadPool& pool, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };
  std::uint32_t digest = 0;
  std::vector<CheckpointSection> sections;
  std::string unpack_error;
  if (!unpack_checkpoint(bytes, &digest, &sections, &unpack_error))
    return fail(std::move(unpack_error));

  const std::string config_text = canonical_config(spec);
  const std::uint32_t expected = ecc::crc32(
      {reinterpret_cast<const std::uint8_t*>(config_text.data()),
       config_text.size()});
  if (digest != expected)
    return fail(
        "checkpoint config digest mismatch: it was taken under a "
        "different [drive]/[workload]/[fleet] configuration than the one "
        "resuming it");

  const CheckpointSection* meta = find_section(sections, kSectionMeta);
  const CheckpointSection* drives = find_section(sections, kSectionDrives);
  if (meta == nullptr || drives == nullptr)
    return fail("checkpoint missing META or DRVS section");

  std::size_t off = 0;
  std::uint64_t stored_seed = 0, stored_epoch = 0, row_count = 0;
  std::uint32_t stored_days = 0, stored_drives = 0;
  if (!read_pod(meta->payload, &off, &stored_seed) ||
      !read_pod(meta->payload, &off, &stored_epoch) ||
      !read_pod(meta->payload, &off, &stored_days) ||
      !read_pod(meta->payload, &off, &stored_drives) ||
      !read_pod(meta->payload, &off, &row_count))
    return fail("checkpoint META section truncated");
  if (stored_seed != seed)
    return fail("checkpoint seed mismatch: taken with --seed " +
                std::to_string(stored_seed) + ", resuming with --seed " +
                std::to_string(seed));

  auto runner = std::unique_ptr<FleetRunner>(
      new FleetRunner(spec, seed, pool, /*defer_init=*/true));
  if (stored_days != runner->total_days_ ||
      stored_drives != runner->slots_.size())
    return fail("checkpoint horizon/fleet-size mismatch against the spec");
  if (stored_epoch > runner->total_epochs_)
    return fail("checkpoint epoch cursor past the configured horizon");
  runner->epoch_ = stored_epoch;
  // Every row carries at least its 8-byte length prefix.
  if (row_count > (meta->payload.size() - off) / sizeof(std::uint64_t))
    return fail("checkpoint META section truncated inside rows");
  runner->rows_.reserve(row_count);
  for (std::uint64_t i = 0; i < row_count; ++i) {
    std::string row;
    if (!read_string(meta->payload, &off, &row))
      return fail("checkpoint META section truncated inside rows");
    runner->rows_.push_back(std::move(row));
  }
  if (off != meta->payload.size())
    return fail("checkpoint META section has trailing bytes");

  off = 0;
  for (std::uint32_t i = 0; i < runner->slots_.size(); ++i) {
    DriveSlot& slot = runner->slots_[i];
    std::uint8_t dead = 0;
    std::uint64_t fail_count = 0;
    std::uint32_t generation = 0;
    if (!read_pod(drives->payload, &off, &generation) ||
        !read_pod(drives->payload, &off, &dead) ||
        !read_pod(drives->payload, &off, &slot.rebuild_days_left) ||
        !read_pod(drives->payload, &off, &slot.rebuild_next_lpn) ||
        !read_pod(drives->payload, &off, &slot.teardown_rber) ||
        !read_pod(drives->payload, &off, &fail_count))
      return fail("checkpoint DRVS section truncated (slot " +
                  std::to_string(i) + ")");
    slot.dead = dead != 0;
    if (fail_count > (drives->payload.size() - off) / sizeof(double))
      return fail("checkpoint DRVS section truncated in failure days");
    slot.failure_days.resize(fail_count);
    for (double& day : slot.failure_days)
      if (!read_pod(drives->payload, &off, &day))
        return fail("checkpoint DRVS section truncated in failure days");
    if (!read_pod(drives->payload, &off, &slot.acc_ftl) ||
        !read_pod(drives->payload, &off, &slot.acc_ssd))
      return fail("checkpoint DRVS section truncated in slot stats");
    std::vector<std::uint8_t> ssd_bytes;
    if (!read_bytes(drives->payload, &off, &ssd_bytes))
      return fail("checkpoint DRVS section truncated in ssd snapshot");
    // Reconstruct the generation exactly as init_slot would (same drawn
    // fault rate, same seeds), then overwrite its mutable state.
    runner->init_slot(&slot, i, generation);
    std::string ssd_error;
    if (!slot.ssd->restore(ssd_bytes, &ssd_error))
      return fail("checkpoint slot " + std::to_string(i) + ": " + ssd_error);
    workload::TraceGenerator::SavedState gen_state;
    if (!read_pod(drives->payload, &off, &gen_state))
      return fail("checkpoint DRVS section truncated in generator state");
    slot.gen->load_state(gen_state);
  }
  if (off != drives->payload.size())
    return fail("checkpoint DRVS section has trailing bytes");
  return runner;
}

std::unique_ptr<FleetRunner> FleetRunner::from_checkpoint_file(
    const std::string& path, ThreadPool& pool, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return nullptr;
  };
  std::vector<std::uint8_t> bytes;
  std::string io_error;
  if (!read_checkpoint_file(path, &bytes, &io_error))
    return fail(std::move(io_error));
  std::vector<CheckpointSection> sections;
  std::string unpack_error;
  if (!unpack_checkpoint(bytes, nullptr, &sections, &unpack_error))
    return fail(std::move(unpack_error));
  const CheckpointSection* conf = find_section(sections, kSectionConfig);
  const CheckpointSection* meta = find_section(sections, kSectionMeta);
  if (conf == nullptr || meta == nullptr)
    return fail("checkpoint missing CONF or META section");

  std::size_t off = 0;
  std::string config_text;
  if (!read_string(conf->payload, &off, &config_text))
    return fail("checkpoint CONF section truncated");
  std::vector<cfg::Diagnostic> diags;
  cfg::Config config = cfg::Config::parse(config_text, &diags);
  cfg::ScenarioSpec spec = cfg::parse_scenario(config, &diags);
  if (!diags.empty()) {
    std::string message =
        "checkpoint embedded config failed to re-parse:";
    for (const cfg::Diagnostic& d : diags)
      message += "\n  " + d.key + ": " + d.message;
    return fail(std::move(message));
  }

  off = 0;
  std::uint64_t stored_seed = 0;
  if (!read_pod(meta->payload, &off, &stored_seed))
    return fail("checkpoint META section truncated");
  return from_checkpoint(bytes, spec, stored_seed, pool, error);
}

sim::Table run_fleet(FleetRunner& runner, const FleetOptions& options) {
  const std::uint32_t every = options.checkpoint_every != 0
                                  ? options.checkpoint_every
                                  : runner.spec().fleet.checkpoint_every;
  const std::string path =
      options.checkpoint_path.empty() ? "fleet.ckpt" : options.checkpoint_path;
  const auto write_ckpt = [&runner, &path]() {
    std::string error;
    if (!write_checkpoint_file(path, runner.checkpoint(), &error))
      throw std::runtime_error(error);
  };
  std::uint32_t written = 0;
  while (!runner.done()) {
    if (options.stop_flag != nullptr && *options.stop_flag != 0) {
      write_ckpt();
      throw Interrupted(path);
    }
    runner.run_epoch();
    if (every != 0 && !runner.done() && runner.epoch() % every == 0) {
      write_ckpt();
      ++written;
      if (options.stop_after_checkpoints != 0 &&
          written >= options.stop_after_checkpoints)
        throw Interrupted(path);
    }
  }
  return runner.table();
}

}  // namespace rdsim::fleet
