#include "ssd/ssd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/serialize.h"
#include "ecc/crc32.h"

namespace rdsim::ssd {
namespace {

constexpr std::uint32_t kSsdSnapshotMagic = 0x52445353;  // "RDSS"
constexpr std::uint32_t kSsdSnapshotVersion = 1;

/// BlockProbe over the SSD's per-block analytic reliability state, so the
/// real VpassTuningController makes the daily decisions.
class SsdBlockProbe : public core::BlockProbe {
 public:
  SsdBlockProbe(const flash::RberModel& model, const ecc::EccConfig& ecc,
                double worst_page_factor, double pe, double age_days,
                double disturb_rber)
      : model_(&model),
        page_bits_(ecc.codeword_data_bits * ecc.codewords_per_page),
        codewords_(ecc.codewords_per_page),
        worst_(worst_page_factor),
        pe_(pe),
        age_(age_days),
        disturb_rber_(disturb_rber) {}

  int measure_worst_page_errors() override {
    const double rber = worst_ * (model_->base_rber(pe_) +
                                  model_->retention_rber(pe_, age_) +
                                  disturb_rber_);
    return static_cast<int>(std::lround(rber * page_bits_));
  }

  int count_read_zeros(double vpass) override {
    return static_cast<int>(
        std::lround(model_->pass_through_rber(vpass, age_) * page_bits_));
  }

  int codewords_per_page() const override { return codewords_; }

 private:
  const flash::RberModel* model_;
  int page_bits_;
  int codewords_;
  double worst_;
  double pe_;
  double age_;
  double disturb_rber_;
};

}  // namespace

Ssd::Ssd(const SsdConfig& config, const flash::FlashModelParams& params,
         std::uint64_t seed)
    : config_(config),
      model_(params),
      ecc_(config.ecc),
      controller_(ecc_, params.vpass_nominal, config.tuning),
      ftl_(config.ftl, seed),
      disturb_rber_(config.ftl.blocks, 0.0),
      reads_snapshot_(config.ftl.blocks, 0),
      pe_seen_(config.ftl.blocks, 0),
      last_refresh_day_(config.ftl.blocks, 0.0),
      read_verdicts_(config.ftl.blocks) {
  for (std::uint32_t b = 0; b < config_.ftl.blocks; ++b)
    ftl_.set_block_vpass(b, params.vpass_nominal);
}

host::ServiceCost Ssd::service(const host::Command& command) {
  host::ServiceCost cost;
  const std::uint64_t logical = ftl_.config().logical_pages();
  switch (command.kind) {
    case host::CommandKind::kRead:
      for (std::uint32_t i = 0; i < command.pages; ++i) {
        const std::uint32_t blk = ftl_.read((command.lpn + i) % logical);
        cost.busy_s += config_.latency.read_s;
        // Analytic error path: a mapped page reads uncorrectable when its
        // block's worst-page RBER exceeds the full ECC capability (the
        // same criterion as the nightly reliability scan). Below that the
        // closed-form model has ECC absorb the errors silently — kOk here
        // means "decoded"; the per-sense kCorrected distinction exists
        // only on the Monte Carlo backends. Never-written pages are
        // served from the mapping and are trivially kOk. The verdict
        // comes from a per-block memo keyed on the RBER's full input
        // tuple (pe_cycles, program_day, now_days, vpass, disturb RBER),
        // compared exactly: those change only at an erase, a reprogram or
        // the nightly pass, so most reads skip the model's libm calls.
        if (blk != ftl::Ftl::kUnmappedBlock && read_uncorrectable(blk)) {
          cost.status = host::worst_status(cost.status,
                                           host::Status::kUncorrectable);
          ++cost.error_pages;
          ++stats_.host_uncorrectable_pages;
        }
      }
      break;
    case host::CommandKind::kWrite:
      for (std::uint32_t i = 0; i < command.pages; ++i) {
        std::uint32_t blk = ftl::Ftl::kUnmappedBlock;
        const ftl::WriteResult r =
            ftl_.write_page((command.lpn + i) % logical, &blk);
        if (r == ftl::WriteResult::kReadOnly) {
          // Rejected without touching flash: no busy time, the page (and
          // every remaining page — the freeze is permanent) is refused.
          cost.status = host::worst_status(cost.status,
                                           host::Status::kReadOnly);
          cost.error_pages += command.pages - i;
          stats_.host_readonly_writes += command.pages - i;
          break;
        }
        cost.busy_s += config_.latency.program_s;
        if (r == ftl::WriteResult::kFailed) {
          cost.status = host::worst_status(cost.status,
                                           host::Status::kFailedWrite);
          ++cost.error_pages;
          ++stats_.host_failed_writes;
        }
      }
      // GC the writes triggered inline runs before the command completes:
      // charge it to the command as a stall, not as generic background.
      cost.stall_s = accrue_background();
      break;
    case host::CommandKind::kTrim:
      // Metadata-only: the mapping update costs no flash busy time.
      for (std::uint32_t i = 0; i < command.pages; ++i)
        ftl_.trim((command.lpn + i) % logical);
      break;
    case host::CommandKind::kFlush:
      break;  // Barrier semantics live in the host::Device queue layer.
  }
  stats_.host_io_seconds += cost.busy_s;
  return cost;
}

double Ssd::accrue_background() {
  const auto& fs = ftl_.stats();
  const std::uint64_t bg_writes_total =
      fs.gc_writes + fs.refresh_writes + fs.reclaim_writes +
      fs.defect_writes;
  const std::uint64_t erases_total =
      fs.gc_erases + fs.refreshes + fs.reclaims;
  const double seconds =
      static_cast<double>(bg_writes_total - bg_writes_seen_) *
          (config_.latency.read_s + config_.latency.program_s) +
      static_cast<double>(erases_total - erases_seen_) *
          config_.latency.erase_s;
  bg_writes_seen_ = bg_writes_total;
  erases_seen_ = erases_total;
  stats_.background_seconds += seconds;
  return seconds;
}

void Ssd::sync_block_epochs() {
  for (std::uint32_t b = 0; b < disturb_rber_.size(); ++b) {
    const auto& info = ftl_.block(b);
    if (info.pe_cycles != pe_seen_[b]) {
      // Block was erased (GC, refresh, or reclaim) since the last scan:
      // its resident data, and therefore its accumulated retention and
      // disturb error state, is new.
      pe_seen_[b] = info.pe_cycles;
      disturb_rber_[b] = 0.0;
      reads_snapshot_[b] = 0;
      last_refresh_day_[b] = ftl_.now_days();
      ftl_.set_block_vpass(b, model_.params().vpass_nominal);
    }
  }
}

double Ssd::end_of_day() {
  ftl_.advance_time(1.0);
  ++stats_.days;
  const double probe_seconds_before = stats_.tuning_probe_seconds;

  // 1. Remap-based refresh of aged blocks, then read reclaim if enabled.
  for (const std::uint32_t b : ftl_.blocks_due_refresh()) ftl_.refresh_block(b);
  ftl_.apply_read_reclaim();
  ftl_.collect_garbage();
  sync_block_epochs();
  // Whatever background activity was not already charged to a write's
  // inline-GC stall belongs to the nightly maintenance.
  const double maintenance_bg_seconds = accrue_background();

  // 2. Account today's reads at the Vpass each block actually used.
  for (std::uint32_t b = 0; b < disturb_rber_.size(); ++b) {
    const auto& info = ftl_.block(b);
    const std::uint64_t reads_today =
        info.reads_since_program - reads_snapshot_[b];
    reads_snapshot_[b] = info.reads_since_program;
    if (reads_today > 0) {
      disturb_rber_[b] += model_.disturb_rber(
          info.pe_cycles, static_cast<double>(reads_today), info.vpass);
    }
    max_reads_per_interval_ =
        std::max(max_reads_per_interval_, info.reads_since_program);
  }

  // 3. Daily Vpass tuning (the paper's mechanism) for blocks with data.
  for (std::uint32_t b = 0; b < disturb_rber_.size(); ++b) {
    const auto& info = ftl_.block(b);
    if (info.state == ftl::BlockInfo::State::kFree || info.valid_pages == 0)
      continue;
    const double age = ftl_.now_days() - info.program_day;

    if (config_.vpass_tuning) {
      SsdBlockProbe probe(model_, config_.ecc, config_.worst_page_factor,
                          info.pe_cycles, age, disturb_rber_[b]);
      const bool refreshed_today = age <= 1.0;
      const core::TuningDecision decision =
          refreshed_today ? controller_.relearn(probe)
                          : controller_.verify_or_raise(probe, info.vpass);
      ftl_.set_block_vpass(b, decision.vpass);
      // Probe cost: the MEE read plus each step-search verification read.
      // The probes disturb the block like any other read, so they also
      // count against its read budget.
      const std::uint64_t probe_reads = 1 + decision.probe_steps;
      ftl_.note_probe_reads(b, probe_reads);
      stats_.tuning_probe_seconds +=
          static_cast<double>(probe_reads) * config_.latency.read_s;
      stats_.tuning_fallbacks += decision.fallback ? 1 : 0;
      stats_.sum_vpass_reduction_pct +=
          (model_.params().vpass_nominal - decision.vpass) /
          model_.params().vpass_nominal * 100.0;
      ++stats_.tuned_block_days;
    }

    // 4. Reliability scan: uncorrectable when the worst page exceeds the
    // full ECC capability.
    if (block_worst_rber(b) > ecc_.rber_capability())
      ++stats_.uncorrectable_page_events;
  }

  return maintenance_bg_seconds +
         (stats_.tuning_probe_seconds - probe_seconds_before);
}

std::vector<std::uint8_t> Ssd::snapshot() const {
  using serialize::append_bytes;
  using serialize::append_pod;
  std::vector<std::uint8_t> out;
  append_pod(&out, kSsdSnapshotMagic);
  append_pod(&out, kSsdSnapshotVersion);
  append_pod(&out, config_.ftl.blocks);
  append_bytes(&out, ftl_.snapshot());
  for (const double v : disturb_rber_) append_pod(&out, v);
  for (const std::uint64_t v : reads_snapshot_) append_pod(&out, v);
  for (const std::uint32_t v : pe_seen_) append_pod(&out, v);
  for (const double v : last_refresh_day_) append_pod(&out, v);
  append_pod(&out, max_reads_per_interval_);
  append_pod(&out, bg_writes_seen_);
  append_pod(&out, erases_seen_);
  append_pod(&out, stats_);
  const std::uint32_t crc = ecc::crc32(out);
  append_pod(&out, crc);
  return out;
}

bool Ssd::restore(const std::vector<std::uint8_t>& snapshot,
                  std::string* error) {
  using serialize::read_bytes;
  using serialize::read_pod;
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (snapshot.size() < 3 * sizeof(std::uint32_t) + sizeof(std::uint32_t))
    return fail("ssd snapshot truncated: shorter than header + CRC");
  const std::size_t body = snapshot.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, snapshot.data() + body, sizeof(stored_crc));
  if (ecc::crc32({snapshot.data(), body}) != stored_crc)
    return fail("ssd snapshot payload CRC mismatch (bit corruption)");

  std::size_t offset = 0;
  std::uint32_t magic = 0, version = 0, blocks = 0;
  if (!read_pod(snapshot, &offset, &magic) || magic != kSsdSnapshotMagic)
    return fail("ssd snapshot bad magic (not an SSD snapshot)");
  if (!read_pod(snapshot, &offset, &version) || version != kSsdSnapshotVersion)
    return fail("ssd snapshot unsupported version");
  if (!read_pod(snapshot, &offset, &blocks) || blocks != config_.ftl.blocks)
    return fail("ssd snapshot geometry mismatch (block count differs)");

  // Stage everything before touching *this: a failed restore must leave
  // the drive exactly as it was.
  std::vector<std::uint8_t> ftl_bytes;
  if (!read_bytes(snapshot, &offset, &ftl_bytes))
    return fail("ssd snapshot truncated inside embedded ftl snapshot");
  ftl::Ftl staged_ftl(config_.ftl);
  std::string ftl_error;
  if (!staged_ftl.restore(ftl_bytes, &ftl_error)) {
    if (error != nullptr) *error = "ssd snapshot: embedded " + ftl_error;
    return false;
  }

  const std::size_t n = config_.ftl.blocks;
  std::vector<double> disturb(n), last_refresh(n);
  std::vector<std::uint64_t> reads(n);
  std::vector<std::uint32_t> pe(n);
  for (auto& v : disturb)
    if (!read_pod(snapshot, &offset, &v))
      return fail("ssd snapshot truncated inside disturb accumulators");
  for (auto& v : reads)
    if (!read_pod(snapshot, &offset, &v))
      return fail("ssd snapshot truncated inside read snapshots");
  for (auto& v : pe)
    if (!read_pod(snapshot, &offset, &v))
      return fail("ssd snapshot truncated inside pe epochs");
  for (auto& v : last_refresh)
    if (!read_pod(snapshot, &offset, &v))
      return fail("ssd snapshot truncated inside refresh days");
  std::uint64_t max_reads = 0, bg_writes = 0, erases = 0;
  SsdStats stats;
  if (!read_pod(snapshot, &offset, &max_reads) ||
      !read_pod(snapshot, &offset, &bg_writes) ||
      !read_pod(snapshot, &offset, &erases) ||
      !read_pod(snapshot, &offset, &stats))
    return fail("ssd snapshot truncated inside scalar state");
  if (offset != body)
    return fail("ssd snapshot over-long: trailing bytes after payload");

  ftl_ = std::move(staged_ftl);
  disturb_rber_ = std::move(disturb);
  reads_snapshot_ = std::move(reads);
  pe_seen_ = std::move(pe);
  last_refresh_day_ = std::move(last_refresh);
  max_reads_per_interval_ = max_reads;
  bg_writes_seen_ = bg_writes;
  erases_seen_ = erases;
  stats_ = stats;
  return true;
}

double Ssd::block_worst_rber(std::uint32_t b) const {
  const auto& info = ftl_.block(b);
  if (info.state == ftl::BlockInfo::State::kFree || info.valid_pages == 0)
    return 0.0;
  const double age = ftl_.now_days() - info.program_day;
  return config_.worst_page_factor *
             (model_.base_rber(info.pe_cycles) +
              model_.retention_rber(info.pe_cycles, age) + disturb_rber_[b]) +
         model_.pass_through_rber(info.vpass, age);
}

bool Ssd::read_uncorrectable(std::uint32_t b) {
  const auto& info = ftl_.block(b);
  if (info.state == ftl::BlockInfo::State::kFree || info.valid_pages == 0)
    return false;
  ReadVerdict& memo = read_verdicts_[b];
  const double now = ftl_.now_days();
  if (memo.pe_cycles != info.pe_cycles ||
      memo.program_day != info.program_day || memo.now_days != now ||
      memo.vpass != info.vpass || memo.disturb_rber != disturb_rber_[b]) {
    memo.pe_cycles = info.pe_cycles;
    memo.program_day = info.program_day;
    memo.now_days = now;
    memo.vpass = info.vpass;
    memo.disturb_rber = disturb_rber_[b];
    memo.uncorrectable = block_worst_rber(b) > ecc_.rber_capability();
  }
  return memo.uncorrectable;
}

double Ssd::max_worst_rber() const {
  double m = 0.0;
  for (std::uint32_t b = 0; b < disturb_rber_.size(); ++b)
    m = std::max(m, block_worst_rber(b));
  return m;
}

}  // namespace rdsim::ssd
