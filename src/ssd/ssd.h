// rdsim/ssd/ssd.h
//
// Whole-drive simulator: typed host commands serviced through the FTL
// with per-block reliability tracking (P/E wear, data age, read disturb
// accumulated at the block's tuned Vpass) and the paper's daily
// maintenance loop — remap-based refresh, optional read reclaim, and
// per-block Vpass Tuning driven by the real VpassTuningController.
//
// The Ssd consumes host::Commands (read / write / trim; flush is a pure
// queue barrier handled by the host::Device facade) and reports the cost
// of each: flash busy seconds plus any inline-GC stall a write absorbed.
// It is driven as a host::SsdServicer shard of host::Device,
// which adds the NVMe-style submission/completion queue model on top.
//
// Error rates come from the analytic flash::RberModel; a per-cell Monte
// Carlo model would not scale to a drive. The same controller logic is
// exercised against the Monte Carlo chip via host::ChipServicer.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/vpass_tuning.h"
#include "ecc/ecc_model.h"
#include "flash/params.h"
#include "flash/rber_model.h"
#include "ftl/ftl.h"
#include "host/command.h"

namespace rdsim::ssd {

/// Flash operation latencies (shared vocabulary with the host layer).
using LatencyParams = host::LatencyParams;

struct SsdConfig {
  ftl::FtlConfig ftl;
  ecc::EccConfig ecc = ecc::EccConfig::paper_provisioning();
  bool vpass_tuning = true;        ///< Enable the mitigation mechanism.
  double worst_page_factor = 1.3;  ///< Worst page vs block mean RBER.
  core::VpassTuningOptions tuning;
  LatencyParams latency;
};

struct SsdStats {
  std::uint64_t days = 0;
  std::uint64_t uncorrectable_page_events = 0;  ///< Block-days where the
                                                ///< worst page exceeded the
                                                ///< full ECC capability.
  // Host-visible error-path outcomes (per page).
  std::uint64_t host_uncorrectable_pages = 0;  ///< Reads of blocks past
                                               ///< the ECC capability.
  std::uint64_t host_failed_writes = 0;        ///< Lost to program fails.
  std::uint64_t host_readonly_writes = 0;      ///< Rejected: read-only.
  std::uint64_t tuning_fallbacks = 0;
  double sum_vpass_reduction_pct = 0.0;  ///< Sum over tuned block-days.
  std::uint64_t tuned_block_days = 0;

  // Time accounting (seconds of flash busy time).
  double host_io_seconds = 0.0;       ///< Host reads + writes.
  double background_seconds = 0.0;    ///< GC + refresh + reclaim traffic.
  double tuning_probe_seconds = 0.0;  ///< Vpass Tuning probe reads (the
                                      ///< paper's §4 daily overhead).

  double mean_vpass_reduction_pct() const {
    return tuned_block_days == 0
               ? 0.0
               : sum_vpass_reduction_pct / static_cast<double>(tuned_block_days);
  }
  /// Mean tuning overhead per simulated day, in seconds.
  double tuning_seconds_per_day() const {
    return days == 0 ? 0.0 : tuning_probe_seconds / static_cast<double>(days);
  }
};

class Ssd {
 public:
  Ssd(const SsdConfig& config, const flash::FlashModelParams& params,
      std::uint64_t seed = 1);

  const SsdConfig& config() const { return config_; }
  const ftl::Ftl& ftl() const { return ftl_; }
  const SsdStats& stats() const { return stats_; }

  /// Services one typed host command (multi-page ranges wrap the logical
  /// space). Returns the command's flash cost: busy seconds for its own
  /// data movement, plus the inline-GC stall a write triggered.
  host::ServiceCost service(const host::Command& command);

  /// Nightly maintenance: refresh, read reclaim, GC, per-block Vpass
  /// tuning, reliability scan. Returns the flash busy seconds the
  /// maintenance consumed (background copies/erases + tuning probes), so
  /// the device facade can reserve the flash timeline for it.
  double end_of_day();

  /// Current worst-page RBER of a block (0 for blocks without data).
  double block_worst_rber(std::uint32_t b) const;

  /// Highest worst-page RBER across all blocks with valid data.
  double max_worst_rber() const;

  /// Accumulated disturb RBER of a block (sum over days of slope * reads
  /// at the Vpass in effect that day).
  double block_disturb_rber(std::uint32_t b) const { return disturb_rber_[b]; }

  /// Largest number of reads any block absorbed within one refresh
  /// interval so far (the limiting disturb pressure for endurance).
  std::uint64_t max_reads_per_interval() const {
    return max_reads_per_interval_;
  }

  /// Serializes the full mutable drive state — the embedded FTL snapshot
  /// plus the per-block reliability accumulators and stats — into a
  /// versioned, CRC32-protected buffer. A drive constructed with the same
  /// (config, params) and restored from it continues byte-identically.
  std::vector<std::uint8_t> snapshot() const;

  /// Restores a snapshot taken from an Ssd with the same configuration.
  /// Returns false — leaving the drive untouched — on truncation, CRC
  /// mismatch, bad magic/version, geometry mismatch, or trailing bytes;
  /// `*error` (optional) receives a one-line diagnostic.
  bool restore(const std::vector<std::uint8_t>& snapshot,
               std::string* error = nullptr);

 private:
  /// Detects blocks erased since the last scan and resets their
  /// reliability accumulators.
  void sync_block_epochs();
  /// Converts background FTL activity (GC/refresh/reclaim copies and
  /// erases) since the last call into seconds, accumulating the stat.
  double accrue_background();
  /// The read path's verdict block_worst_rber(b) > rber_capability(),
  /// recomputed only when block b's entry in read_verdicts_ no longer
  /// matches its inputs.
  bool read_uncorrectable(std::uint32_t b);

  /// Everything block_worst_rber(b) reads that can change, and the
  /// verdict it gave. The NaN day never compares equal, so a fresh entry
  /// always misses.
  struct ReadVerdict {
    std::uint32_t pe_cycles = 0;
    double program_day = 0.0;
    double now_days = std::numeric_limits<double>::quiet_NaN();
    double vpass = 0.0;
    double disturb_rber = 0.0;
    bool uncorrectable = false;
  };

  SsdConfig config_;
  flash::RberModel model_;
  ecc::EccModel ecc_;
  core::VpassTuningController controller_;
  ftl::Ftl ftl_;

  // Per-block reliability accumulators (parallel to FTL block table).
  std::vector<double> disturb_rber_;
  std::vector<std::uint64_t> reads_snapshot_;  ///< reads at last scan.
  std::vector<std::uint32_t> pe_seen_;         ///< epoch detector.
  std::vector<double> last_refresh_day_;
  /// Per-block read verdict memo: a cache keyed on its own inputs, so it
  /// needs no invalidation and stays out of snapshots.
  std::vector<ReadVerdict> read_verdicts_;

  std::uint64_t max_reads_per_interval_ = 0;
  // Counters for incremental background time accounting.
  std::uint64_t bg_writes_seen_ = 0;
  std::uint64_t erases_seen_ = 0;
  SsdStats stats_;
};

}  // namespace rdsim::ssd
