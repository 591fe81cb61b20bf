// rdsim/host/servicer.h
//
// Servicer: the backend slot of host::Device, rdsim's one device
// engine. One Servicer is one shard's drive engine — it performs the
// data movement of commands whose lpn ranges are local to the shard and
// reports each command's ServiceCost; the device owns scheduling (one
// FlashTimeline per shard), stall attribution, and the deterministic
// merge of the per-shard completion records.
//
// Two implementations exist: ChipServicer (chip_servicer.h), the
// Monte-Carlo per-cell engine over one nand::Chip, and SsdServicer
// (ssd_servicer.h), the analytic whole-drive engine over one ssd::Ssd —
// so the same RAID-0 N-way scaling serves both fidelities, and a single
// drive or chip is the one-shard case. The contract either must honor:
//
//   * service() iterates the command's pages in ascending range order,
//     wrapping each page modulo logical_pages() (the caller de-stripes a
//     global command into one contiguous local range per shard, so a
//     one-shard device hands its servicer the global command verbatim).
//   * service() is deterministic: seeded RNG only, and it reads only the
//     command's kind, lpn and pages — never its submit stamp or any
//     clock — so a command's cost depends only on the commands serviced
//     before it on this shard. The merged completion log stays a pure
//     function of the submission stream for any worker count, and the
//     device may run a closed-loop batch's physics before its stamps
//     are known.
//   * end_of_day() runs the backend's nightly maintenance and returns
//     the flash busy seconds it consumed; the device reserves the
//     shard's timeline for them (0.0 = maintenance costs no flash time,
//     e.g. pure retention aging on a raw chip).
#pragma once

#include <cstdint>

#include "host/command.h"

namespace rdsim::nand {
class Chip;
}  // namespace rdsim::nand

namespace rdsim::host {

/// Per-step attribution of the read error path and the write failure
/// path, kept by each backend and mirrored per shard by host::Device.
/// Read counters partition the serviced page reads by how far down the
/// escalation ladder each one had to go; the seconds fields are the flash
/// busy time the recovery steps charged to the timeline (so recovery cost
/// is visible both in the tail latencies and here, attributed).
struct ErrorStats {
  std::uint64_t reads_ok = 0;               ///< Zero raw bit errors.
  std::uint64_t reads_corrected = 0;        ///< ECC decoded the sense.
  std::uint64_t reads_retry_recovered = 0;  ///< Read-retry re-read decoded.
  std::uint64_t reads_rdr_recovered = 0;    ///< §4 RDR decoded.
  std::uint64_t reads_uncorrectable = 0;    ///< Whole ladder failed.
  std::uint64_t retry_attempts = 0;         ///< Retry scans performed.
  std::uint64_t rdr_attempts = 0;           ///< RDR invocations.
  std::uint64_t writes_failed = 0;          ///< Programs that lost data.
  std::uint64_t writes_rejected_read_only = 0;  ///< Rejected: read-only.
  double retry_seconds = 0.0;  ///< Flash busy time charged to retry scans.
  double rdr_seconds = 0.0;    ///< Flash busy time charged to RDR.

  ErrorStats& operator+=(const ErrorStats& o) {
    reads_ok += o.reads_ok;
    reads_corrected += o.reads_corrected;
    reads_retry_recovered += o.reads_retry_recovered;
    reads_rdr_recovered += o.reads_rdr_recovered;
    reads_uncorrectable += o.reads_uncorrectable;
    retry_attempts += o.retry_attempts;
    rdr_attempts += o.rdr_attempts;
    writes_failed += o.writes_failed;
    writes_rejected_read_only += o.writes_rejected_read_only;
    retry_seconds += o.retry_seconds;
    rdr_seconds += o.rdr_seconds;
    return *this;
  }
};

class Servicer {
 public:
  virtual ~Servicer() = default;

  /// Logical pages this shard exports.
  virtual std::uint64_t logical_pages() const = 0;

  /// Performs the data movement of one command local to this shard (lpn
  /// wrapped modulo logical_pages(), pages iterated in order) and returns
  /// its flash cost. Flush never reaches a Servicer — barrier semantics
  /// live in the device layer.
  virtual ServiceCost service(const Command& command) = 0;

  /// Nightly maintenance; returns the flash busy seconds it consumed so
  /// the device can reserve the shard's timeline.
  virtual double end_of_day() = 0;

  // Observability counters for per-shard attribution rows. Semantics per
  // backend: on the MC chip, read_bit_errors counts raw sensed bit errors
  // and block_rewrites counts log-structured turnover erases; on the
  // analytic drive, read_bit_errors is 0 (errors are closed-form rates,
  // not sensed bits) and block_rewrites counts FTL erases (GC + refresh +
  // reclaim).
  virtual std::uint64_t pages_read() const = 0;
  virtual std::uint64_t pages_written() const = 0;
  virtual std::uint64_t read_bit_errors() const { return 0; }
  virtual std::uint64_t block_rewrites() const { return 0; }

  /// Error-path attribution (ladder step counts, recovery seconds, write
  /// failures). Backends without an error path report all-zero.
  virtual ErrorStats error_stats() const { return {}; }

  /// The underlying Monte Carlo chip for characterization-level setup
  /// (pre-wear, retention aging) — nullptr on backends without one.
  virtual nand::Chip* mc_chip() { return nullptr; }
};

}  // namespace rdsim::host
