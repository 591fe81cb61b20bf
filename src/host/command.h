// rdsim/host/command.h
//
// The host-facing command vocabulary of the NVMe-style queued interface:
// a typed Command (read / write / trim / flush over an LBA range, stamped
// with its submission queue and arrival time) and the per-command
// Completion record the device hands back (service start, completion
// time, and how much of the latency was a background-induced stall).
// This header is dependency-free on purpose: every layer from the
// workload generators up to the device backends speaks these types
// without pulling in the drive model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rdsim::host {

/// The command set a flash drive's host interface exposes. Trim unmaps an
/// LBA range without writing it (the space stops being relocated by GC /
/// refresh); flush is an ordering barrier that completes only when every
/// previously submitted command has completed.
enum class CommandKind : std::uint8_t { kRead, kWrite, kTrim, kFlush };

/// Short lowercase name ("read", "write", "trim", "flush").
const char* command_kind_name(CommandKind kind);

/// Outcome of a command, ordered by severity so a multi-page (or
/// multi-shard) command's status is the numeric max over its parts:
///   kOk            — clean; reads sensed zero raw bit errors.
///   kCorrected     — ECC corrected raw errors within the normal sense.
///   kRecovered     — data came back only after escalation (read-retry
///                    re-read or the paper's §4 read-disturb recovery).
///   kUncorrectable — every recovery step failed; the host got garbage.
///   kFailedWrite   — a program failed and the data could not be
///                    relocated (grown defect with no healthy destination).
///   kReadOnly      — the drive is in read-only mode (spare blocks
///                    exhausted); the write was rejected, not attempted.
enum class Status : std::uint8_t {
  kOk = 0,
  kCorrected = 1,
  kRecovered = 2,
  kUncorrectable = 3,
  kFailedWrite = 4,
  kReadOnly = 5,
};

inline constexpr std::size_t kStatusCount = 6;

/// Short lowercase name ("ok", "corrected", "recovered", "uncorrectable",
/// "failed_write", "read_only").
const char* status_name(Status status);

/// Severity merge: the worse of two statuses (the enum is
/// severity-ordered, so this is the numeric max).
inline Status worst_status(Status a, Status b) { return a < b ? b : a; }

/// One host command, page-granular.
struct Command {
  CommandKind kind = CommandKind::kRead;
  std::uint64_t lpn = 0;         ///< First logical page of the range.
  std::uint32_t pages = 1;       ///< Range length (ignored for flush).
  std::uint16_t queue = 0;       ///< Submission queue (mod queue count).
  std::uint16_t tenant = 0;      ///< Owning tenant (mod tenant count);
                                 ///< 0 on single-tenant devices.
  double submit_time_s = 0.0;    ///< Host-side arrival time.
};

/// Flash operation latencies used by the device backends' time accounting.
struct LatencyParams {
  double read_s = 75e-6;      ///< Page read (tR).
  double program_s = 1.3e-3;  ///< Page program (tProg).
  double erase_s = 3.5e-3;    ///< Block erase (tBERS).
};

/// What servicing one command cost the backend: flash busy time for the
/// command's own data movement, plus any stall it induced or absorbed
/// (inline garbage collection triggered by a write, block turnover), plus
/// the command's outcome (worst page status and how many pages were lost).
struct ServiceCost {
  double busy_s = 0.0;
  double stall_s = 0.0;
  Status status = Status::kOk;     ///< Worst per-page outcome.
  std::uint32_t error_pages = 0;   ///< Pages that came back uncorrectable
                                   ///< or failed to persist.
};

/// Per-command completion record, posted to the completion queue.
struct Completion {
  std::uint64_t id = 0;        ///< Device-assigned sequence number.
  CommandKind kind = CommandKind::kRead;
  std::uint16_t queue = 0;     ///< Submission queue the command used.
  std::uint16_t tenant = 0;    ///< Owning tenant (after the device's
                               ///< modulo mapping).
  std::uint64_t lpn = 0;
  std::uint32_t pages = 1;
  double submit_time_s = 0.0;
  double service_start_s = 0.0;  ///< When the flash began the command.
  double complete_time_s = 0.0;
  double stall_s = 0.0;  ///< Share of the latency attributed to background
                         ///< work (GC, maintenance) rather than the
                         ///< command's own transfer.
  Status status = Status::kOk;    ///< Worst per-page outcome.
  std::uint32_t error_pages = 0;  ///< Uncorrectable / lost pages.

  double latency_s() const { return complete_time_s - submit_time_s; }
  double queue_wait_s() const { return service_start_s - submit_time_s; }
};

/// Canonical single-line rendering of a completion record. The host
/// determinism tests compare completion logs byte-for-byte through this.
std::string to_string(const Completion& completion);

/// The deterministic completion-log order: (complete_time, submit id).
/// host::Device sorts its merged log with this, and its closed-loop
/// replay frees slots in this order — keep the two on one definition.
inline bool completion_log_order(const Completion& a, const Completion& b) {
  return a.complete_time_s != b.complete_time_s
             ? a.complete_time_s < b.complete_time_s
             : a.id < b.id;
}

}  // namespace rdsim::host
