// rdsim/host/device.h
//
// host::Device: rdsim's one queued device — an NVMe-style host interface
// over N backend shards (one host::Servicer + one FlashTimeline per
// shard; servicer.h). Hosts submit typed Commands into submission queues
// and retrieve per-command Completion records through an explicit
// submit()/poll()/drain() model. The shard slot takes Monte Carlo chips
// (ChipServicer) and analytic drives (SsdServicer) alike, and a single
// drive or chip is simply the one-shard case (the global command reaches
// the lone servicer verbatim). host::make_device (factory.h) builds every
// cfg::Backend this way.
//
// Striping. Global lpn L (wrapped modulo logical_pages()) lives on shard
// L % shards at shard-local lpn L / shards — RAID-0 page striping, so a
// sequential multi-page command fans its pages out across shards and hot
// ranges spread evenly. The pages of one command landing on one shard
// are a single contiguous run in that shard's local space (consecutive
// matching global pages differ by `shards`, i.e. by one local page), so
// the device hands each shard exactly one de-striped local sub-command;
// within its shard a page maps exactly as on a one-shard drive (for a
// chip: block = local lpn / pages_per_block, LSB/MSB interleaved along
// the wordlines; see chip_servicer.h).
//
// Scheduling. Each shard owns an independent flash timeline: a command's
// per-shard portion starts at max(submit time, that shard's free time)
// and the shards never wait for each other — except at a flush, which is
// a cross-shard barrier (it completes when every shard finished all
// earlier work, and every shard's timeline advances to that point). A
// command's completion record combines its per-shard slots: service
// start is the earliest shard start, completion the latest shard
// completion, and stall the sum of the per-shard attributed stalls
// (which is also how the per-shard ledgers sum to the device total). The
// shards of one flush-free run are serviced concurrently on a
// common/thread_pool.h ThreadPool.
//
// Arbitration. Which pending command is serviced next is decided by the
// ArbitrationConfig (arbitration.h). Under the default FIFO policy
// commands are serviced oldest-first across the submission queues (NVMe
// round-robin arbitration degenerates to exactly this whenever producers
// feed the queues in global submission order, which all of rdsim's
// generators do). The tenant policies — round-robin across tenants,
// weighted fair queueing, earliest deadline first — reorder co-pending
// commands deterministically: every command's arbitration key is
// computed at submit() time as a pure function of the submission stream,
// so the service order never depends on when servicing happens. Flushes
// partition the stream into epochs (arbitration never reorders across a
// flush, which is what makes the flush barrier exact under every
// policy).
//
// Determinism. The completion log is a pure function of the submission
// stream — simulated clocks only, never the wall clock, the poll cadence
// or the worker count — which docs/ARCHITECTURE.md states as the
// determinism contract and tests/test_host.cc, tests/test_sharded_device.cc
// and tests/test_arbitration.cc pin. Three rules make it hold:
//   * Service order is final before servicing. poll() services only the
//     sorted prefix of pending commands that no future submission could
//     precede: each policy admits a monotone lower bound on all future
//     keys (per tenant: the next round index, the next virtual finish
//     time, the newest submit time + deadline). drain(), end_of_day(),
//     stats() and reset_stats() service everything — they are
//     synchronization points of the submission stream, like a flush.
//     Under FIFO every pending command is always final.
//   * Shards are independent. Shard assignment is a pure function of the
//     lpn and each shard services its sub-stream in service order against
//     its own timeline; worker threads only decide where a shard's
//     (single-threaded) work runs. The per-shard records merge into one
//     log ordered by (complete_time, id) — completion_log_order.
//   * Log positions are final before delivery. Completion times are not
//     monotone in submission order, so poll() withholds a serviced record
//     until nothing can still slot in before it: it must complete no
//     later than the newest submit stamp seen (submit() keeps stamps
//     non-decreasing, and a later command wins no tie — its id is
//     larger), and strictly before the earliest submit stamp of any
//     command a reordering policy left queued. The released records form
//     a prefix of the merged log that is never overtaken, so each pump
//     merges its fresh records behind that prefix. drain() delivers
//     everything.
// Polling cadences that end in one drain therefore all observe the
// identical log, at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "host/arbitration.h"
#include "host/command.h"
#include "host/servicer.h"
#include "host/stats.h"
#include "host/timeline.h"

namespace rdsim::host {

class Device {
 public:
  /// One Servicer per shard, all exporting the same local page count
  /// (std::invalid_argument naming the offending shard otherwise, or for
  /// an empty set), serviced on a min(workers, shards)-wide pool; results
  /// never depend on the worker count. `queue_count` >= 1 submission
  /// queues (command.queue is taken modulo this count, so any router
  /// works against any device width).
  Device(std::vector<std::unique_ptr<Servicer>> shards, int workers = 1,
         std::uint32_t queue_count = 1);

  /// A one-shard drive: the lone servicer sees every command verbatim and
  /// everything runs on the calling thread.
  explicit Device(std::unique_ptr<Servicer> servicer,
                  std::uint32_t queue_count = 1);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  std::uint32_t queue_count() const { return queue_count_; }

  /// Installs the arbitration policy and tenant table. Must be called
  /// while nothing is queued — before the first submit(), or right after
  /// a drain() (e.g. between warm_fill and the measured workload);
  /// throws std::logic_error while unserviced commands are pending.
  /// Arbitration keys are assigned at submission, so keys from different
  /// policies are incomparable and a mid-stream change would make the
  /// service order depend on *when* the change happened. The default
  /// (FIFO, one tenant) reproduces the pre-tenant device bit-for-bit.
  void set_arbitration(const ArbitrationConfig& config);
  const ArbitrationConfig& arbitration() const { return arb_; }

  /// Tenants the device distinguishes (>= 1; command.tenant is taken
  /// modulo this count).
  std::uint32_t tenant_count() const { return arb_.tenant_count(); }

  /// Exported logical space, in pages.
  std::uint64_t logical_pages() const {
    return shard_count() * shards_.front().servicer->logical_pages();
  }

  /// Enqueues one command; returns its device-assigned sequence id.
  /// Servicing is lazy (poll/drain/stats/end_of_day trigger it), but the
  /// schedule a command receives does not depend on when that happens.
  /// Submit stamps must not decrease: a stamp older than one already
  /// submitted is clamped up to the newest (and counted, see
  /// clamped_submits()), because poll finality and background-window
  /// pruning both rely on it.
  std::uint64_t submit(const Command& command);

  /// Commands whose submit stamp submit() had to clamp.
  std::uint64_t clamped_submits() const { return clamped_submits_; }

  /// Moves up to `max_completions` completion records (log order) into
  /// `out` (appended); returns how many were delivered. Records whose log
  /// position could still change are withheld (see the header comment);
  /// drain() always delivers everything.
  std::size_t poll(std::vector<Completion>* out, std::size_t max_completions);

  /// Drains every pending completion into `out`; returns the count.
  std::size_t drain(std::vector<Completion>* out);

  /// Runs each shard's nightly maintenance (refresh, reclaim, tuning,
  /// retention aging) after servicing everything queued; the flash busy
  /// time it consumes occupies the next free window of that shard's
  /// timeline.
  void end_of_day();

  /// Aggregate completion statistics (services any still-queued commands
  /// first so the numbers cover everything submitted so far).
  const CompletionStats& stats();

  /// Forgets accumulated statistics and the per-shard stall ledgers in the
  /// same stroke (after servicing anything queued), so a measurement
  /// window can exclude warm-up traffic and the ledgers keep summing to
  /// the total. Undelivered completions, ids and the flash timelines are
  /// untouched.
  void reset_stats();

  /// Commands submitted but not yet delivered through poll()/drain().
  std::size_t outstanding() const { return submitted_ - delivered_; }

  /// Current simulated time: end of the last scheduled work across the
  /// shards' timelines.
  double now_s() const;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  int worker_count() const { return pool_.thread_count(); }

  /// Which shard owns global page `lpn`, and its address there.
  std::uint32_t shard_of(std::uint64_t lpn) const {
    return static_cast<std::uint32_t>(lpn % shard_count());
  }
  std::uint64_t local_lpn(std::uint64_t lpn) const {
    return lpn / shard_count();
  }

  /// The backend seed shard `shard` of a multi-shard drive derives from
  /// the drive seed (exposed so callers can build the shards by hand).
  static std::uint64_t shard_seed(std::uint64_t seed, std::uint32_t shard);

  /// Shard `shard`'s backend engine, for backend-specific setup and
  /// statistics (callers downcast to the concrete Servicer they
  /// constructed, e.g. SsdServicer for the analytic ssd::Ssd).
  Servicer& shard_servicer(std::uint32_t shard) {
    return *shards_[shard].servicer;
  }
  const Servicer& shard_servicer(std::uint32_t shard) const {
    return *shards_[shard].servicer;
  }

  /// Shard `shard`'s chip, for characterization-level setup (pre-wear,
  /// retention aging) between queued operations. Monte-Carlo shards
  /// only — analytic shards have no chip.
  nand::Chip& shard_chip(std::uint32_t shard) {
    return *shards_[shard].servicer->mc_chip();
  }

  /// Per-shard attributed stall ledger: every stall second a completion
  /// carries is booked to the shard that caused it, so background
  /// interference can be localized to a chip. Sums to the device's stall
  /// total; cleared by reset_stats().
  double shard_stall_seconds(std::uint32_t shard) const {
    return shards_[shard].stall_seconds;
  }
  std::uint64_t shard_pages_read(std::uint32_t shard) const {
    return shards_[shard].servicer->pages_read();
  }
  std::uint64_t shard_read_bit_errors(std::uint32_t shard) const {
    return shards_[shard].servicer->read_bit_errors();
  }
  /// Shard `shard`'s error-path attribution (ladder step counts,
  /// recovery seconds, write failures).
  ErrorStats shard_error_stats(std::uint32_t shard) const {
    return shards_[shard].servicer->error_stats();
  }
  /// Whole-device error-path attribution (sum over shards).
  ErrorStats error_stats() const;

  /// Whole-device totals (sums over shards).
  std::uint64_t read_bit_errors() const;
  std::uint64_t pages_read() const;
  std::uint64_t pages_written() const;
  std::uint64_t block_rewrites() const;

 private:
  struct Submitted {
    Command command;
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;  ///< Flushes submitted before this command.
    double key = 0.0;         ///< Policy key within the epoch.
  };

  struct Shard {
    std::unique_ptr<Servicer> servicer;
    FlashTimeline timeline;
    double stall_seconds = 0.0;
  };

  /// One command's landing on one shard.
  struct SubResult {
    double start_s = 0.0;
    double complete_s = 0.0;
    double stall_s = 0.0;
    std::uint32_t error_pages = 0;
    Status status = Status::kOk;
    bool present = false;  ///< False: the command has no page here.
  };

  /// A command's first page, wrapped into the logical space, and its shard.
  struct Start {
    std::uint64_t lpn = 0;
    std::uint32_t shard = 0;
  };

  /// The deterministic service order: (epoch, key, tenant, id). Total —
  /// ids are unique — and under FIFO identical to id order.
  static bool arbitration_order(const Submitted& a, const Submitted& b);

  /// True when no future submission could precede `sub` in the service
  /// order (its position is final). Pure function of the submission
  /// stream so far, and monotone: once final, always final.
  bool order_final(const Submitted& sub) const;

  /// Pops queued commands in arbitration order. With force, every
  /// pending command; without, only the prefix whose service order no
  /// future submission could change (under FIFO that is everything).
  std::vector<Submitted> take_pending(bool force);

  /// Services the taken commands and merges their records into held_
  /// behind the released prefix. poll() passes force = false (only the
  /// order-final prefix is serviced); drain/stats/end_of_day/reset_stats
  /// pass force = true.
  void pump(bool force);

  /// Extends the released prefix of held_ over every record whose log
  /// position is final.
  void release_ready();

  /// Services pending[begin, end) — a flush-free run — across the shards
  /// on the pool, then merges the per-shard slots into one Completion per
  /// command, added to the statistics and appended to `out` in service
  /// order.
  void service_segment(const std::vector<Submitted>& pending,
                       std::size_t begin, std::size_t end,
                       std::vector<Completion>* out);

  /// Cross-shard barrier: completes when every shard finished all earlier
  /// work; every shard's timeline advances to the barrier. The returned
  /// record is already added to the statistics.
  Completion service_flush(const Submitted& sub);

  ArbitrationConfig arb_;
  std::uint32_t queue_count_;
  std::vector<Submitted> pending_;  ///< Unserviced commands, id order.
  CompletionStats stats_;
  std::vector<std::uint64_t> rr_round_;     ///< Per-tenant round index.
  std::vector<double> virtual_finish_;      ///< Per-tenant WFQ clock.
  std::uint64_t flush_epoch_ = 0;
  double max_submit_s_ = 0.0;
  std::uint64_t clamped_submits_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t delivered_ = 0;

  std::vector<Shard> shards_;
  ThreadPool pool_;
  /// Serviced, undelivered completions in log order (completion_log_order).
  /// The first `released_` are final and deliverable; the rest wait until
  /// release_ready() finds their position final.
  std::vector<Completion> held_;
  std::size_t released_ = 0;
  /// Per-segment scratch: sub_results_[cmd * shards + shard], starts_[cmd].
  std::vector<SubResult> sub_results_;
  std::vector<Start> starts_;
};

}  // namespace rdsim::host
