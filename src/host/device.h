// rdsim/host/device.h
//
// host::Device: rdsim's one queued device — an NVMe-style host interface
// over N backend shards (one host::Servicer + one FlashTimeline per
// shard; servicer.h). Hosts submit typed Commands into submission queues
// and retrieve per-command Completion records through an explicit
// submit()/drain() model. The shard slot takes Monte Carlo chips
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
// Servicing has two halves. The physics half de-stripes each command
// and runs its per-shard sub-commands through the servicers, one pool
// task per shard, recording each landing's ServiceCost; it reads no
// clock, since a servicer's cost depends only on the order of the
// commands before it on its shard. The timing half places those costs
// on the shards' timelines in service order: each shard owns an
// independent flash timeline, a command's per-shard portion starts at
// max(submit time, that shard's free time), and the shards never wait
// for each other — except at a flush, which is a cross-shard barrier (it
// completes when every shard finished all earlier work, and every
// shard's timeline advances to that point) and which the physics half
// skips. A command's completion record combines its per-shard slots:
// service start is the earliest shard start, completion the latest
// shard completion, and stall the sum of the per-shard attributed
// stalls (which is also how the per-shard ledgers sum to the device
// total). Every pump runs physics over everything it took, then timing;
// an all-analytic device runs a physics pass over fewer than 64 commands
// on the calling thread, since a pool wake would cost more than its
// physics.
// run_closed_loop() runs physics over a whole closed-loop batch up
// front — its per-shard order is fixed before any stamp is known — and
// then timing serially as each freed slot yields the next stamp.
// run_burst_windows() does the same for burst windows: under every
// policy whose keys never read the stamp it runs physics over up to
// 4096 commands of whole windows in one pass, then stamps and times the
// windows one by one, each at its predecessor's last completion.
//
// Arbitration. Which pending command is serviced next is decided by the
// ArbitrationConfig (arbitration.h). Under the default FIFO policy
// commands are serviced oldest-first across the submission queues (NVMe
// round-robin arbitration degenerates to exactly this whenever producers
// feed the queues in global submission order, which all of rdsim's
// generators do). The tenant policies — round-robin across tenants,
// weighted fair queueing, earliest deadline first — reorder co-pending
// commands deterministically: every command's arbitration key is
// computed at submit() time as a pure function of the submission stream
// (admit()), and each sync point services everything queued in key
// order. Flushes partition the stream into epochs (arbitration never
// reorders across a flush, which is what makes the flush barrier exact
// under every policy).
//
// Determinism. The completion log is a pure function of the submission
// stream and its sync points — simulated clocks only, never the wall
// clock or the worker count — which docs/ARCHITECTURE.md states as the
// determinism contract and tests/test_host.cc, tests/test_sharded_device.cc
// and tests/test_arbitration.cc pin. Two rules make it hold:
//   * Commands are serviced only at synchronization points. submit()
//     only queues; drain(), end_of_day(), stats() and reset_stats()
//     service everything queued, in arbitration order. Only drain()
//     delivers queued records: every serviced one, in
//     completion_log_order. run_closed_loop() and run_burst_windows()
//     start and end quiet: they service and deliver a whole batch of
//     their own, each window or slot in the order a drain would give it.
//   * Shards are independent. Shard assignment is a pure function of the
//     lpn and each shard services its sub-stream in service order against
//     its own timeline; worker threads only decide where a shard's
//     (single-threaded) work runs. The per-shard records merge into one
//     log ordered by (complete_time, id) — completion_log_order.
// Under FIFO the service order is id order whatever the sync points, so
// every drain cadence yields the same records, at any worker count.
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
  /// Servicing is lazy (drain/stats/end_of_day trigger it). Submit
  /// stamps must not decrease: a stamp older than one already submitted
  /// is clamped up to the newest (and counted, see clamped_submits()),
  /// because FlashTimeline prunes its background windows on that
  /// assumption.
  std::uint64_t submit(const Command& command);

  /// Commands whose submit stamp submit() had to clamp.
  std::uint64_t clamped_submits() const { return clamped_submits_; }

  /// Services everything queued and appends every undelivered completion
  /// record to `out` in log order (completion_log_order); returns the
  /// count. The only call that delivers records.
  std::size_t drain(std::vector<Completion>* out);

  /// Closed-loop (zero think time) replay of one batch at queue depth
  /// `depth` (0 counts as 1): at most `depth` commands are in flight, the
  /// first window is stamped `release_s`, and each later command is
  /// stamped with the completion that freed its slot — the earliest one
  /// in flight, in completion_log_order. The caller's stamps are
  /// ignored. Every record is added to the statistics and, when `sink` is
  /// non-null, appended to it: the first window in log order, then each
  /// later record in submission order. Returns the clock for the next
  /// batch, the later of `release_s` and the batch's last completion.
  /// The device must be quiet — std::logic_error while any command is
  /// outstanding — and is quiet again afterwards.
  double run_closed_loop(const std::vector<Command>& commands,
                         std::size_t depth, double release_s,
                         std::vector<Completion>* sink);

  /// Burst-window replay of one batch: the commands in windows of
  /// `window` (0 counts as 1; the last may be short), every command of a
  /// window stamped with the window's clock, the first window's being
  /// `clock_s` and each later one's the last completion of the window
  /// before it (never earlier than the clock before that). The caller's
  /// stamps are ignored; a clock older than the newest submitted stamp is
  /// clamped and counted as submit() would. Each window is serviced as one
  /// co-pending set in arbitration order, exactly as submitting it and
  /// calling drain() would. Every record is added to the statistics and,
  /// when `sink` is non-null, appended to it window by window, each
  /// window in log order. Returns the clock for the next batch. The
  /// device must be quiet — std::logic_error while any command is
  /// outstanding — and is quiet again afterwards.
  double run_burst_windows(const std::vector<Command>& commands,
                           std::size_t window, double clock_s,
                           std::vector<Completion>* sink);

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

  /// Commands submitted but not yet delivered by drain() (servicing
  /// through stats() or end_of_day() delivers nothing).
  std::size_t outstanding() const { return submitted_ - delivered_; }

  /// Current simulated time: end of the last scheduled work across the
  /// shards' timelines.
  double now_s() const;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

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
    /// Physics scratch, reused across passes: costs[k] for the k-th
    /// command of the last pass, written only where it lands. One vector
    /// per shard, so the pool's workers never write the same cache line.
    std::vector<ServiceCost> costs;
  };

  /// A command's first page, wrapped into the logical space, and its shard.
  struct Start {
    std::uint64_t lpn = 0;
    std::uint32_t shard = 0;
  };

  /// The deterministic service order of the reordering policies: (epoch,
  /// key, tenant, id). Total — ids are unique. FIFO does not sort: its
  /// service order is id order (take_pending).
  static bool arbitration_order(const Submitted& a, const Submitted& b);

  /// Pops every queued command, in arbitration order.
  std::vector<Submitted> take_pending();

  /// Services every queued command and merges the records into held_.
  void pump();

  /// Clamps a submit stamp up to the newest one submitted (counting the
  /// clamp, see clamped_submits()) and makes it the newest.
  double stamp(double submit_s);

  /// submit()'s bookkeeping, shared with the batch runners: copies the
  /// command with submit stamp `submit_s`, maps queue and tenant into
  /// range and assigns the id, flush epoch and arbitration key. The
  /// command is not queued. Only a deadline key reads the stamp, so under
  /// deadline `submit_s` must already be stamp()ed; under the other
  /// policies the stamp may be set later.
  Submitted admit(const Command& command, double submit_s);

  /// Physics half: de-stripes commands [0, n) — command_at(k), in service
  /// order — and services every landing on its shard's servicer into
  /// that shard's costs: one pool task per shard, or shard by shard on the
  /// calling thread when every shard is analytic and n <
  /// kInlinePumpCommands.
  /// Flushes carry no physics and are skipped.
  template <typename CommandAt>
  void service_physics(std::size_t n, const CommandAt& command_at);

  /// Timing half for the k-th command of the last physics pass: schedules
  /// its landings' costs on their shards' timelines at its submit stamp,
  /// books the stalls, merges the slots into one record and adds it to
  /// the statistics. A flush is the cross-shard barrier (service_flush).
  Completion service_timing(const Submitted& sub, std::size_t k);

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
  /// No shard has a Monte Carlo chip (Servicer::mc_chip() is null): a
  /// small physics pass is too cheap to hand to the pool
  /// (service_physics()).
  bool analytic_ = true;
  ThreadPool pool_;
  /// Serviced, undelivered completions in log order (completion_log_order);
  /// run_burst_windows keeps each window's records here until delivery.
  std::vector<Completion> held_;
  /// Physics scratch, reused across passes: starts_[cmd].
  std::vector<Start> starts_;
  /// run_closed_loop scratch: the in-flight records, a min-heap in
  /// completion_log_order.
  std::vector<Completion> in_flight_;
  /// run_burst_windows scratch: one chunk's admitted commands, each window
  /// in service order. Kept across calls, as the other scratch is, so a
  /// replay does not allocate and free a chunk per call.
  std::vector<Submitted> ahead_;
};

}  // namespace rdsim::host
