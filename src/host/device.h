// rdsim/host/device.h
//
// The unified device facade: an NVMe-style queued host interface over the
// repository's drive backends (the analytic ssd::Ssd and the Monte Carlo
// nand::Chip, single-chip or sharded across many). Hosts submit typed
// Commands into N submission queues and retrieve per-command Completion
// records from a completion queue via an explicit submit()/poll()/drain()
// model.
//
// Arbitration and determinism. Which pending command is serviced next is
// decided by the device's ArbitrationConfig (arbitration.h). Under the
// default FIFO policy commands are serviced oldest-first across the
// submission queues (NVMe round-robin arbitration degenerates to exactly
// this whenever producers feed the queues in global submission order,
// which all of rdsim's generators do). The tenant policies — round-robin
// across tenants, weighted fair queueing, earliest deadline first —
// reorder co-pending commands, and they do it deterministically: every
// command's arbitration key is computed at submit() time as a pure
// function of the submission stream, so the service order never depends
// on when servicing happens. Flushes partition the stream into epochs
// (arbitration never reorders across a flush, which is what makes the
// flush barrier exact under every policy).
//
// Poll-cadence independence under reordering needs one extra rule: a
// poll() may only service commands whose position in the final service
// order is already decided — i.e. commands no future submission could
// precede. Each policy admits a monotone lower bound on all future keys
// (per tenant: the next round index, the next virtual finish time, the
// newest-submit-time + deadline), so the device services the sorted
// prefix below that bound on poll() and everything on drain() /
// end_of_day() / stats() (which wait for the device to quiesce, so they
// finalize the pending order — a drain is a synchronization point of the
// submission stream, like a flush). Under FIFO every pending command is
// always final and this machinery is inert: the service schedule is a
// pure function of the submission stream — simulated clocks only, never
// the wall clock, the poll cadence, or the worker thread count — so the
// completion log is byte-identical no matter how often the host polls or
// how many threads a sharded backend uses: the determinism contract
// documented in docs/ARCHITECTURE.md and enforced by tests/test_host.cc,
// tests/test_sharded_device.cc and tests/test_arbitration.cc.
//
// Class split:
//   * Device        — the abstract facade: submission queues, completion
//                     queue, arbitration keys, statistics, id assignment,
//                     the monotone-stamp rule. Knows nothing about time.
//   * ShardedDevice — the one engine: N servicers (N = 1 for a single
//                     drive or chip), N timelines, deterministic merge
//                     (sharded_device.h).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "host/arbitration.h"
#include "host/command.h"
#include "host/stats.h"

namespace rdsim::host {

class Device {
 public:
  /// `queue_count` >= 1 submission queues (command.queue is taken modulo
  /// this count, so any router works against any device width).
  explicit Device(std::uint32_t queue_count);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  std::uint32_t queue_count() const { return queue_count_; }

  /// Installs the arbitration policy and tenant table. Must be called
  /// while nothing is queued — before the first submit(), or right after
  /// a drain() (e.g. between warm_fill and the measured workload):
  /// arbitration keys are assigned at submission, so keys from different
  /// policies are incomparable and a mid-stream change would make the
  /// service order depend on *when* the change happened. The default
  /// (FIFO, one tenant) reproduces the pre-tenant device bit-for-bit.
  void set_arbitration(const ArbitrationConfig& config);
  const ArbitrationConfig& arbitration() const { return arb_; }

  /// Tenants the device distinguishes (>= 1; command.tenant is taken
  /// modulo this count).
  std::uint32_t tenant_count() const { return arb_.tenant_count(); }

  /// Exported logical space of the backend, in pages.
  virtual std::uint64_t logical_pages() const = 0;

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

  /// Moves up to `max_completions` completion records (oldest first) into
  /// `out` (appended); returns how many were delivered. A backend may
  /// withhold records whose position in the deterministic log could still
  /// change (see ShardedDevice); drain() always delivers everything.
  std::size_t poll(std::vector<Completion>* out, std::size_t max_completions);

  /// Drains every pending completion into `out`; returns the count.
  std::size_t drain(std::vector<Completion>* out);

  /// Runs the backend's nightly maintenance (refresh, reclaim, tuning,
  /// retention aging) after servicing everything queued.
  void end_of_day();

  /// Aggregate completion statistics (services any still-queued commands
  /// first so the numbers cover everything submitted so far).
  const CompletionStats& stats();

  /// Forgets accumulated statistics (after servicing anything queued) so
  /// a measurement window can exclude warm-up traffic. The completion
  /// queue, ids, and the flash timelines are untouched. Virtual so
  /// backends with side ledgers (ShardedDevice's per-shard stall
  /// accounting) reset them in the same stroke.
  virtual void reset_stats();

  /// Commands submitted but not yet delivered through poll()/drain().
  std::size_t outstanding() const { return submitted_ - delivered_; }

  /// Current simulated time: end of the last scheduled work across the
  /// backend's timeline(s).
  virtual double now_s() const = 0;

 protected:
  struct Submitted {
    Command command;
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;  ///< Flushes submitted before this command.
    double key = 0.0;         ///< Policy key within the epoch.
  };

  /// Backend hook: service queued commands (pull them with
  /// take_pending()), record() each completion, and make delivered
  /// records available via deliver(). Called by poll (force = false: only
  /// the order-final prefix may be serviced) and by drain/stats/
  /// end_of_day (force = true: service everything) before they act.
  virtual void pump(bool force) = 0;

  /// Backend hook: nightly maintenance, run after pump().
  virtual void run_end_of_day() = 0;

  /// Backend hook: called after pump() by poll (drain_all = false) and
  /// drain (drain_all = true) to deliver() every serviced record whose
  /// log position is final (everything, for a drain).
  virtual void release_ready(bool drain_all) = 0;

  /// Pops queued commands in arbitration order. With force, every
  /// pending command; without, only the prefix whose service order no
  /// future submission could change (under FIFO that is everything).
  std::vector<Submitted> take_pending(bool force);

  /// True while commands sit in the submission queues unserviced (a
  /// cadence-limited take_pending(false) may leave some behind).
  bool has_pending() const { return !pending_.empty(); }

  /// Newest submit time seen across all submissions (no later command is
  /// stamped earlier, see submit()); backends use it to decide which
  /// completions' log positions are final.
  double max_submit_seen_s() const { return max_submit_s_; }

  /// Earliest submit time among still-unserviced commands (meaningful
  /// only while has_pending()): no unserviced command can complete
  /// before it, so completions strictly earlier are final.
  double min_pending_submit_s() const;

  /// Accounts a serviced command in the statistics.
  void record(const Completion& completion) { stats_.add(completion); }

  /// Appends a record to the completion queue (the delivery order).
  void deliver(const Completion& completion) {
    completion_queue_.push_back(completion);
  }

 private:
  /// The deterministic service order: (epoch, key, tenant, id). Total —
  /// ids are unique — and under FIFO identical to id order.
  static bool arbitration_order(const Submitted& a, const Submitted& b);

  /// True when no future submission could precede `sub` in the service
  /// order (its position is final). Pure function of the submission
  /// stream so far, and monotone: once final, always final.
  bool order_final(const Submitted& sub) const;

  ArbitrationConfig arb_;
  std::uint32_t queue_count_;
  std::vector<Submitted> pending_;  ///< Unserviced commands, id order.
  std::deque<Completion> completion_queue_;
  CompletionStats stats_;
  std::vector<std::uint64_t> rr_round_;     ///< Per-tenant round index.
  std::vector<double> virtual_finish_;      ///< Per-tenant WFQ clock.
  std::uint64_t flush_epoch_ = 0;
  double max_submit_s_ = 0.0;
  std::uint64_t clamped_submits_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace rdsim::host
