// rdsim/host/sharded_device.h
//
// host::ShardedDevice: rdsim's one queued-device engine. It stripes the
// logical page space across N backend shards (one host::Servicer + one
// FlashTimeline per shard) and services the shards concurrently on a
// common/thread_pool.h ThreadPool — the host-layer instantiation of the
// same determinism contract sim::ExperimentRunner gives the experiments.
// The shard slot is the Servicer interface (servicer.h): Monte Carlo
// chips (ChipServicer) and analytic drives (SsdServicer) get the same
// RAID-0 N-way scaling, and a single drive or chip is simply the
// one-shard case (the global command reaches the lone servicer verbatim).
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
// (which is also how the per-shard ledgers sum to the device total).
//
// Determinism. Shard assignment is a pure function of the lpn, each
// shard services its sub-stream in global submission order against its
// own timeline, and the per-shard completion records are merged into one
// log ordered by (complete_time, submit order). Worker
// threads only decide *where* a shard's (single-threaded) work runs, so
// the merged log is byte-identical for any worker count. Because
// per-shard completion times are not monotone in submission order, the
// log position of a record is only final once no future command can
// complete earlier; poll() therefore withholds records that complete
// after the newest submit time seen (a later submission could still
// complete before them — Device::submit keeps stamps non-decreasing, so
// anything at or before that watermark is safe) and, under a reordering
// arbitration policy, records that a still-queued command could still
// precede (bounded below by the earliest queued submit time), while
// drain() delivers everything. Polling cadences that end in one drain
// all observe the identical log (tests/test_sharded_device.cc and
// tests/test_arbitration.cc pin this, together with worker-count
// byte-identity).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "flash/params.h"
#include "host/device.h"
#include "host/servicer.h"
#include "host/timeline.h"
#include "nand/geometry.h"

namespace rdsim::host {

class ShardedDevice : public Device {
 public:
  /// Generic form: one Servicer per shard (all exporting the same local
  /// page count), serviced on a min(workers, shards)-wide pool; results
  /// never depend on the worker count.
  ShardedDevice(std::vector<std::unique_ptr<Servicer>> shards,
                int workers = 1, std::uint32_t queue_count = 1);

  /// A one-shard drive: the lone servicer sees every command verbatim and
  /// everything runs on the calling thread.
  explicit ShardedDevice(std::unique_ptr<Servicer> servicer,
                         std::uint32_t queue_count = 1);

  /// Monte-Carlo convenience form: `shard_geometry` is the geometry of
  /// EACH shard's chip (the device exports shards * blocks *
  /// pages_per_block logical pages), shard s's chip seeded with
  /// shard_seed(seed, s).
  ShardedDevice(const nand::Geometry& shard_geometry,
                const flash::FlashModelParams& params, std::uint64_t seed,
                std::uint32_t shards, int workers = 1,
                std::uint32_t queue_count = 1,
                const LatencyParams& latency = LatencyParams{});

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  int worker_count() const { return pool_.thread_count(); }

  std::uint64_t logical_pages() const override {
    return shard_count() * shards_.front().servicer->logical_pages();
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
  /// total, and is cleared together with the aggregate statistics by
  /// reset_stats().
  double shard_stall_seconds(std::uint32_t shard) const {
    return shards_[shard].stall_seconds;
  }

  /// Clears the aggregate statistics and the per-shard stall ledgers in
  /// the same stroke, preserving their sums-to-total invariant across a
  /// measurement-window reset (e.g. after warm_fill).
  void reset_stats() override;
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

  double now_s() const override;

 protected:
  void pump(bool force) override;
  void run_end_of_day() override;
  void release_ready(bool drain_all) override;

 private:
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

  /// Services pending[begin, end) — a flush-free run — across the shards
  /// on the pool, then merges the per-shard slots into one Completion per
  /// command, record()ed and appended to `out` in submission order.
  void service_segment(const std::vector<Submitted>& pending,
                       std::size_t begin, std::size_t end,
                       std::vector<Completion>* out);

  /// Cross-shard barrier: completes when every shard finished all earlier
  /// work; every shard's timeline advances to the barrier. The returned
  /// record is already record()ed.
  Completion service_flush(const Submitted& sub);

  std::vector<Shard> shards_;
  ThreadPool pool_;
  /// Serviced completions not yet delivered, sorted by
  /// (complete_time, id) — the deterministic merged-log order. Records
  /// are released once no future submission (submit stamps are
  /// non-decreasing, so bounded below by max_submit_seen_s()) and no
  /// still-queued command (bounded below by min_pending_submit_s())
  /// could complete earlier.
  std::vector<Completion> held_;
  /// Per-segment scratch: sub_results_[cmd * shards + shard], starts_[cmd].
  std::vector<SubResult> sub_results_;
  std::vector<Start> starts_;
};

}  // namespace rdsim::host
