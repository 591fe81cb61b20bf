#include "host/sharded_device.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "host/chip_servicer.h"

namespace rdsim::host {
namespace {

std::vector<std::unique_ptr<Servicer>> one_shard(
    std::unique_ptr<Servicer> servicer) {
  std::vector<std::unique_ptr<Servicer>> shards;
  shards.push_back(std::move(servicer));
  return shards;
}

/// The record for command `id`, everything but the schedule filled in.
Completion completion_for(std::uint64_t id, const Command& cmd) {
  Completion rec;
  rec.id = id;
  rec.kind = cmd.kind;
  rec.queue = cmd.queue;
  rec.tenant = cmd.tenant;
  rec.lpn = cmd.lpn;
  rec.pages = cmd.pages;
  rec.submit_time_s = cmd.submit_time_s;
  return rec;
}

}  // namespace

ShardedDevice::ShardedDevice(std::vector<std::unique_ptr<Servicer>> shards,
                             int workers, std::uint32_t queue_count)
    : Device(queue_count),
      pool_(std::min(workers, static_cast<int>(shards.size()))) {
  shards_.resize(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s)
    shards_[s].servicer = std::move(shards[s]);
}

ShardedDevice::ShardedDevice(std::unique_ptr<Servicer> servicer,
                             std::uint32_t queue_count)
    : ShardedDevice(one_shard(std::move(servicer)), 1, queue_count) {}

ShardedDevice::ShardedDevice(const nand::Geometry& shard_geometry,
                             const flash::FlashModelParams& params,
                             std::uint64_t seed, std::uint32_t shards,
                             int workers, std::uint32_t queue_count,
                             const LatencyParams& latency)
    : Device(queue_count),
      pool_(std::min(workers,
                     static_cast<int>(std::max<std::uint32_t>(1, shards)))) {
  shards_.resize(std::max<std::uint32_t>(1, shards));
  // Chip construction is bookkeeping-only under lazy materialization, so
  // building the shards serially costs nothing worth parallelizing.
  for (std::uint32_t s = 0; s < shards_.size(); ++s)
    shards_[s].servicer = std::make_unique<ChipServicer>(
        shard_geometry, params, shard_seed(seed, s), latency);
}

std::uint64_t ShardedDevice::shard_seed(std::uint64_t seed,
                                        std::uint32_t shard) {
  // One decorrelated 64-bit chip seed per shard, a pure function of
  // (device seed, shard index) — the same derivation discipline as the
  // experiment shards' Rng::stream(seed, i).
  return Rng::stream(seed, shard).next();
}

std::uint64_t ShardedDevice::read_bit_errors() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->read_bit_errors();
  return n;
}

std::uint64_t ShardedDevice::pages_read() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->pages_read();
  return n;
}

std::uint64_t ShardedDevice::pages_written() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->pages_written();
  return n;
}

std::uint64_t ShardedDevice::block_rewrites() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->block_rewrites();
  return n;
}

ErrorStats ShardedDevice::error_stats() const {
  ErrorStats total;
  for (const Shard& s : shards_) total += s.servicer->error_stats();
  return total;
}

double ShardedDevice::now_s() const {
  double t = 0.0;
  for (const Shard& s : shards_) t = std::max(t, s.timeline.free_s());
  return t;
}

void ShardedDevice::pump(bool force) {
  const std::vector<Submitted> pending = take_pending(force);
  if (pending.empty()) return;

  // Service in flush-separated segments: within a segment the shards run
  // concurrently and never wait for each other; each flush is a
  // cross-shard barrier handled on the coordinating thread. The new
  // records go straight behind the (sorted) held ones.
  const std::size_t held_before = held_.size();
  held_.reserve(held_before + pending.size());
  std::size_t i = 0;
  while (i < pending.size()) {
    if (pending[i].command.kind == CommandKind::kFlush) {
      held_.push_back(service_flush(pending[i]));
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < pending.size() &&
           pending[j].command.kind != CommandKind::kFlush)
      ++j;
    service_segment(pending, i, j, &held_);
    i = j;
  }

  const auto fresh = held_.begin() + static_cast<std::ptrdiff_t>(held_before);
  // Sort only the new run (a one-shard FIFO drive already produces it in
  // log order), then merge it into the held records.
  if (!std::is_sorted(fresh, held_.end(), completion_log_order))
    std::sort(fresh, held_.end(), completion_log_order);
  std::inplace_merge(held_.begin(), fresh, held_.end(), completion_log_order);
}

void ShardedDevice::service_segment(const std::vector<Submitted>& pending,
                                    std::size_t begin, std::size_t end,
                                    std::vector<Completion>* out) {
  const std::size_t n = end - begin;
  const std::uint32_t shard_n = shard_count();
  const std::uint64_t logical = logical_pages();
  // De-stripe each command once: its first page wrapped into the logical
  // space, and the shard that page lives on.
  starts_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t wrapped = pending[begin + k].command.lpn % logical;
    starts_[k] = {wrapped, static_cast<std::uint32_t>(wrapped % shard_n)};
  }
  // Every shard writes its slot of every command, so nothing needs
  // clearing between segments.
  if (sub_results_.size() < n * shard_n) sub_results_.resize(n * shard_n);

  pool_.for_each(shard_n, [&](std::size_t s) {
    Shard& shard = shards_[s];
    const auto index = static_cast<std::uint32_t>(s);
    for (std::size_t k = 0; k < n; ++k) {
      const Command& cmd = pending[begin + k].command;
      const Start& start = starts_[k];
      // This shard's pages of the range are global offsets k0, k0 +
      // shard_n, ... — one contiguous run in local space (each step is
      // one local page), so the whole landing is a single local
      // sub-command the servicer wraps internally.
      const std::uint32_t k0 = index >= start.shard
                                   ? index - start.shard
                                   : index + shard_n - start.shard;
      SubResult& r = sub_results_[k * shard_n + s];
      // A zero-page command still completes exactly once, as a zero-cost
      // record on the shard that owns its lpn.
      r.present = cmd.pages == 0 ? k0 == 0 : k0 < cmd.pages;
      if (!r.present) continue;
      ServiceCost cost;
      if (cmd.pages > 0) {
        Command local = cmd;
        std::uint64_t first = start.lpn + k0;
        if (first >= logical) first -= logical;
        local.lpn = first / shard_n;
        local.pages = static_cast<std::uint32_t>(
            (std::uint64_t{cmd.pages} - k0 + shard_n - 1) / shard_n);
        cost = shard.servicer->service(local);
      }
      const FlashTimeline::Slot slot =
          shard.timeline.schedule(cmd.submit_time_s, cost);
      r.start_s = slot.start_s;
      r.complete_s = slot.complete_s;
      r.stall_s = cost.stall_s + slot.bg_overlap_s;
      r.status = cost.status;
      r.error_pages = cost.error_pages;
      shard.stall_seconds += r.stall_s;
    }
  });

  for (std::size_t k = 0; k < n; ++k) {
    const Submitted& sub = pending[begin + k];
    Completion rec = completion_for(sub.id, sub.command);
    double start = std::numeric_limits<double>::infinity();
    double complete = 0.0;
    double stall = 0.0;
    for (std::uint32_t s = 0; s < shard_n; ++s) {
      const SubResult& r = sub_results_[k * shard_n + s];
      if (!r.present) continue;
      start = std::min(start, r.start_s);
      complete = std::max(complete, r.complete_s);
      stall += r.stall_s;
      rec.status = worst_status(rec.status, r.status);
      rec.error_pages += r.error_pages;
    }
    rec.service_start_s = start;
    rec.complete_time_s = complete;
    rec.stall_s = stall;
    record(rec);
    out->push_back(rec);
  }
}

Completion ShardedDevice::service_flush(const Submitted& sub) {
  double barrier = 0.0;
  double stall = 0.0;
  for (Shard& shard : shards_) {
    const FlashTimeline::Slot slot =
        shard.timeline.schedule(sub.command.submit_time_s, ServiceCost{});
    barrier = std::max(barrier, slot.start_s);
    stall += slot.bg_overlap_s;
    shard.stall_seconds += slot.bg_overlap_s;
  }
  for (Shard& shard : shards_) shard.timeline.barrier(barrier);

  Completion rec = completion_for(sub.id, sub.command);
  rec.service_start_s = barrier;
  rec.complete_time_s = barrier;
  rec.stall_s = stall;
  record(rec);
  return rec;
}

void ShardedDevice::release_ready(bool drain_all) {
  // A held record's log position is final once nothing can still slot in
  // before it: future submissions complete no earlier than the newest
  // submit stamp seen (Device::submit keeps stamps non-decreasing; a tie
  // goes to the held record's smaller id), and commands a reordering
  // policy left queued complete no earlier than their own submit stamp
  // (strict bound — a queued command carries a smaller id, so it wins a
  // tie).
  const double unserviced_s = has_pending()
                                  ? min_pending_submit_s()
                                  : std::numeric_limits<double>::infinity();
  std::size_t n = 0;
  while (n < held_.size() &&
         (drain_all || (held_[n].complete_time_s <= max_submit_seen_s() &&
                        held_[n].complete_time_s < unserviced_s))) {
    deliver(held_[n]);
    ++n;
  }
  held_.erase(held_.begin(), held_.begin() + static_cast<std::ptrdiff_t>(n));
}

void ShardedDevice::reset_stats() {
  Device::reset_stats();
  for (Shard& shard : shards_) shard.stall_seconds = 0.0;
}

void ShardedDevice::run_end_of_day() {
  // Whatever flash busy time a shard's nightly maintenance consumed
  // occupies the next free window of that shard's timeline.
  for (Shard& shard : shards_) {
    const double busy = shard.servicer->end_of_day();
    if (busy > 0.0) shard.timeline.reserve_next(busy);
  }
}

}  // namespace rdsim::host
