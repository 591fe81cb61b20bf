#include "host/device.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.h"

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

double tenant_weight(const ArbitrationConfig& arb, std::uint32_t tenant) {
  return arb.tenants.empty() ? 1.0 : arb.tenants[tenant].weight;
}

double tenant_deadline_s(const ArbitrationConfig& arb, std::uint32_t tenant) {
  return (arb.tenants.empty() ? 1000.0 : arb.tenants[tenant].deadline_us) *
         1e-6;
}

}  // namespace

Device::Device(std::vector<std::unique_ptr<Servicer>> shards, int workers,
               std::uint32_t queue_count)
    : queue_count_(std::max<std::uint32_t>(1, queue_count)),
      rr_round_(1, 0),
      virtual_finish_(1, 0.0),
      pool_(std::min(workers, static_cast<int>(shards.size()))) {
  if (shards.empty())
    throw std::invalid_argument("host::Device: no shards");
  // Striping addresses every shard's local space alike, so a shard with
  // a different page count would leave part of some shard unreachable.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string shard = "host::Device: shard " + std::to_string(s);
    if (shards[s] == nullptr)
      throw std::invalid_argument(shard + " has no servicer");
    if (shards[s]->logical_pages() != shards[0]->logical_pages())
      throw std::invalid_argument(
          shard + " exports " + std::to_string(shards[s]->logical_pages()) +
          " logical pages, shard 0 exports " +
          std::to_string(shards[0]->logical_pages()));
  }
  shards_.resize(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s)
    shards_[s].servicer = std::move(shards[s]);
}

Device::Device(std::unique_ptr<Servicer> servicer, std::uint32_t queue_count)
    : Device(one_shard(std::move(servicer)), 1, queue_count) {}

std::uint64_t Device::shard_seed(std::uint64_t seed, std::uint32_t shard) {
  // One decorrelated 64-bit chip seed per shard, a pure function of
  // (device seed, shard index) — the same derivation discipline as the
  // experiment shards' Rng::stream(seed, i).
  return Rng::stream(seed, shard).next();
}

void Device::set_arbitration(const ArbitrationConfig& config) {
  if (!pending_.empty())
    throw std::logic_error(
        "host::Device::set_arbitration: commands are still queued");
  arb_ = config;
  rr_round_.assign(tenant_count(), 0);
  virtual_finish_.assign(tenant_count(), 0.0);
}

std::uint64_t Device::submit(const Command& command) {
  Submitted sub;
  sub.command = command;
  sub.command.queue =
      static_cast<std::uint16_t>(command.queue % queue_count());
  const auto tenant =
      static_cast<std::uint16_t>(command.tenant % tenant_count());
  sub.command.tenant = tenant;
  sub.id = next_id_++;
  sub.epoch = flush_epoch_;
  if (sub.command.submit_time_s < max_submit_s_) {
    sub.command.submit_time_s = max_submit_s_;
    ++clamped_submits_;
  }
  max_submit_s_ = sub.command.submit_time_s;

  if (command.kind == CommandKind::kFlush) {
    // A flush closes its epoch: it sorts after every co-epoch command
    // (+inf key) and everything submitted afterwards lands in the next
    // epoch, so no policy can reorder across the barrier. Closing the
    // epoch also makes the whole epoch order-final immediately.
    sub.key = std::numeric_limits<double>::infinity();
    ++flush_epoch_;
  } else {
    switch (arb_.policy) {
      case ArbitrationPolicy::kFifo:
        sub.key = 0.0;  // Order degenerates to (epoch, id) = id.
        break;
      case ArbitrationPolicy::kRoundRobin:
        sub.key = static_cast<double>(rr_round_[tenant]++);
        break;
      case ArbitrationPolicy::kWeighted:
        // Start-time fair queueing on page counts: each tenant's virtual
        // clock advances by work / weight, and the smallest virtual
        // finish time is served first.
        virtual_finish_[tenant] +=
            static_cast<double>(std::max<std::uint32_t>(1, command.pages)) /
            tenant_weight(arb_, tenant);
        sub.key = virtual_finish_[tenant];
        break;
      case ArbitrationPolicy::kDeadline:
        sub.key = sub.command.submit_time_s + tenant_deadline_s(arb_, tenant);
        break;
    }
  }

  pending_.push_back(sub);
  ++submitted_;
  return sub.id;
}

bool Device::arbitration_order(const Submitted& a, const Submitted& b) {
  if (a.epoch != b.epoch) return a.epoch < b.epoch;
  if (a.key != b.key) return a.key < b.key;
  if (a.command.tenant != b.command.tenant)
    return a.command.tenant < b.command.tenant;
  return a.id < b.id;
}

bool Device::order_final(const Submitted& sub) const {
  if (arb_.policy == ArbitrationPolicy::kFifo) return true;
  if (sub.epoch < flush_epoch_) return true;  // Epoch closed by a flush.
  // A future command from tenant t gets key >= bound_t (each bound is
  // monotone over submissions), tenant t, and a larger id — so `sub`
  // precedes it iff sub.key < bound_t, or the keys tie and sub.tenant
  // <= t (equal tenant wins on the smaller id).
  const std::uint32_t tenants = tenant_count();
  for (std::uint32_t t = 0; t < tenants; ++t) {
    double bound = 0.0;
    switch (arb_.policy) {
      case ArbitrationPolicy::kRoundRobin:
        bound = static_cast<double>(rr_round_[t]);
        break;
      case ArbitrationPolicy::kWeighted:
        // Smallest possible future finish time: one page of work.
        bound = virtual_finish_[t] + 1.0 / tenant_weight(arb_, t);
        break;
      case ArbitrationPolicy::kDeadline:
        // Submit stamps are non-decreasing (submit() clamps them).
        bound = max_submit_s_ + tenant_deadline_s(arb_, t);
        break;
      case ArbitrationPolicy::kFifo:
        return true;
    }
    const bool precedes =
        sub.key < bound || (sub.key == bound && sub.command.tenant <= t);
    if (!precedes) return false;
  }
  return true;
}

std::vector<Device::Submitted> Device::take_pending(bool force) {
  std::vector<Submitted> taken;
  if (pending_.empty()) return taken;
  if (arb_.policy == ArbitrationPolicy::kFifo) {
    // Everything is final and pending_ is already in service order.
    taken.swap(pending_);
    return taken;
  }
  std::sort(pending_.begin(), pending_.end(), arbitration_order);
  std::size_t n = pending_.size();
  if (!force) {
    // The order-final predicate is downward closed in arbitration order,
    // so the finalized commands are exactly a prefix of the sorted
    // pending set: stop at the first unfinalized one.
    n = 0;
    while (n < pending_.size() && order_final(pending_[n])) ++n;
  }
  taken.assign(pending_.begin(),
               pending_.begin() + static_cast<std::ptrdiff_t>(n));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
  return taken;
}

std::uint64_t Device::read_bit_errors() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->read_bit_errors();
  return n;
}

std::uint64_t Device::pages_read() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->pages_read();
  return n;
}

std::uint64_t Device::pages_written() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->pages_written();
  return n;
}

std::uint64_t Device::block_rewrites() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->block_rewrites();
  return n;
}

ErrorStats Device::error_stats() const {
  ErrorStats total;
  for (const Shard& s : shards_) total += s.servicer->error_stats();
  return total;
}

double Device::now_s() const {
  double t = 0.0;
  for (const Shard& s : shards_) t = std::max(t, s.timeline.free_s());
  return t;
}

void Device::pump(bool force) {
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
  // log order), then merge it behind the released prefix, which no new
  // record can precede (see release_ready).
  if (!std::is_sorted(fresh, held_.end(), completion_log_order))
    std::sort(fresh, held_.end(), completion_log_order);
  std::inplace_merge(held_.begin() + static_cast<std::ptrdiff_t>(released_),
                     fresh, held_.end(), completion_log_order);
}

void Device::service_segment(const std::vector<Submitted>& pending,
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
    stats_.add(rec);
    out->push_back(rec);
  }
}

Completion Device::service_flush(const Submitted& sub) {
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
  stats_.add(rec);
  return rec;
}

void Device::release_ready() {
  // A held record's log position is final once nothing can still slot in
  // before it: future submissions complete no earlier than the newest
  // submit stamp seen (submit() keeps stamps non-decreasing; a tie goes
  // to the held record's smaller id), and commands a reordering policy
  // left queued complete no earlier than their own submit stamp (strict
  // bound — a queued command may carry a smaller id, so it wins a tie).
  // Both bounds only grow, so a released record is never overtaken.
  double unserviced_s = std::numeric_limits<double>::infinity();
  for (const Submitted& sub : pending_)
    unserviced_s = std::min(unserviced_s, sub.command.submit_time_s);
  while (released_ < held_.size() &&
         held_[released_].complete_time_s <= max_submit_s_ &&
         held_[released_].complete_time_s < unserviced_s)
    ++released_;
}

std::size_t Device::poll(std::vector<Completion>* out,
                         std::size_t max_completions) {
  pump(/*force=*/false);
  release_ready();
  const std::size_t n = std::min(max_completions, released_);
  const auto end = held_.begin() + static_cast<std::ptrdiff_t>(n);
  out->insert(out->end(), held_.begin(), end);
  held_.erase(held_.begin(), end);
  released_ -= n;
  delivered_ += n;
  return n;
}

std::size_t Device::drain(std::vector<Completion>* out) {
  pump(/*force=*/true);
  const std::size_t n = held_.size();
  out->insert(out->end(), held_.begin(), held_.end());
  held_.clear();
  released_ = 0;
  delivered_ += n;
  return n;
}

void Device::end_of_day() {
  pump(/*force=*/true);
  // Whatever flash busy time a shard's nightly maintenance consumed
  // occupies the next free window of that shard's timeline.
  for (Shard& shard : shards_) {
    const double busy = shard.servicer->end_of_day();
    if (busy > 0.0) shard.timeline.reserve_next(busy);
  }
}

const CompletionStats& Device::stats() {
  pump(/*force=*/true);
  return stats_;
}

void Device::reset_stats() {
  pump(/*force=*/true);
  stats_ = CompletionStats();
  for (Shard& shard : shards_) shard.stall_seconds = 0.0;
}

}  // namespace rdsim::host
