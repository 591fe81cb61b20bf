#include "host/device.h"

#include <algorithm>
#include <limits>

namespace rdsim::host {

Device::Device(std::uint32_t queue_count)
    : queue_count_(std::max<std::uint32_t>(1, queue_count)),
      rr_round_(1, 0),
      virtual_finish_(1, 0.0) {}

void Device::set_arbitration(const ArbitrationConfig& config) {
  arb_ = config;
  rr_round_.assign(tenant_count(), 0);
  virtual_finish_.assign(tenant_count(), 0.0);
}

namespace {

double tenant_weight(const ArbitrationConfig& arb, std::uint32_t tenant) {
  return arb.tenants.empty() ? 1.0 : arb.tenants[tenant].weight;
}

double tenant_deadline_s(const ArbitrationConfig& arb, std::uint32_t tenant) {
  return (arb.tenants.empty() ? 1000.0 : arb.tenants[tenant].deadline_us) *
         1e-6;
}

}  // namespace

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

double Device::min_pending_submit_s() const {
  double min_s = std::numeric_limits<double>::infinity();
  for (const Submitted& sub : pending_)
    min_s = std::min(min_s, sub.command.submit_time_s);
  return min_s;
}

std::size_t Device::poll(std::vector<Completion>* out,
                         std::size_t max_completions) {
  pump(/*force=*/false);
  release_ready(/*drain_all=*/false);
  std::size_t n = 0;
  while (n < max_completions && !completion_queue_.empty()) {
    out->push_back(completion_queue_.front());
    completion_queue_.pop_front();
    ++n;
  }
  delivered_ += n;
  return n;
}

std::size_t Device::drain(std::vector<Completion>* out) {
  pump(/*force=*/true);
  release_ready(/*drain_all=*/true);
  const std::size_t n = completion_queue_.size();
  out->insert(out->end(), completion_queue_.begin(), completion_queue_.end());
  completion_queue_.clear();
  delivered_ += n;
  return n;
}

void Device::end_of_day() {
  pump(/*force=*/true);
  run_end_of_day();
}

const CompletionStats& Device::stats() {
  pump(/*force=*/true);
  return stats_;
}

void Device::reset_stats() {
  pump(/*force=*/true);
  stats_ = CompletionStats();
}

}  // namespace rdsim::host
