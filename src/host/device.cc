#include "host/device.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace rdsim::host {
namespace {

/// A physics pass over fewer commands than this runs an all-analytic
/// device's shards on the calling thread. Measured on rdbench's 4-shard
/// analytic drive at 4 workers (4-CPU Xeon, GCC 12, Release), driving
/// submit()/drain() in burst windows: a pool round trip added 3-10 us per
/// pump against ~0.5 us of host work per command, so 4- and 16-command
/// pumps ran 1.5-2.9x slower per command through the pool, and 64- to
/// 1024-command pumps -9 % to +38 %. But warm_fill's one-pass 52 K-page
/// fill is faster pooled: rdbench tenants_qos setup_s, mostly that fill,
/// read 10.2-10.4 ms pooled and 13.3-13.6 ms with every pass inline
/// (docs/PERF_RECORDS.md). Small passes that still reach this rule: a
/// drain() after a few submits, a short closed-loop batch, and each
/// window of a deadline-policy run_burst_windows.
constexpr std::size_t kInlinePumpCommands = 64;

/// run_burst_windows runs the physics of whole windows up to this many
/// commands (at least one window) ahead of their timing. It bounds the
/// pass's scratch: the admitted commands, starts_ and each shard's costs.
/// On rdbench tenants_qos (16-command windows, 4 workers) 1024 gave about
/// two thirds of 4096's gain and 16384 no more (docs/PERF_RECORDS.md).
constexpr std::size_t kAheadCommands = 4096;

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

/// Offset of shard `shard` from a command's first shard `first`: the
/// command's pages on `shard` are its global offsets k0, k0 + shards, ...
std::uint32_t landing_offset(std::uint32_t shard, std::uint32_t first,
                             std::uint32_t shards) {
  return shard >= first ? shard - first : shard + shards - first;
}

/// Whether a command has a landing at offset k0. A zero-page command still
/// completes exactly once, as a zero-cost landing on the shard that owns
/// its lpn.
bool lands(const Command& cmd, std::uint32_t k0) {
  return cmd.pages == 0 ? k0 == 0 : k0 < cmd.pages;
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
  for (std::size_t s = 0; s < shards.size(); ++s) {
    analytic_ = analytic_ && shards[s]->mc_chip() == nullptr;
    shards_[s].servicer = std::move(shards[s]);
  }
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

Device::Submitted Device::admit(const Command& command, double submit_s) {
  Submitted sub;
  sub.command = command;
  sub.command.submit_time_s = submit_s;
  sub.command.queue =
      static_cast<std::uint16_t>(command.queue % queue_count());
  const auto tenant =
      static_cast<std::uint16_t>(command.tenant % tenant_count());
  sub.command.tenant = tenant;
  sub.id = next_id_++;
  sub.epoch = flush_epoch_;

  if (command.kind == CommandKind::kFlush) {
    // A flush closes its epoch: it sorts after every co-epoch command
    // (+inf key) and everything submitted afterwards lands in the next
    // epoch, so no policy can reorder across the barrier.
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

  return sub;
}

double Device::stamp(double submit_s) {
  if (submit_s < max_submit_s_) {
    submit_s = max_submit_s_;
    ++clamped_submits_;
  }
  max_submit_s_ = submit_s;
  return submit_s;
}

std::uint64_t Device::submit(const Command& command) {
  pending_.push_back(admit(command, stamp(command.submit_time_s)));
  ++submitted_;
  return pending_.back().id;
}

bool Device::arbitration_order(const Submitted& a, const Submitted& b) {
  if (a.epoch != b.epoch) return a.epoch < b.epoch;
  if (a.key != b.key) return a.key < b.key;
  if (a.command.tenant != b.command.tenant)
    return a.command.tenant < b.command.tenant;
  return a.id < b.id;
}

std::vector<Device::Submitted> Device::take_pending() {
  std::vector<Submitted> taken;
  if (arb_.policy == ArbitrationPolicy::kFifo) {
    // pending_ is already in service order (id order).
    taken.swap(pending_);
    return taken;
  }
  // Copy out rather than swap, so pending_ keeps its capacity for the
  // next burst window.
  std::sort(pending_.begin(), pending_.end(), arbitration_order);
  taken.assign(pending_.begin(), pending_.end());
  pending_.clear();
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

template <typename CommandAt>
void Device::service_physics(std::size_t n, const CommandAt& command_at) {
  const std::uint32_t shard_n = shard_count();
  const std::uint64_t logical = logical_pages();
  // De-stripe each command once: its first page wrapped into the logical
  // space, and the shard that page lives on.
  starts_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t wrapped = command_at(k).lpn % logical;
    starts_[k] = {wrapped, static_cast<std::uint32_t>(wrapped % shard_n)};
  }
  // Only landings are written and only landings are read (service_timing),
  // so nothing needs clearing between passes.
  for (Shard& shard : shards_)
    if (shard.costs.size() < n) shard.costs.resize(n);

  const auto serve_shard = [&](std::size_t s) {
    Servicer& servicer = *shards_[s].servicer;
    std::vector<ServiceCost>& costs = shards_[s].costs;
    const auto index = static_cast<std::uint32_t>(s);
    for (std::size_t k = 0; k < n; ++k) {
      const Command& cmd = command_at(k);
      if (cmd.kind == CommandKind::kFlush) continue;
      const Start& start = starts_[k];
      const std::uint32_t k0 = landing_offset(index, start.shard, shard_n);
      if (!lands(cmd, k0)) continue;
      ServiceCost& cost = costs[k];
      cost = ServiceCost{};
      if (cmd.pages == 0) continue;
      // This shard's pages of the range are global offsets k0, k0 +
      // shard_n, ... — one contiguous run in local space (each step is
      // one local page), so the whole landing is a single local
      // sub-command the servicer wraps internally.
      Command local = cmd;
      std::uint64_t first = start.lpn + k0;
      if (first >= logical) first -= logical;
      local.lpn = first / shard_n;
      local.pages = static_cast<std::uint32_t>(
          (std::uint64_t{cmd.pages} - k0 + shard_n - 1) / shard_n);
      cost = servicer.service(local);
    }
  };
  // Each shard's physics is independent of the others', so where it runs
  // never shows in the output; a small analytic pass skips the pool wake.
  if (!analytic_ || n >= kInlinePumpCommands) {
    pool_.for_each(shard_n, serve_shard);
  } else {
    for (std::uint32_t s = 0; s < shard_n; ++s) serve_shard(s);
  }
}

void Device::pump() {
  const std::vector<Submitted> pending = take_pending();
  if (pending.empty()) return;

  // The new records go straight behind the (sorted) held ones, in
  // service order; each flush is a barrier at its place in that order.
  const std::size_t held_before = held_.size();
  held_.reserve(held_before + pending.size());
  service_physics(pending.size(), [&](std::size_t k) -> const Command& {
    return pending[k].command;
  });
  for (std::size_t k = 0; k < pending.size(); ++k)
    held_.push_back(service_timing(pending[k], k));

  const auto fresh = held_.begin() + static_cast<std::ptrdiff_t>(held_before);
  // Sort only the new run (a one-shard FIFO drive already produces it in
  // log order), then merge it with the records held since the last drain.
  if (!std::is_sorted(fresh, held_.end(), completion_log_order))
    std::sort(fresh, held_.end(), completion_log_order);
  std::inplace_merge(held_.begin(), fresh, held_.end(), completion_log_order);
}

Completion Device::service_timing(const Submitted& sub, std::size_t k) {
  if (sub.command.kind == CommandKind::kFlush) return service_flush(sub);
  const std::uint32_t shard_n = shard_count();
  const std::uint32_t first_shard = starts_[k].shard;
  Completion rec = completion_for(sub.id, sub.command);
  double start = std::numeric_limits<double>::infinity();
  double complete = 0.0;
  double stall = 0.0;
  for (std::uint32_t s = 0; s < shard_n; ++s) {
    if (!lands(sub.command, landing_offset(s, first_shard, shard_n)))
      continue;
    Shard& shard = shards_[s];
    const ServiceCost& cost = shard.costs[k];
    const FlashTimeline::Slot slot =
        shard.timeline.schedule(sub.command.submit_time_s, cost);
    const double stall_s = cost.stall_s + slot.bg_overlap_s;
    shard.stall_seconds += stall_s;
    start = std::min(start, slot.start_s);
    complete = std::max(complete, slot.complete_s);
    stall += stall_s;
    rec.status = worst_status(rec.status, cost.status);
    rec.error_pages += cost.error_pages;
  }
  rec.service_start_s = start;
  rec.complete_time_s = complete;
  rec.stall_s = stall;
  stats_.add(rec);
  return rec;
}

double Device::run_closed_loop(const std::vector<Command>& commands,
                               std::size_t depth, double release_s,
                               std::vector<Completion>* sink) {
  // Slots count only this batch's commands, so anything already in
  // flight would overfill the queue and reach the sink.
  if (outstanding() != 0)
    throw std::logic_error(
        "host::Device::run_closed_loop: commands are still outstanding");
  const std::size_t n = commands.size();
  if (n == 0) return release_s;
  const std::size_t w = std::min(std::max<std::size_t>(1, depth), n);

  // The first window is co-pending at one stamp, so it is serviced in
  // the pump's service order (its keys are computable now, deadline ones
  // too); every later command is submitted into a freed slot and
  // serviced on its own, in submission order. So every shard's service
  // order is known before any later stamp is, and the physics of the
  // whole batch runs first.
  for (std::size_t k = 0; k < w; ++k) {
    Command c = commands[k];
    c.submit_time_s = release_s;
    submit(c);
  }
  const std::vector<Submitted> window = take_pending();
  service_physics(n, [&](std::size_t k) -> const Command& {
    return k < w ? window[k].command : commands[k];
  });

  // Timing, serially: the window in service order, then one command per
  // freed slot. in_flight_ is a min-heap in completion_log_order.
  const auto later = [](const Completion& a, const Completion& b) {
    return completion_log_order(b, a);
  };
  in_flight_.clear();
  for (std::size_t k = 0; k < w; ++k)
    in_flight_.push_back(service_timing(window[k], k));
  // Sorted ascending is already a valid heap under `later`.
  std::sort(in_flight_.begin(), in_flight_.end(), completion_log_order);
  if (sink != nullptr)
    sink->insert(sink->end(), in_flight_.begin(), in_flight_.end());
  for (std::size_t k = w; k < n; ++k) {
    std::pop_heap(in_flight_.begin(), in_flight_.end(), later);
    release_s = in_flight_.back().complete_time_s;
    in_flight_.pop_back();
    in_flight_.push_back(
        service_timing(admit(commands[k], stamp(release_s)), k));
    ++submitted_;
    if (sink != nullptr) sink->push_back(in_flight_.back());
    std::push_heap(in_flight_.begin(), in_flight_.end(), later);
  }
  for (const Completion& rec : in_flight_)
    release_s = std::max(release_s, rec.complete_time_s);
  delivered_ += n;
  return release_s;
}

double Device::run_burst_windows(const std::vector<Command>& commands,
                                 std::size_t window, double clock_s,
                                 std::vector<Completion>* sink) {
  // A record of anything already in flight would reach the sink and
  // move the clock.
  if (outstanding() != 0)
    throw std::logic_error(
        "host::Device::run_burst_windows: commands are still outstanding");
  const std::size_t n = commands.size();
  window = std::max<std::size_t>(1, window);
  // Under fifo, round_robin and weighted no key reads the stamp, so the
  // service order of many windows is fixed before any of them is
  // stamped, and their physics runs in one pass ahead of their timing. A
  // deadline key is stamp + deadline, and rounding can tie two such keys
  // at one stamp and not at another, so deadline looks one window ahead.
  const bool look_ahead = arb_.policy != ArbitrationPolicy::kDeadline;
  const std::size_t chunk =
      look_ahead
          ? std::max<std::size_t>(1, kAheadCommands / window) * window
          : window;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    // Admit in command order, then sort each window into the pump's
    // service order (FIFO's is id order, which arbitration_order is not).
    ahead_.clear();
    for (std::size_t w = begin; w < end; w += window) {
      const auto first = static_cast<std::ptrdiff_t>(ahead_.size());
      // Looking ahead, the stamp is set when the window is timed.
      for (std::size_t i = w; i < std::min(end, w + window); ++i)
        ahead_.push_back(admit(commands[i], look_ahead
                                                ? commands[i].submit_time_s
                                                : stamp(clock_s)));
      if (arb_.policy != ArbitrationPolicy::kFifo)
        std::sort(ahead_.begin() + first, ahead_.end(), arbitration_order);
    }
    service_physics(ahead_.size(), [&](std::size_t k) -> const Command& {
      return ahead_[k].command;
    });

    // Timing, window by window: each window is stamped at the clock its
    // predecessor's last completion set, exactly as submit() would stamp
    // it, and its records are delivered in log order.
    for (std::size_t w = 0; w < ahead_.size(); w += window) {
      held_.clear();
      for (std::size_t k = w; k < std::min(ahead_.size(), w + window); ++k) {
        Submitted& sub = ahead_[k];
        if (look_ahead) sub.command.submit_time_s = stamp(clock_s);
        held_.push_back(service_timing(sub, k));
      }
      if (!std::is_sorted(held_.begin(), held_.end(), completion_log_order))
        std::sort(held_.begin(), held_.end(), completion_log_order);
      if (sink != nullptr)
        sink->insert(sink->end(), held_.begin(), held_.end());
      // Log order puts the window's last completion last. No record
      // completes before its stamp, and no stamp precedes the clock, so
      // the clock never runs backwards.
      clock_s = held_.back().complete_time_s;
    }
  }
  held_.clear();
  submitted_ += n;
  delivered_ += n;
  return clock_s;
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

std::size_t Device::drain(std::vector<Completion>* out) {
  pump();
  const std::size_t n = held_.size();
  out->insert(out->end(), held_.begin(), held_.end());
  held_.clear();
  delivered_ += n;
  return n;
}

void Device::end_of_day() {
  pump();
  // Whatever flash busy time a shard's nightly maintenance consumed
  // occupies the next free window of that shard's timeline.
  for (Shard& shard : shards_) {
    const double busy = shard.servicer->end_of_day();
    if (busy > 0.0) shard.timeline.reserve_next(busy);
  }
}

const CompletionStats& Device::stats() {
  pump();
  return stats_;
}

void Device::reset_stats() {
  pump();
  stats_ = CompletionStats();
  for (Shard& shard : shards_) shard.stall_seconds = 0.0;
}

}  // namespace rdsim::host
