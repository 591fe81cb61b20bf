// rdsim/replay/remap.h
//
// Deterministic LBA remapping. Trace LPNs typically address a far larger
// device than the simulated one (the checked-in MSR sample spans 4 GiB;
// a tiny simulated drive is a few MiB), so every replayed request is
// folded onto the simulated logical capacity by a pure function of its
// original start LPN — same trace + same capacity + same policy always
// produces the same access stream, on any backend and worker count.
#pragma once

#include <algorithm>
#include <cstdint>

#include "replay/options.h"
#include "workload/trace.h"

namespace rdsim::replay {

/// Folds trace LPNs onto [0, capacity_pages). Requests stay contiguous:
/// the *start* LPN is remapped and the page run is kept (clamped and
/// shifted so start + pages <= capacity), preserving the request-size
/// distribution that the sharded device's striping depends on.
class LbaRemapper {
 public:
  /// Requires capacity_pages >= 1.
  LbaRemapper(RemapPolicy policy, std::uint64_t capacity_pages)
      : policy_(policy),
        capacity_(capacity_pages == 0 ? 1 : capacity_pages) {}

  RemapPolicy policy() const { return policy_; }

  std::uint64_t remap_lpn(std::uint64_t lpn) const {
    if (policy_ == RemapPolicy::kHash) lpn = splitmix64(lpn);
    return lpn % capacity_;
  }

  /// Remaps r's start LPN in place and clamps/shifts the run to fit.
  void apply(workload::IoRequest* r) const {
    const std::uint64_t cap32 =
        std::min<std::uint64_t>(capacity_, 0xFFFFFFFFull);
    r->pages = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::max(1u, r->pages), cap32));
    std::uint64_t start = remap_lpn(r->lpn);
    if (start + r->pages > capacity_) start = capacity_ - r->pages;
    r->lpn = start;
  }

  /// splitmix64 finalizer: a cheap, high-quality 64-bit mix (public
  /// domain constants from Steele et al.'s SplittableRandom).
  static std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

 private:
  RemapPolicy policy_;
  std::uint64_t capacity_;
};

}  // namespace rdsim::replay
