#include "ftl/ftl.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/serialize.h"
#include "ecc/crc32.h"

namespace rdsim::ftl {

Ftl::Ftl(const FtlConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      blocks_(config.blocks),
      l2p_(config.logical_pages(), kUnmapped),
      p2l_(config.physical_pages(), kUnmapped),
      free_count_(config.blocks) {
  assert(config_.blocks > config_.gc_free_target + 1);
  assert(config_.overprovision > 0.0 && config_.overprovision < 1.0);
}

std::uint32_t Ftl::allocate_block() {
  // Wear-aware allocation: among free blocks pick the least-worn one
  // (simple but effective wear leveling for the simulator's purposes).
  std::uint32_t best = kUnmappedBlock;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].state != BlockInfo::State::kFree) continue;
    if (best == kUnmappedBlock ||
        blocks_[b].pe_cycles < blocks_[best].pe_cycles) {
      best = b;
    }
  }
  if (best == kUnmappedBlock) return kUnmappedBlock;
  auto& info = blocks_[best];
  info.state = BlockInfo::State::kOpen;
  info.write_ptr = 0;
  info.valid_pages = 0;
  info.reads_since_program = 0;
  info.program_day = now_days_;
  --free_count_;
  return best;
}

bool Ftl::append_page(std::uint64_t lpn, std::uint32_t* block_out) {
  if (open_block_ == kUnmappedBlock ||
      blocks_[open_block_].write_ptr >= config_.pages_per_block) {
    if (open_block_ != kUnmappedBlock)
      blocks_[open_block_].state = BlockInfo::State::kFull;
    open_block_ = allocate_block();
    if (open_block_ == kUnmappedBlock) return false;
  }
  auto& info = blocks_[open_block_];
  const std::uint32_t page = info.write_ptr++;
  ++info.valid_pages;
  const std::uint64_t packed =
      static_cast<std::uint64_t>(open_block_) * config_.pages_per_block + page;
  // Invalidate the previous location of this lpn.
  const std::uint64_t old = l2p_[lpn];
  if (old != kUnmapped) {
    p2l_[old] = kUnmapped;
    auto& old_info = blocks_[old / config_.pages_per_block];
    assert(old_info.valid_pages > 0);
    --old_info.valid_pages;
  }
  l2p_[lpn] = packed;
  p2l_[packed] = lpn;
  if (block_out) *block_out = open_block_;
  if (info.write_ptr == config_.pages_per_block) {
    info.state = BlockInfo::State::kFull;
    open_block_ = kUnmappedBlock;  // Full blocks are eligible for refresh
                                   // and GC immediately.
  }
  return true;
}

WriteResult Ftl::write_page(std::uint64_t lpn, std::uint32_t* block_out) {
  assert(lpn < l2p_.size());
  if (block_out) *block_out = kUnmappedBlock;
  if (read_only_) return WriteResult::kReadOnly;
  std::uint32_t block = kUnmappedBlock;
  if (!append_page(lpn, &block)) {
    // No allocatable block at all — the drive can no longer accept data.
    read_only_ = true;
    return WriteResult::kReadOnly;
  }
  ++stats_.host_writes;
  WriteResult result = WriteResult::kOk;
  // Injected program failure: the just-programmed page reported a fail.
  // The controller still holds the data in RAM, so it retires the block
  // and relocates everything (real drives rewrite-from-buffer the same
  // way); the host write is lost only when no relocation destination
  // exists. Guarded so a zero probability never touches the RNG stream.
  if (config_.program_fail_prob > 0.0 &&
      rng_.uniform() < config_.program_fail_prob) {
    ++stats_.program_failures;
    retire_block(block);
    const std::uint64_t packed = l2p_[lpn];
    if (packed != kUnmapped &&
        packed / config_.pages_per_block != block) {
      block = static_cast<std::uint32_t>(packed / config_.pages_per_block);
    } else {
      block = kUnmappedBlock;
      result = WriteResult::kFailed;
    }
  }
  if (block_out) *block_out = block;
  if (!read_only_ && free_count_ <= config_.gc_free_target)
    collect_garbage();
  return result;
}

std::uint32_t Ftl::write(std::uint64_t lpn) {
  std::uint32_t block = kUnmappedBlock;
  write_page(lpn, &block);
  return block;
}

std::uint32_t Ftl::read(std::uint64_t lpn) {
  assert(lpn < l2p_.size());
  ++stats_.host_reads;
  const std::uint64_t packed = l2p_[lpn];
  if (packed == kUnmapped) return kUnmappedBlock;
  const auto block = static_cast<std::uint32_t>(packed / config_.pages_per_block);
  ++blocks_[block].reads_since_program;
  return block;
}

bool Ftl::trim(std::uint64_t lpn) {
  assert(lpn < l2p_.size());
  const std::uint64_t packed = l2p_[lpn];
  if (packed == kUnmapped) return false;
  l2p_[lpn] = kUnmapped;
  p2l_[packed] = kUnmapped;
  auto& info = blocks_[packed / config_.pages_per_block];
  assert(info.valid_pages > 0);
  --info.valid_pages;
  ++stats_.host_trims;
  return true;
}

std::uint32_t Ftl::pick_gc_victim() const {
  // Greedy: full block with the fewest valid pages; ties broken toward
  // higher read counts so disturb-loaded blocks turn over sooner.
  std::uint32_t best = kUnmappedBlock;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    const auto& info = blocks_[b];
    if (info.state != BlockInfo::State::kFull) continue;
    if (best == kUnmappedBlock ||
        info.valid_pages < blocks_[best].valid_pages ||
        (info.valid_pages == blocks_[best].valid_pages &&
         info.reads_since_program > blocks_[best].reads_since_program)) {
      best = b;
    }
  }
  return best;
}

bool Ftl::evacuate(std::uint32_t b, std::uint64_t* counter) {
  const std::uint64_t base =
      static_cast<std::uint64_t>(b) * config_.pages_per_block;
  for (std::uint32_t p = 0; p < config_.pages_per_block; ++p) {
    const std::uint64_t lpn = p2l_[base + p];
    if (lpn == kUnmapped) continue;
    if (!append_page(lpn, nullptr)) return false;  // Out of destinations;
                                                   // remainder stranded.
    ++*counter;
  }
  assert(blocks_[b].valid_pages == 0);
  return true;
}

void Ftl::note_retired() {
  ++retired_count_;
  // Read-only triggers: the grown-defect count exceeded the provisioned
  // spare budget, or (backstop, for tiny spare budgets against tiny
  // drives) the surviving blocks cannot host the logical space plus the
  // GC working set any more.
  const std::uint64_t min_usable =
      (config_.logical_pages() + config_.pages_per_block - 1) /
          config_.pages_per_block +
      config_.gc_free_target + 2;
  if (retired_count_ > config_.spare_blocks ||
      blocks_.size() - retired_count_ < min_usable) {
    read_only_ = true;
  }
}

bool Ftl::retire_block(std::uint32_t b) {
  auto& info = blocks_[b];
  assert(info.state != BlockInfo::State::kRetired);
  if (b == open_block_) {
    info.state = BlockInfo::State::kFull;
    open_block_ = kUnmappedBlock;
  }
  if (info.state == BlockInfo::State::kFree) --free_count_;
  if (info.valid_pages > 0 && !evacuate(b, &stats_.defect_writes)) {
    // Relocation ran out of destinations: the remainder stays readable on
    // the defective block, and the drive freezes rather than lose it.
    read_only_ = true;
    return false;
  }
  info.state = BlockInfo::State::kRetired;
  note_retired();
  return true;
}

void Ftl::erase_block(std::uint32_t b) {
  auto& info = blocks_[b];
  assert(info.valid_pages == 0);
  info.write_ptr = 0;
  info.reads_since_program = 0;
  ++info.pe_cycles;
  // Injected erase failure: the block fails to erase and retires in
  // place (it holds no valid data, so nothing relocates). Guarded so a
  // zero probability never touches the RNG stream.
  if (config_.erase_fail_prob > 0.0 &&
      rng_.uniform() < config_.erase_fail_prob) {
    ++stats_.erase_failures;
    info.state = BlockInfo::State::kRetired;
    note_retired();
    return;
  }
  info.state = BlockInfo::State::kFree;
  ++free_count_;
}

void Ftl::collect_garbage() {
  while (free_count_ <= config_.gc_free_target) {
    const std::uint32_t victim = pick_gc_victim();
    if (victim == kUnmappedBlock) return;  // Nothing reclaimable.
    if (!evacuate(victim, &stats_.gc_writes)) {
      read_only_ = true;  // Stranded data on the victim; stop collecting.
      return;
    }
    erase_block(victim);
    ++stats_.gc_erases;
  }
}

std::vector<std::uint32_t> Ftl::blocks_due_refresh() const {
  std::vector<std::uint32_t> due;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    const auto& info = blocks_[b];
    if (info.state == BlockInfo::State::kFree || info.valid_pages == 0)
      continue;
    if (b == open_block_) continue;
    if (now_days_ - info.program_day >= config_.refresh_interval_days)
      due.push_back(b);
  }
  return due;
}

void Ftl::refresh_block(std::uint32_t block) {
  auto& info = blocks_[block];
  if (info.state == BlockInfo::State::kFree ||
      info.state == BlockInfo::State::kRetired || block == open_block_)
    return;
  if (!evacuate(block, &stats_.refresh_writes)) {
    read_only_ = true;
    return;
  }
  erase_block(block);
  ++stats_.refreshes;
}

int Ftl::apply_read_reclaim() {
  if (config_.read_reclaim_threshold == 0) return 0;
  int reclaimed = 0;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    const auto& info = blocks_[b];
    if (info.state != BlockInfo::State::kFull || info.valid_pages == 0)
      continue;
    if (info.reads_since_program >= config_.read_reclaim_threshold) {
      if (!evacuate(b, &stats_.reclaim_writes)) {
        read_only_ = true;
        return reclaimed;
      }
      erase_block(b);
      ++stats_.reclaims;
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::uint32_t Ftl::max_pe() const {
  std::uint32_t m = 0;
  for (const auto& b : blocks_) m = std::max(m, b.pe_cycles);
  return m;
}

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x52444654;  // "RDFT"
// v2 added a version field and the fault-stream RNG state (v1 snapshots
// silently reset the RNG on restore, which broke checkpoint/resume
// determinism for fault-injecting drives).
constexpr std::uint32_t kSnapshotVersion = 2;

void set_error(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

using serialize::append_pod;
using serialize::read_pod;

}  // namespace

std::vector<std::uint8_t> Ftl::snapshot() const {
  std::vector<std::uint8_t> out;
  append_pod(&out, kSnapshotMagic);
  append_pod(&out, kSnapshotVersion);
  append_pod(&out, config_.blocks);
  append_pod(&out, config_.pages_per_block);
  append_pod(&out, now_days_);
  append_pod(&out, open_block_);
  append_pod(&out, free_count_);
  append_pod(&out, retired_count_);
  append_pod(&out, static_cast<std::uint8_t>(read_only_ ? 1 : 0));
  append_pod(&out, stats_);
  append_pod(&out, rng_.state());
  for (const auto& b : blocks_) append_pod(&out, b);
  for (const auto packed : l2p_) append_pod(&out, packed);
  for (const auto lpn : p2l_) append_pod(&out, lpn);
  const std::uint32_t crc = ecc::crc32(out);
  append_pod(&out, crc);
  return out;
}

bool Ftl::restore(const std::vector<std::uint8_t>& snapshot,
                  std::string* error) {
  if (snapshot.size() < 2 * sizeof(std::uint32_t) + sizeof(std::uint32_t)) {
    set_error(error, "ftl snapshot truncated: shorter than header + CRC");
    return false;
  }
  const std::size_t body = snapshot.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, snapshot.data() + body, sizeof(stored_crc));
  if (ecc::crc32({snapshot.data(), body}) != stored_crc) {
    set_error(error, "ftl snapshot payload CRC mismatch (bit corruption)");
    return false;
  }

  std::size_t offset = 0;
  std::uint32_t magic = 0, version = 0, blocks = 0, ppb = 0;
  if (!read_pod(snapshot, &offset, &magic) || magic != kSnapshotMagic) {
    set_error(error, "ftl snapshot bad magic (not an FTL snapshot)");
    return false;
  }
  if (!read_pod(snapshot, &offset, &version) ||
      version != kSnapshotVersion) {
    set_error(error, "ftl snapshot unsupported version");
    return false;
  }
  if (!read_pod(snapshot, &offset, &blocks) ||
      !read_pod(snapshot, &offset, &ppb) || blocks != config_.blocks ||
      ppb != config_.pages_per_block) {
    set_error(error,
              "ftl snapshot geometry mismatch (blocks/pages_per_block "
              "differ from this drive's config)");
    return false;
  }

  Ftl staged(config_);
  std::uint8_t read_only_byte = 0;
  Rng::State rng_state;
  if (!read_pod(snapshot, &offset, &staged.now_days_) ||
      !read_pod(snapshot, &offset, &staged.open_block_) ||
      !read_pod(snapshot, &offset, &staged.free_count_) ||
      !read_pod(snapshot, &offset, &staged.retired_count_) ||
      !read_pod(snapshot, &offset, &read_only_byte) ||
      !read_pod(snapshot, &offset, &staged.stats_) ||
      !read_pod(snapshot, &offset, &rng_state)) {
    set_error(error, "ftl snapshot truncated inside scalar state");
    return false;
  }
  staged.read_only_ = read_only_byte != 0;
  staged.rng_.set_state(rng_state);
  for (auto& b : staged.blocks_)
    if (!read_pod(snapshot, &offset, &b)) {
      set_error(error, "ftl snapshot truncated inside block table");
      return false;
    }
  for (auto& packed : staged.l2p_)
    if (!read_pod(snapshot, &offset, &packed)) {
      set_error(error, "ftl snapshot truncated inside l2p table");
      return false;
    }
  for (auto& lpn : staged.p2l_)
    if (!read_pod(snapshot, &offset, &lpn)) {
      set_error(error, "ftl snapshot truncated inside p2l table");
      return false;
    }
  if (offset != body) {
    set_error(error, "ftl snapshot over-long: trailing bytes after payload");
    return false;
  }
  if (!staged.check_invariants()) {
    set_error(error,
              "ftl snapshot inconsistent: mapping invariants failed after "
              "decode");
    return false;
  }
  *this = std::move(staged);
  return true;
}

bool Ftl::check_invariants() const {
  std::vector<std::uint32_t> valid_count(blocks_.size(), 0);
  for (std::uint64_t lpn = 0; lpn < l2p_.size(); ++lpn) {
    const std::uint64_t packed = l2p_[lpn];
    if (packed == kUnmapped) continue;
    if (packed >= p2l_.size()) return false;
    if (p2l_[packed] != lpn) return false;
    ++valid_count[packed / config_.pages_per_block];
  }
  // Block structure (what a decoded snapshot must also satisfy before
  // the FTL may append to it): known states, write pointers inside the
  // block, and the open block — if any — the one kOpen block.
  if (open_block_ != kUnmappedBlock && open_block_ >= blocks_.size())
    return false;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    const BlockInfo& info = blocks_[b];
    if (static_cast<std::uint8_t>(info.state) >
            static_cast<std::uint8_t>(BlockInfo::State::kRetired) ||
        info.write_ptr > config_.pages_per_block ||
        (info.state == BlockInfo::State::kOpen) != (b == open_block_))
      return false;
  }
  for (std::uint64_t phys = 0; phys < p2l_.size(); ++phys) {
    const std::uint64_t lpn = p2l_[phys];
    if (lpn == kUnmapped) continue;
    if (lpn >= l2p_.size() || l2p_[lpn] != phys) return false;
    // Data only below the write pointer.
    if (phys % config_.pages_per_block >=
        blocks_[phys / config_.pages_per_block].write_ptr)
      return false;
  }
  std::uint32_t free_seen = 0;
  std::uint32_t retired_seen = 0;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].valid_pages != valid_count[b]) return false;
    if (blocks_[b].state == BlockInfo::State::kFree) {
      if (valid_count[b] != 0) return false;
      ++free_seen;
    }
    if (blocks_[b].state == BlockInfo::State::kRetired) {
      // A retired block holds no valid data (retire evacuates first; a
      // failed evacuation leaves the block kFull, not kRetired).
      if (valid_count[b] != 0) return false;
      ++retired_seen;
    }
  }
  return free_seen == free_count_ && retired_seen == retired_count_;
}

}  // namespace rdsim::ftl
