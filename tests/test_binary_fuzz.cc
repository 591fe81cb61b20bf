// Seeded mutation fuzz for the binary loaders: the fleet checkpoint
// container (RDFC) behind FleetRunner::from_checkpoint, and the FTL and
// SSD snapshots behind Ftl::restore and Ssd::restore. Seeds are real
// snapshots of small drives that have run a while; mutants get bit
// flips, insertions, deletions and multi-byte edits (random runs and
// whole words set to boundary values) from a fixed Rng stream, so a
// failure reproduces exactly. Half of the mutants are resealed — their
// CRCs recomputed after the edit — so they reach the structural checks
// behind the CRC instead of all dying at it. Three properties:
//   1. nothing crashes (the sanitizer build runs this test unchanged),
//      including when an accepted snapshot is then driven further;
//   2. every mutant is accepted or rejected with a diagnostic naming the
//      format ("ftl snapshot", "ssd snapshot", "checkpoint");
//   3. a rejected restore changes nothing: the target's own snapshot is
//      byte-identical before and after, and unpack_checkpoint leaves its
//      outputs untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ecc/crc32.h"
#include "flash/params.h"
#include "fleet/checkpoint.h"
#include "fleet/fleet.h"
#include "ftl/ftl.h"
#include "host/command.h"
#include "ssd/ssd.h"
#include "workload/profiles.h"

namespace rdsim {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Mutants per loader; about 1 s in total in a Release build.
constexpr int kFtlMutants = 20000;
constexpr int kSsdMutants = 6000;
constexpr int kCheckpointMutants = 1000;

/// Writes `value`'s low `width` bytes at `pos` (clipped to the buffer).
void put_word(Bytes* s, std::size_t pos, std::uint64_t value,
              std::size_t width) {
  for (std::size_t i = 0; i < width && pos + i < s->size(); ++i)
    (*s)[pos + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/// Applies 1-4 random edits: a bit flip, an insertion or deletion of a
/// run, a run overwritten with random bytes, or an aligned 4- or 8-byte
/// word set to a boundary value (the counts and indices a loader must
/// bound-check).
Bytes mutate(Bytes s, Rng& rng) {
  static constexpr std::uint64_t kWords[] = {
      0, 1, 2, 3, 4, 0x7f, 0xff, 0x7fffffff, 0x80000000, 0xffffffff,
      0xfffffffe, 0x7fffffffffffffffULL, 0xffffffffffffffffULL,
      0x7ff0000000000000ULL /* +inf */, 0x7ff8000000000000ULL /* NaN */};
  const int edits = 1 + static_cast<int>(rng.uniform_u64(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_u64(s.size() + 1);
    const std::size_t run = 1 + rng.uniform_u64(8);
    switch (rng.uniform_u64(5)) {
      case 0:
        if (pos < s.size())
          s[pos] = static_cast<std::uint8_t>(s[pos] ^
                                             (1u << rng.uniform_u64(8)));
        break;
      case 1:
        for (std::size_t i = 0; i < run; ++i)
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<std::uint8_t>(rng.uniform_u64(256)));
        break;
      case 2:
        if (pos < s.size())
          s.erase(s.begin() + static_cast<std::ptrdiff_t>(pos),
                  s.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(s.size(), pos + run)));
        break;
      case 3:
        for (std::size_t i = 0; i < run && pos + i < s.size(); ++i)
          s[pos + i] = static_cast<std::uint8_t>(rng.uniform_u64(256));
        break;
      default: {
        const std::size_t width = rng.bernoulli(0.5) ? 4 : 8;
        put_word(&s, pos / width * width,
                 kWords[rng.uniform_u64(std::size(kWords))], width);
        break;
      }
    }
  }
  return s;
}

/// Recomputes a trailing CRC32 over everything before it (the FTL and
/// SSD snapshot framing).
void reseal(Bytes* s) {
  if (s->size() < 4) return;
  const std::size_t body = s->size() - 4;
  const std::uint32_t crc = ecc::crc32({s->data(), body});
  std::memcpy(s->data() + body, &crc, sizeof(crc));
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

// --- FTL ---------------------------------------------------------------

ftl::FtlConfig small_ftl() {
  ftl::FtlConfig c;
  c.blocks = 12;
  c.pages_per_block = 8;
  c.overprovision = 0.25;
  c.gc_free_target = 2;
  c.spare_blocks = 2;
  c.program_fail_prob = 0.01;
  return c;
}

/// Random host traffic plus the FTL's maintenance passes.
void drive_ftl(ftl::Ftl* f, Rng& rng, int ops) {
  const std::uint64_t lpns = f->config().logical_pages();
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t lpn = rng.uniform_u64(lpns);
    switch (rng.uniform_u64(6)) {
      case 0:
      case 1:
        f->write(lpn);
        break;
      case 2:
        f->read(lpn);
        break;
      case 3:
        f->trim(lpn);
        break;
      case 4:
        f->collect_garbage();
        break;
      default:
        f->advance_time(2.0);
        for (const std::uint32_t b : f->blocks_due_refresh())
          f->refresh_block(b);
        break;
    }
  }
}

TEST(BinaryFuzz, FtlSnapshotMutants) {
  Rng rng(101);
  ftl::Ftl source(small_ftl(), 3);
  drive_ftl(&source, rng, 300);
  const Bytes seed = source.snapshot();
  ftl::Ftl target(small_ftl(), 4);
  drive_ftl(&target, rng, 120);
  const Bytes before = target.snapshot();

  Tally tally;
  for (int i = 0; i < kFtlMutants; ++i) {
    Bytes mutant = mutate(seed, rng);
    if (rng.bernoulli(0.5)) reseal(&mutant);
    ftl::Ftl restored = target;
    std::string error;
    if (restored.restore(mutant, &error)) {
      ++tally.accepted;
      ASSERT_TRUE(restored.check_invariants()) << "mutant " << i;
      drive_ftl(&restored, rng, 20);
      ASSERT_TRUE(restored.check_invariants()) << "mutant " << i;
    } else {
      ++tally.rejected;
      ASSERT_TRUE(starts_with(error, "ftl snapshot")) << error;
      ASSERT_EQ(restored.snapshot(), before) << "partial apply: " << error;
    }
  }
  // Resealed edits to plain counters decode, so both outcomes occur.
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, kFtlMutants / 2);
}

// --- SSD ---------------------------------------------------------------

ssd::SsdConfig small_ssd() {
  ssd::SsdConfig c;
  c.ftl = small_ftl();
  return c;
}

void drive_ssd(ssd::Ssd* s, Rng& rng, int days) {
  const std::uint64_t lpns = s->config().ftl.logical_pages();
  for (int d = 0; d < days; ++d) {
    for (int i = 0; i < 16; ++i) {
      host::Command c;
      c.kind = rng.bernoulli(0.5) ? host::CommandKind::kWrite
                                  : host::CommandKind::kRead;
      c.lpn = rng.uniform_u64(lpns);
      s->service(c);
    }
    s->end_of_day();
  }
}

TEST(BinaryFuzz, SsdSnapshotMutants) {
  const auto params = flash::FlashModelParams::default_2ynm();
  Rng rng(202);
  ssd::Ssd source(small_ssd(), params, 5);
  drive_ssd(&source, rng, 6);
  const Bytes seed = source.snapshot();
  ssd::Ssd target(small_ssd(), params, 6);
  drive_ssd(&target, rng, 3);
  const Bytes before = target.snapshot();

  Tally tally;
  for (int i = 0; i < kSsdMutants; ++i) {
    Bytes mutant = mutate(seed, rng);
    if (rng.bernoulli(0.5)) reseal(&mutant);
    ssd::Ssd restored = target;
    std::string error;
    if (restored.restore(mutant, &error)) {
      ++tally.accepted;
      ASSERT_TRUE(restored.ftl().check_invariants()) << "mutant " << i;
      drive_ssd(&restored, rng, 1);
    } else {
      ++tally.rejected;
      ASSERT_TRUE(starts_with(error, "ssd snapshot")) << error;
      ASSERT_EQ(restored.snapshot(), before) << "partial apply: " << error;
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, kSsdMutants / 2);
}

// --- Fleet checkpoint ----------------------------------------------------

cfg::ScenarioSpec tiny_fleet() {
  cfg::ScenarioSpec spec;
  spec.name = "fuzz";
  spec.drive.backend = cfg::Backend::kAnalytic;
  spec.drive.blocks = 12;
  spec.drive.pages_per_block = 8;
  spec.drive.overprovision = 0.25;
  spec.drive.gc_free_target = 2;
  spec.drive.spare_blocks = 1;
  spec.drive.queue_count = 1;
  spec.workload.profile = workload::profile_by_name("fiu-web-vm");
  spec.workload.profile.daily_page_ios = 200.0;
  spec.fleet.drives = 2;
  spec.fleet.years = 4.0 / 365.0;
  spec.fleet.report_interval_days = 2;
  spec.fleet.teardown_every = 2;
  spec.fleet.pe_fail_prob_median = 3e-3;
  spec.fleet.replace_failed = true;
  spec.fleet.rebuild_days = 1.0;
  return spec;
}

TEST(BinaryFuzz, FleetCheckpointMutants) {
  constexpr std::uint64_t kSeed = 9;
  const cfg::ScenarioSpec spec = tiny_fleet();
  ThreadPool pool(1);
  fleet::FleetRunner runner(spec, kSeed, pool);
  runner.run_epoch();
  const Bytes seed = runner.checkpoint();
  std::vector<fleet::CheckpointSection> sections;
  std::uint32_t digest = 0;
  std::string error;
  ASSERT_TRUE(fleet::unpack_checkpoint(seed, &digest, &sections, &error))
      << error;

  Rng rng(303);
  Tally tally;
  for (int i = 0; i < kCheckpointMutants; ++i) {
    Bytes mutant;
    if (rng.bernoulli(0.5)) {
      // Resealed: one section's payload edited, then repacked with
      // fresh CRCs.
      std::vector<fleet::CheckpointSection> edited = sections;
      auto& s = edited[rng.uniform_u64(edited.size())];
      s.payload = mutate(s.payload, rng);
      mutant = fleet::pack_checkpoint(digest, edited);
    } else {
      mutant = mutate(seed, rng);
    }

    // The container never half-writes its outputs.
    std::uint32_t out_digest = 0xdeadbeef;
    std::vector<fleet::CheckpointSection> out(1);
    out[0].tag = 7;
    std::string unpack_error;
    if (!fleet::unpack_checkpoint(mutant, &out_digest, &out, &unpack_error)) {
      ASSERT_TRUE(starts_with(unpack_error, "checkpoint")) << unpack_error;
      ASSERT_EQ(out_digest, 0xdeadbeefU);
      ASSERT_EQ(out.size(), 1U);
      ASSERT_EQ(out[0].tag, 7U);
    }

    std::string resume_error;
    auto resumed =
        fleet::FleetRunner::from_checkpoint(mutant, spec, kSeed, pool,
                                            &resume_error);
    if (resumed != nullptr) {
      ++tally.accepted;
      while (!resumed->done()) resumed->run_epoch();
      (void)resumed->table().to_csv();
    } else {
      ++tally.rejected;
      ASSERT_TRUE(starts_with(resume_error, "checkpoint")) << resume_error;
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, kCheckpointMutants / 2);
}

}  // namespace
}  // namespace rdsim
