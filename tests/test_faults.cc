// Fault injection and graceful degradation: the FTL's grown-defect
// management (program/erase failures, spare exhaustion, read-only
// freeze), the MC chip's latent pages and die kill, and the determinism
// of it all across worker counts. The bit-transparency of the zero-fault
// defaults is pinned separately by test_golden_experiments.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfg/spec.h"
#include "flash/params.h"
#include "ftl/ftl.h"
#include "host/chip_servicer.h"
#include "host/device.h"
#include "host/factory.h"
#include "host/ssd_servicer.h"
#include "ssd/ssd.h"

namespace rdsim {
namespace {

ftl::FtlConfig small_ftl() {
  ftl::FtlConfig cfg;
  cfg.blocks = 32;
  cfg.pages_per_block = 8;
  cfg.overprovision = 0.25;
  cfg.gc_free_target = 2;
  cfg.spare_blocks = 2;
  return cfg;
}

TEST(FtlFaults, CertainProgramFailureExhaustsSparesThenFreezes) {
  ftl::FtlConfig cfg = small_ftl();
  cfg.program_fail_prob = 1.0;
  ftl::Ftl ftl(cfg, 7);
  // Every host page write fails its program and retires the open block;
  // the data relocates to a fresh block, so the write itself still
  // succeeds — until the third retirement exhausts spare_blocks = 2 and
  // the drive freezes.
  std::uint32_t blk = ftl::Ftl::kUnmappedBlock;
  EXPECT_EQ(ftl.write_page(0, &blk), ftl::WriteResult::kOk);
  EXPECT_NE(blk, ftl::Ftl::kUnmappedBlock);
  EXPECT_EQ(ftl.write_page(1, &blk), ftl::WriteResult::kOk);
  EXPECT_EQ(ftl.write_page(2, &blk), ftl::WriteResult::kOk);
  EXPECT_EQ(ftl.retired_blocks(), 3u);
  EXPECT_TRUE(ftl.read_only());
  // Frozen: writes are rejected without drawing faults or moving data,
  // reads of the relocated pages still resolve.
  EXPECT_EQ(ftl.write_page(3, &blk), ftl::WriteResult::kReadOnly);
  EXPECT_EQ(blk, ftl::Ftl::kUnmappedBlock);
  EXPECT_EQ(ftl.stats().program_failures, 3u);
  EXPECT_NE(ftl.read(0), ftl::Ftl::kUnmappedBlock);
  EXPECT_NE(ftl.read(2), ftl::Ftl::kUnmappedBlock);
  EXPECT_TRUE(ftl.check_invariants());
}

TEST(FtlFaults, EraseFailuresRetireInPlaceAndGcStillTerminates) {
  ftl::FtlConfig cfg = small_ftl();
  cfg.erase_fail_prob = 1.0;
  ftl::Ftl ftl(cfg, 7);
  // Overwrite the logical space repeatedly: GC must reclaim, and every
  // erase it issues fails and retires the victim. The loop must
  // terminate (no free-count livelock) and land in read-only mode with
  // the invariants intact.
  const std::uint64_t logical = cfg.logical_pages();
  for (int pass = 0; pass < 6; ++pass) {
    for (std::uint64_t lpn = 0; lpn < logical; ++lpn) {
      std::uint32_t blk = ftl::Ftl::kUnmappedBlock;
      if (ftl.write_page(lpn, &blk) == ftl::WriteResult::kReadOnly) break;
    }
  }
  EXPECT_GT(ftl.stats().erase_failures, 0u);
  EXPECT_GT(ftl.retired_blocks(), cfg.spare_blocks);
  EXPECT_TRUE(ftl.read_only());
  for (std::uint32_t b = 0; b < ftl.block_count(); ++b) {
    if (ftl.block(b).state == ftl::BlockInfo::State::kRetired) {
      EXPECT_EQ(ftl.block(b).valid_pages, 0u);
    }
  }
  EXPECT_TRUE(ftl.check_invariants());
}

TEST(FtlFaults, SnapshotRoundTripsRetirementState) {
  ftl::FtlConfig cfg = small_ftl();
  cfg.program_fail_prob = 0.2;
  ftl::Ftl ftl(cfg, 11);
  const std::uint64_t logical = cfg.logical_pages();
  for (int pass = 0; pass < 4; ++pass)
    for (std::uint64_t lpn = 0; lpn < logical; ++lpn) {
      std::uint32_t blk = ftl::Ftl::kUnmappedBlock;
      ftl.write_page(lpn, &blk);
    }
  ASSERT_GT(ftl.retired_blocks(), 0u);
  ASSERT_TRUE(ftl.check_invariants());

  const std::vector<std::uint8_t> snap = ftl.snapshot();
  ftl::Ftl restored(cfg, 999);  // Different seed: state comes from snap.
  ASSERT_TRUE(restored.restore(snap));
  EXPECT_EQ(restored.retired_blocks(), ftl.retired_blocks());
  EXPECT_EQ(restored.read_only(), ftl.read_only());
  EXPECT_TRUE(restored.check_invariants());
  for (std::uint32_t b = 0; b < ftl.block_count(); ++b)
    EXPECT_EQ(static_cast<int>(restored.block(b).state),
              static_cast<int>(ftl.block(b).state));
  for (std::uint64_t lpn = 0; lpn < logical; ++lpn)
    EXPECT_EQ(restored.read(lpn), ftl.read(lpn));
}

/// Submits one command and drains its completion.
host::Completion roundtrip(host::Device& device, host::CommandKind kind,
                           std::uint64_t lpn) {
  host::Command c;
  c.kind = kind;
  c.lpn = lpn;
  device.submit(c);
  std::vector<host::Completion> done;
  EXPECT_EQ(device.drain(&done), 1u);
  return done.front();
}

TEST(DeviceFaults, ReadOnlyDriveCompletesWritesWithReadOnlyStatus) {
  // The acceptance path: a device whose FTL exhausted its spares must
  // COMPLETE subsequent writes with kReadOnly — not drop, not crash.
  cfg::DriveSpec drive;
  drive.backend = cfg::Backend::kAnalytic;
  drive.blocks = 32;
  drive.pages_per_block = 8;
  drive.overprovision = 0.25;
  drive.gc_free_target = 2;
  drive.spare_blocks = 1;
  drive.faults.program_fail_prob = 1.0;
  const auto device = host::make_device(drive, 5, 1);
  const ssd::Ssd& ssd =
      static_cast<host::SsdServicer&>(device->shard_servicer(0)).ssd();

  // Two failing writes retire two blocks > spare_blocks = 1: frozen.
  EXPECT_EQ(roundtrip(*device, host::CommandKind::kWrite, 0).status,
            host::Status::kOk);
  EXPECT_EQ(roundtrip(*device, host::CommandKind::kWrite, 1).status,
            host::Status::kOk);
  ASSERT_TRUE(ssd.ftl().read_only());
  for (std::uint64_t lpn = 2; lpn < 10; ++lpn) {
    const host::Completion c =
        roundtrip(*device, host::CommandKind::kWrite, lpn);
    EXPECT_EQ(c.status, host::Status::kReadOnly) << host::to_string(c);
    EXPECT_EQ(c.error_pages, 1u);
  }
  // Reads and trims still work on the frozen drive.
  EXPECT_EQ(roundtrip(*device, host::CommandKind::kRead, 0).status,
            host::Status::kOk);
  EXPECT_EQ(roundtrip(*device, host::CommandKind::kTrim, 5).status,
            host::Status::kOk);
  EXPECT_EQ(device->stats().commands(host::Status::kReadOnly), 8u);
  EXPECT_EQ(ssd.stats().host_readonly_writes, 8u);
}

TEST(DeviceFaults, LatentPageFailsWholeLadderWithRecoveryLatency) {
  // A latent page is physically dead: the ladder runs every step (retry,
  // then RDR), charges their flash time, and still reports
  // kUncorrectable.
  const nand::Geometry geometry{4, 128, 2};
  const auto params = flash::FlashModelParams::default_2ynm();
  host::ChipFaults faults;
  faults.latent_page_prob = 1.0;
  host::Device device(std::make_unique<host::ChipServicer>(
      geometry, params, 3, host::LatencyParams{}, host::ChipErrorPath{},
      faults));

  const host::Completion ok_free = roundtrip(
      device, host::CommandKind::kTrim, 0);  // Metadata-only: no ladder.
  EXPECT_EQ(ok_free.status, host::Status::kOk);

  const host::Completion c = roundtrip(device, host::CommandKind::kRead, 0);
  EXPECT_EQ(c.status, host::Status::kUncorrectable) << host::to_string(c);
  EXPECT_EQ(c.error_pages, 1u);
  const host::ErrorStats es = device.error_stats();
  EXPECT_EQ(es.reads_uncorrectable, 1u);
  EXPECT_EQ(es.retry_attempts, 1u);
  EXPECT_EQ(es.rdr_attempts, 1u);
  EXPECT_GT(es.retry_seconds, 0.0);
  EXPECT_GT(es.rdr_seconds, 0.0);
  // The recovery attempts' flash time is in the completion's latency.
  EXPECT_GE(c.latency_s(), es.retry_seconds + es.rdr_seconds);
  EXPECT_EQ(device.stats().error_pages(), 1u);
  EXPECT_GT(device.stats().uber(static_cast<double>(geometry.bitlines)),
            0.0);
}

TEST(DeviceFaults, DieKillFlipsChipAtItsDay) {
  const nand::Geometry geometry{4, 128, 2};
  const auto params = flash::FlashModelParams::default_2ynm();
  host::ChipFaults faults;
  faults.die_kill_day = 1.0;
  host::Device device(std::make_unique<host::ChipServicer>(
      geometry, params, 3, host::LatencyParams{}, host::ChipErrorPath{},
      faults));

  EXPECT_EQ(roundtrip(device, host::CommandKind::kRead, 0).status,
            host::Status::kOk);
  EXPECT_EQ(roundtrip(device, host::CommandKind::kWrite, 0).status,
            host::Status::kOk);
  device.end_of_day();  // Day 1 arrives: the chip dies.
  EXPECT_EQ(roundtrip(device, host::CommandKind::kRead, 0).status,
            host::Status::kUncorrectable);
  EXPECT_EQ(roundtrip(device, host::CommandKind::kWrite, 0).status,
            host::Status::kFailedWrite);
  const host::ErrorStats es = device.error_stats();
  EXPECT_EQ(es.reads_uncorrectable, 1u);
  EXPECT_EQ(es.writes_failed, 1u);
  // Dead reads fail fast: no recovery steps are attempted on a dead die.
  EXPECT_EQ(es.retry_attempts, 0u);
  EXPECT_EQ(es.rdr_attempts, 0u);
}

cfg::DriveSpec sharded_mc_with_faults() {
  cfg::DriveSpec drive;
  drive.backend = cfg::Backend::kShardedMc;
  drive.shards = 2;
  drive.blocks = 2;
  drive.wordlines_per_block = 4;
  drive.bitlines = 128;
  return drive;
}

TEST(DeviceFaults, DieKillTargetsOnlyTheConfiguredShard) {
  cfg::DriveSpec drive = sharded_mc_with_faults();
  drive.faults.die_kill_shard = 1;
  drive.faults.die_kill_day = 1.0;
  const auto device_ptr = host::make_device(drive, 9, 2);
  host::Device& device = *device_ptr;
  device.end_of_day();

  // Even lpns live on shard 0 (alive), odd on shard 1 (dead).
  EXPECT_EQ(roundtrip(device, host::CommandKind::kRead, 0).status,
            host::Status::kOk);
  EXPECT_EQ(roundtrip(device, host::CommandKind::kRead, 1).status,
            host::Status::kUncorrectable);
  // A striped command spanning both shards reports the worst per-shard
  // outcome but only the dead shard's pages as errors.
  host::Command wide;
  wide.kind = host::CommandKind::kRead;
  wide.lpn = 0;
  wide.pages = 8;
  device.submit(wide);
  std::vector<host::Completion> done;
  ASSERT_EQ(device.drain(&done), 1u);
  EXPECT_EQ(done[0].status, host::Status::kUncorrectable);
  EXPECT_EQ(done[0].error_pages, 4u);
  // Shard 1 saw the single read of lpn 1 plus the wide command's 4 odd
  // pages; shard 0 saw no errors at all.
  EXPECT_EQ(device.shard_error_stats(0).reads_uncorrectable, 0u);
  EXPECT_EQ(device.shard_error_stats(1).reads_uncorrectable, 5u);
}

TEST(DeviceFaults, LatentInjectionIsWorkerCountInvariant) {
  // The fault draws are counter-based on (seed, page, program epoch), so
  // the completion log of a faulty sharded drive is byte-identical for
  // any worker count.
  cfg::DriveSpec drive = sharded_mc_with_faults();
  drive.shards = 4;
  drive.faults.latent_page_prob = 0.05;
  const auto run = [&](int workers) {
    const auto device = host::make_device(drive, 21, workers);
    std::string log;
    std::vector<host::Completion> done;
    const std::uint64_t logical = device->logical_pages();
    for (std::uint64_t i = 0; i < 3 * logical; ++i) {
      host::Command c;
      c.kind = (i % 5 == 4) ? host::CommandKind::kWrite
                            : host::CommandKind::kRead;
      c.lpn = (i * 13) % logical;
      c.pages = 1 + static_cast<std::uint32_t>(i % 3);
      device->submit(c);
    }
    device->drain(&done);
    for (const auto& c : done) log += host::to_string(c) + "\n";
    return log;
  };
  const std::string serial = run(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("uncorrectable"), std::string::npos);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace rdsim
