// quickstart — a ten-minute tour of rdsim's public API.
//
// 1. Build a simulated 2Y-nm MLC NAND chip and wear a block to 8K P/E.
// 2. Program it and watch read disturb push the raw bit error rate up.
// 3. Mitigate: let the Vpass Tuning controller pick a lower pass-through
//    voltage and compare the disturb accumulation.
// 4. Recover: push the block past ECC's limit and let RDR pull the errors
//    back into correctable range.
// 5. Drive the same Monte Carlo cells through the NVMe-style queued host
//    interface (a one-chip host::Device): typed commands in,
//    per-command completion records out.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "core/rdr.h"
#include "core/vpass_tuning.h"
#include "ecc/ecc_model.h"
#include "flash/rber_model.h"
#include "host/chip_servicer.h"
#include "host/device.h"
#include "nand/chip.h"

using namespace rdsim;

int main() {
  const auto params = flash::FlashModelParams::default_2ynm();

  // --- 1. A chip with one characterization block at 8K P/E -----------------
  nand::Chip chip(nand::Geometry::characterization(), params, /*seed=*/7);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();
  std::printf("block: %u wordlines x %u bitlines, %u P/E cycles\n",
              block.geometry().wordlines_per_block, block.geometry().bitlines,
              block.pe_cycles());

  // --- 2. Read disturb in action -------------------------------------------
  const nand::PageAddress victim{30, nand::PageKind::kMsb};
  std::printf("\nread disturb at nominal Vpass (%.0f):\n",
              params.vpass_nominal);
  std::printf("%12s %12s\n", "reads", "page errors");
  for (const double reads : {0.0, 100e3, 300e3, 1e6}) {
    nand::Chip fresh(nand::Geometry::characterization(), params, 7);
    auto& b = fresh.block(0);
    b.add_wear(8000);
    b.program_random();
    b.apply_reads(victim.wordline + 1, reads);
    std::printf("%12.0f %12d\n", reads, b.count_errors(victim));
  }

  // --- 3. Mitigation: Vpass Tuning -----------------------------------------
  const ecc::EccModel ecc{ecc::EccConfig::mc_provisioning()};
  core::McBlockProbe probe(block);
  core::VpassTuningController controller(ecc, params.vpass_nominal);
  const auto decision = controller.relearn(probe);
  std::printf("\nVpass Tuning: worst page has %d errors, margin %d bits\n",
              decision.mee, decision.margin);
  std::printf("  -> tuned Vpass %.0f (%.1f%% below nominal)\n", decision.vpass,
              (1.0 - decision.vpass / params.vpass_nominal) * 100.0);

  // Same disturb dose, tuned vs nominal pass-through voltage.
  for (const bool tuned : {false, true}) {
    nand::Chip fresh(nand::Geometry::characterization(), params, 7);
    auto& b = fresh.block(0);
    b.add_wear(8000);
    b.program_random();
    if (tuned) b.set_vpass(decision.vpass);
    b.apply_reads(victim.wordline + 1, 1e6);
    std::printf("  1M reads at %s Vpass: %d errors on the victim page\n",
                tuned ? "tuned  " : "nominal", b.count_errors(victim));
  }

  // --- 4. Recovery: RDR ------------------------------------------------------
  block.apply_reads(victim.wordline + 1, 1e6);
  const core::ReadDisturbRecovery rdr;
  const auto result = rdr.recover(block, victim.wordline);
  std::printf("\nRDR on the disturbed wordline:\n");
  std::printf("  raw errors before: %d (RBER %.2e)\n", result.errors_before,
              result.rber_before());
  std::printf("  raw errors after:  %d (RBER %.2e, %.0f%% reduction)\n",
              result.errors_after, result.rber_after(),
              (1.0 - result.rber_after() / result.rber_before()) * 100.0);
  std::printf("  %d boundary cells examined, %d re-labeled\n",
              result.cells_in_window, result.cells_relabeled);

  // --- 5. The queued host interface ----------------------------------------
  // The same physics, driven the way a host drives a drive: submit typed
  // commands into submission queues, drain completion records back.
  host::Device device(
      std::make_unique<host::ChipServicer>(nand::Geometry::tiny(), params,
                                           /*seed=*/7, host::LatencyParams{}),
      /*queue_count=*/2);
  host::Command read;
  read.kind = host::CommandKind::kRead;
  read.pages = 4;
  for (std::uint16_t q = 0; q < 2; ++q) {
    read.lpn = q * 16;
    read.queue = q;
    device.submit(read);
  }
  std::vector<host::Completion> completions;
  device.drain(&completions);
  std::printf("\nqueued host interface (%u queues, %llu logical pages):\n",
              device.queue_count(),
              static_cast<unsigned long long>(device.logical_pages()));
  for (const auto& c : completions)
    std::printf("  %s\n", host::to_string(c).c_str());
  std::printf("  %llu pages read, %llu raw bit errors observed by the "
              "host path\n",
              static_cast<unsigned long long>(device.pages_read()),
              static_cast<unsigned long long>(device.read_bit_errors()));
  return 0;
}
