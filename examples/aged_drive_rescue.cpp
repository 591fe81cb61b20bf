// aged_drive_rescue — apply each of the repository's read-path rescue
// mechanisms to the same badly aged, heavily read block and compare what
// each one recovers:
//
//   * ROR-style Vref learning — re-centers the read references on the
//     shifted distributions (helps both error sources);
//   * RDR  — re-labels disturb-prone cells above a boundary (targets the
//     read-disturb component);
//   * RFR  — re-labels fast-leaking cells below a boundary (targets the
//     retention component; its bake costs extra retention).
//
// The symptom is demonstrated first through the queued host interface
// (a one-chip host::Device): a read command against the aged block comes
// back with a raw error count far beyond what ECC provisions for — that is
// the moment a controller escalates to the offline rescue mechanisms,
// which then operate on the block itself.
//
// Each mechanism is evaluated independently against the factory-reference
// baseline; they are complementary in a real controller (Vref learning in
// the normal read path, RDR/RFR as offline last-resort recovery).
//
// Usage: ./build/examples/aged_drive_rescue [pe] [age_days] [reads]
//        defaults: 10000 P/E, 25 days, 600000 reads
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/rdr.h"
#include "core/rfr.h"
#include "core/vref_optimizer.h"
#include <memory>

#include "host/chip_servicer.h"
#include "host/device.h"
#include "nand/chip.h"

using namespace rdsim;

namespace {

nand::Chip make_block(std::uint32_t pe, double age, double reads,
                      std::uint32_t wl) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry::characterization(), params, 2024);
  auto& block = chip.block(0);
  block.add_wear(pe);
  block.program_random();
  block.advance_time(age);
  block.apply_reads(wl + 1, reads);
  return chip;
}

}  // namespace

int main(int argc, char** argv) {
  const auto pe = static_cast<std::uint32_t>(
      argc > 1 ? std::atoi(argv[1]) : 10000);
  const double age = argc > 2 ? std::atof(argv[2]) : 25.0;
  const double reads = argc > 3 ? std::atof(argv[3]) : 600e3;
  const std::uint32_t wl = 30;
  const auto params = flash::FlashModelParams::default_2ynm();

  std::printf("block: %u P/E cycles, %.0f days retention, %.0f read "
              "disturbs; victim wordline %u\n\n", pe, age, reads, wl);

  // The host-visible symptom: a queued read of the victim page reports a
  // raw error count the drive's ECC cannot absorb.
  {
    host::Device device(std::make_unique<host::ChipServicer>(
        nand::Geometry::characterization(), params, 2024,
        host::LatencyParams{}));
    auto& block = device.shard_chip(0).block(0);
    block.erase();
    block.add_wear(pe);
    block.program_random();
    block.advance_time(age);
    block.apply_reads(wl + 1, reads);

    host::Command read;
    read.kind = host::CommandKind::kRead;
    read.lpn = 2ull * wl + 1;  // The victim wordline's MSB page.
    device.submit(read);
    std::vector<host::Completion> done;
    device.drain(&done);
    std::printf("host read of the victim page: %llu raw bit errors in "
                "%.0f us\n  %s\n\n",
                static_cast<unsigned long long>(device.read_bit_errors()),
                done[0].latency_s() * 1e6, host::to_string(done[0]).c_str());
  }

  std::printf("%-24s %12s %12s %10s\n", "mechanism", "errors", "delta",
              "relabeled");

  int baseline = 0;
  {
    auto chip = make_block(pe, age, reads, wl);
    const auto refs = core::VrefOptimizer::defaults(chip.block(0));
    baseline =
        core::VrefOptimizer::count_errors_with_refs(chip.block(0), wl, refs);
    std::printf("%-24s %12d %12s %10s\n", "factory refs (baseline)",
                baseline, "-", "-");
  }
  {
    auto chip = make_block(pe, age, reads, wl);
    const core::VrefOptimizer optimizer;
    const auto learned = optimizer.learn(chip.block(0), wl);
    const int errors = core::VrefOptimizer::count_errors_with_refs(
        chip.block(0), wl, learned);
    std::printf("%-24s %12d %+12d %10s\n", "learned refs (ROR)", errors,
                errors - baseline, "-");
  }
  {
    auto chip = make_block(pe, age, reads, wl);
    const auto r = core::ReadDisturbRecovery().recover(chip.block(0), wl);
    std::printf("%-24s %12d %+12d %10d\n", "RDR (disturb errors)",
                r.errors_after, r.errors_after - baseline, r.cells_relabeled);
  }
  {
    auto chip = make_block(pe, age, reads, wl);
    const auto r = core::RetentionFailureRecovery().recover(chip.block(0), wl);
    std::printf("%-24s %12d %+12d %10d\n", "RFR (retention errors)",
                r.errors_after, r.errors_after - baseline, r.cells_relabeled);
  }
  return 0;
}
