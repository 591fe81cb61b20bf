// Golden determinism test: every registered experiment, run tiny at the
// canonical seed, must reproduce a checked-in CRC32 of its CSV output.
//
// This is the regression net under the SoA/batched sense kernel: any
// change to the cell store layout, the draw order, or the sense math
// shifts at least one of these hashes, so it cannot land silently — a PR
// that intentionally changes results must re-golden this table and say
// why. The vectorized sense kernel avoids libm in the per-cell paths and
// the build pins -ffp-contract=off, so the hashes hold across compilers
// and -march levels on the same libm, and across the instruction-set
// variant of VthModel's batch kernels that the CPU selects at run time
// (tests/test_vth_kernels.cc pins each variant to the baseline's bits,
// so a host that runs this table in the AVX-512 variant checks the
// SSE one too). They are NOT libm-independent: the
// program-time draws still use std::exp / std::log (via Rng::normal), so
// a libm whose last-ulp rounding differs from CI's glibc can shift them.
// On such a platform set RDSIM_SKIP_GOLDEN=1 (the thread-determinism and
// batch-vs-scalar bit-identity tests still run there) rather than
// re-goldening.
//
// To (re)generate the table after an intentional change:
//   RDSIM_PRINT_GOLDEN=1 ./tests/test_golden_experiments
// and paste the printed rows over kGolden below, noting the reason in the
// commit message.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "ecc/crc32.h"
#include "sim/experiment.h"

namespace rdsim::sim {
namespace {

/// Same tiny configuration the sim-runner determinism tests use; threads=2
/// is safe because thread count provably does not change results.
ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.seed = 42;
  config.threads = 2;
  config.geometry = nand::Geometry::tiny();
  config.scale = 0.01;
  return config;
}

std::uint32_t csv_crc(const std::string& csv) {
  return ecc::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(csv.data()), csv.size()));
}

struct GoldenEntry {
  const char* name;
  std::uint32_t crc;
};

// Golden CRCs at seed 42, tiny geometry, scale 0.01 (PR 2: first version,
// captured together with the SoA cell store + packed program_random draw
// stream this PR introduced; PR 3 added fig_qos and kept every other
// hash unchanged through the queued-host-interface refactor — fig08's
// FTL op sequence is preserved exactly by the command conversion; PR 4's
// lazy counter-based cell materialization moved the MC draw stream again,
// re-goldening exactly the five chip-backed experiments — fig02, fig09,
// fig10, ablation_rdr, ext_mechanisms — while every analytic hash and
// fig_qos held byte-identical).
// PR 5 added fig_qos_mc (the sharded Monte Carlo drive) and kept every
// existing hash unchanged: the Device facade split, the FlashTimeline
// extraction, and closed-loop slots freed in completion-log order are
// all bit-transparent for single-timeline backends (that order only
// differs from submission order when shard completion times interleave,
// which a single flash timeline cannot produce).
// PR 6 added scenario (the config-driven replay, pinned on its default
// paper-mlc profile) and kept every existing hash unchanged: the
// Servicer generalization of the sharded device and the make_device port of
// fig_qos/fig_qos_mc bring-up are both bit-transparent (one de-striped
// sub-command per shard reproduces the old per-page accumulation chains
// exactly).
// PR 7 added fig_reliability (fault injection vs the ECC/retry/RDR error
// path) and kept every existing hash unchanged: the escalation ladder
// only diverges from the old sense path when a page exceeds the ECC
// capability or a fault knob is nonzero, and no golden run does either
// (all fault RNG streams are draw-free at their zero defaults).
// PR 8 added fig_trace_replay (the MSR sample trace through the replay
// subsystem, both backends and disciplines, pinned to the checked-in
// tests/data file) and kept every existing hash unchanged: trace replay
// is off by default in scenario, and the closed-loop completion sink is
// bit-transparent when unset.
// PR 9 added fig_fleet (the fleet lifetime runner with checkpoint/
// resume) and kept every existing hash unchanged: the fleet layer sits
// above the unchanged Ssd/Ftl simulation, the Ftl snapshot gained a
// version field (format change only — no simulation path touched), and
// the new [fleet] config section defaults to disabled everywhere else.
// PR 10 added fig_qos_tenants (multi-tenant noisy-neighbor isolation
// across the four arbitration policies) and kept every existing hash
// unchanged: under the default FIFO policy the arbitration seam is
// bit-transparent (keys are constant, the sorted service order is the
// submission order, and nothing is ever withheld from service), and no
// pre-existing run configures a [tenants] section.
// Closed-loop replay runs a batch's shard physics ahead of its timing
// (Device::run_closed_loop) and every hash holds: the per-shard service
// order, the stamps and the statistics order equal a drain-per-slot
// driver's, which tests/test_closed_loop.cc checks record by record.
constexpr GoldenEntry kGolden[] = {
    {"fig_fleet", 0x94E36796},
    {"fig_qos_tenants", 0xA506CF6E},
    {"fig_qos", 0x21AD8CF4},
    {"fig_trace_replay", 0x9885A439},
    {"fig_qos_mc", 0xFDC18F1D},
    {"fig_reliability", 0x7D2B1260},
    {"scenario", 0x835C0A43},
    {"fig02", 0xB7A62718},
    {"fig03", 0x3774575E},
    {"fig04", 0xD9633849},
    {"fig05", 0x1DD22858},
    {"fig06", 0x36F9A502},
    {"fig07", 0x640231F6},
    {"fig08", 0x8445DE5E},
    {"fig09", 0x52631BE1},
    {"fig10", 0x9DD61EC4},
    {"fig11", 0xF300A7C5},
    {"fig12", 0x9957B651},
    {"ablation_rdr", 0xF9368953},
    {"ablation_tuning", 0x308DD824},
    {"ext_mechanisms", 0x8AA79E70},
    {"mitigation_compare", 0xCAD938A1},
    {"overheads", 0xB64C085C},
};

const GoldenEntry* find_golden(const char* name) {
  for (const auto& g : kGolden)
    if (std::string_view(g.name) == name) return &g;
  return nullptr;
}

TEST(GoldenExperiments, EveryExperimentMatchesCheckedInHash) {
  if (std::getenv("RDSIM_SKIP_GOLDEN") != nullptr)
    GTEST_SKIP() << "RDSIM_SKIP_GOLDEN set (non-reference libm platform)";
  const bool print = std::getenv("RDSIM_PRINT_GOLDEN") != nullptr;
  for (const auto& e : experiments()) {
    SCOPED_TRACE(e.name);
    const std::string csv = run_experiment(e, golden_config()).to_csv();
    const std::uint32_t crc = csv_crc(csv);
    if (print) {
      std::printf("    {\"%s\", 0x%08X},\n", e.name, crc);
      continue;
    }
    const GoldenEntry* golden = find_golden(e.name);
    ASSERT_NE(golden, nullptr)
        << "experiment \"" << e.name << "\" has no golden hash — run "
        << "RDSIM_PRINT_GOLDEN=1 ./tests/test_golden_experiments and add "
        << "the printed row to kGolden";
    EXPECT_EQ(crc, golden->crc)
        << "output of \"" << e.name << "\" changed (crc 0x" << std::hex
        << crc << " vs golden 0x" << golden->crc << std::dec
        << "). If intentional, re-golden via RDSIM_PRINT_GOLDEN=1 and "
        << "explain the change in the PR.";
  }
}

// The reverse direction: goldens for experiments that no longer exist are
// stale and must be pruned.
TEST(GoldenExperiments, NoStaleGoldenEntries) {
  for (const auto& g : kGolden)
    EXPECT_NE(find_experiment(g.name), nullptr)
        << "golden entry \"" << g.name << "\" matches no experiment";
}

}  // namespace
}  // namespace rdsim::sim
