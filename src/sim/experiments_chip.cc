// Monte-Carlo chip experiments: the figures that drive the per-cell
// nand::Chip model. Independent measurement points (read counts, option
// values, ages) are swept over the pool (ExperimentContext::sweep), so
// results are byte-identical for any --threads value. All wordline indices
// are derived from the geometry, so the same experiments run on
// Geometry::tiny() in the unit tests.
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "core/rdr.h"
#include "core/rfr.h"
#include "core/vref_optimizer.h"
#include "dram/rowhammer.h"
#include "ecc/ecc_model.h"
#include "flash/rber_model.h"
#include "nand/chip.h"
#include "sim/experiments.h"

namespace rdsim::sim {
namespace {

/// The victim wordline the experiments observe; disturbs are addressed at
/// its sibling. Same mid-block position as the benches' wordline 30 of 64,
/// scaled to the geometry.
std::uint32_t mid_wl(const nand::Geometry& g) {
  return g.wordlines_per_block * 30 / 64;
}

/// A freshly programmed characterization block at `pe` P/E cycles.
/// Cheap to call per measurement point: programming is bookkeeping-only
/// and cells materialize lazily, so a point that senses one wordline pays
/// for one wordline — not the whole block (the experiments below rebuild
/// the same chip seed at every x-value precisely to isolate the dose).
nand::Chip make_aged_chip(const nand::Geometry& g,
                          const flash::FlashModelParams& params,
                          std::uint64_t seed, std::uint32_t pe) {
  nand::Chip chip(g, params, seed);
  auto& block = chip.block(0);
  block.add_wear(pe);
  block.program_random();
  return chip;
}

Histogram scan_distribution(const nand::Geometry& g, double reads,
                            std::uint64_t seed) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip = make_aged_chip(g, params, seed, 8000);
  auto& block = chip.block(0);
  Histogram hist(0.0, 520.0, 130);  // 4-unit bins, like the retry grid.
  const auto wls = block.geometry().wordlines_per_block;
  // Disturb all wordlines by addressing reads at a rotating sibling, then
  // scan a sample of wordlines.
  if (reads > 0) {
    for (std::uint32_t w = 0; w < wls; ++w) block.apply_reads(w, reads / wls);
  }
  for (std::uint32_t w = 0; w < wls; w += 4) {
    const auto scan = block.read_retry_scan(w, 0.0, 520.0, 2.0);
    for (const double v : scan) hist.add(v);
  }
  return hist;
}

}  // namespace

Table run_fig02(ExperimentContext& ctx) {
  const std::vector<double> read_counts = {0.0, 250e3, 500e3, 1e6};
  const nand::Geometry g = ctx.geometry();
  // One block measured at each disturb level: every shard rebuilds the
  // *same* chip (shared seed) so the distributions differ only by the
  // applied reads, exactly like the paper's repeated measurements.
  const std::uint64_t chip_seed = ctx.seed();
  const auto hists = ctx.sweep(read_counts, [&](double reads, Rng&) {
    return scan_distribution(g, reads, chip_seed);
  });

  Table table;
  table.comment(
      "Fig 2: Vth distribution before/after read disturb "
      "(8K P/E block, normalized scale, Vpass nominal = 512)");
  table.row("vth,pdf_0,pdf_250k,pdf_500k,pdf_1m");
  for (std::size_t i = 0; i < hists[0].bin_count(); ++i) {
    std::string row = strf("%.1f", hists[0].bin_center(i));
    for (const auto& h : hists) row += strf(",%.6g", h.pdf(i));
    table.row(row);
  }

  // Fig. 2b companion: mean ER-state voltage per read count (quantifies
  // the "shift increases with reads, larger for lower Vth" finding).
  table.new_section();
  table.comment("Fig 2b summary: ER-region (v < 105) mean Vth vs reads");
  table.row("reads,er_mean_vth");
  for (std::size_t k = 0; k < read_counts.size(); ++k) {
    double mass = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < hists[k].bin_count(); ++i) {
      if (hists[k].bin_center(i) >= 105.0) break;
      sum += hists[k].bin_center(i) * hists[k].mass(i);
      mass += hists[k].mass(i);
    }
    table.row(
        strf("%.0f,%.2f", read_counts[k], mass > 0 ? sum / mass : 0.0));
  }
  return table;
}

Table run_fig09(ExperimentContext& ctx) {
  const auto params = flash::FlashModelParams::default_2ynm();
  const nand::Geometry g = ctx.geometry();
  Rng rng = ctx.next_stream();
  nand::Chip chip = make_aged_chip(g, params, rng.next(), 8000);
  auto& block = chip.block(0);
  // An early-block wordline, like the bench's wordline 10 of 64.
  const std::uint32_t wl = g.wordlines_per_block / 6;

  Table table;
  table.comment(strf("Fig 9: ER/P1 distributions before/after read disturb "
                     "(Va = %.0f)",
                     params.vref_a));

  const auto emit = [&](const char* tag) {
    Histogram er(0.0, 200.0, 100), p1(0.0, 200.0, 100);
    const auto scan = block.read_retry_scan(wl, 0.0, 520.0, 1.0);
    for (std::uint32_t bl = 0; bl < block.geometry().bitlines; ++bl) {
      const flash::CellState programmed = block.cell_state(wl, bl);
      if (programmed == flash::CellState::kEr)
        er.add(scan[bl]);
      else if (programmed == flash::CellState::kP1)
        p1.add(scan[bl]);
    }
    table.new_section();
    table.comment(tag);
    table.row("vth,pdf_er,pdf_p1");
    for (std::size_t i = 0; i < er.bin_count(); ++i)
      table.row(
          strf("%.0f,%.6g,%.6g", er.bin_center(i), er.pdf(i), p1.pdf(i)));
  };

  emit("(a) no read disturb");
  block.apply_reads(wl + 1, 1e6);
  emit("(b) after 1M read disturbs");
  return table;
}

Table run_fig10(ExperimentContext& ctx) {
  const auto params = flash::FlashModelParams::default_2ynm();
  const ecc::EccModel ecc{ecc::EccConfig::paper_provisioning()};
  const nand::Geometry g = ctx.geometry();
  // Page capability scaled to the geometry's page size; the
  // characterization chip's 8192-cell (16384-bit) wordline carries two
  // 1 KiB codewords.
  const int page_capability = std::max(
      1, static_cast<int>(std::lround(ecc.capability() * 2.0 *
                                      static_cast<double>(g.bitlines) /
                                      8192.0)));

  std::vector<double> read_counts;
  for (double reads = 0; reads <= 1e6 + 1; reads += 100e3)
    read_counts.push_back(reads);

  const std::uint32_t wl = mid_wl(g);
  // Each x-value is an independent measurement of the *same* block (the
  // chip is rebuilt from a shared seed per point), so the curve reflects
  // the disturb dose, not per-point sampling noise.
  const std::uint64_t chip_seed = ctx.seed();
  const auto rows = ctx.sweep(read_counts, [&](double reads, Rng&) {
    nand::Chip chip = make_aged_chip(g, params, chip_seed, 8000);
    auto& block = chip.block(0);
    if (reads > 0) block.apply_reads(wl + 1, reads);

    const int lsb_errors = block.count_errors({wl, nand::PageKind::kLsb});
    const int msb_errors = block.count_errors({wl, nand::PageKind::kMsb});
    const double bits = 2.0 * block.geometry().bitlines;
    const double rber_before = (lsb_errors + msb_errors) / bits;

    const bool engaged =
        lsb_errors > page_capability || msb_errors > page_capability;
    double rber_after = rber_before;
    if (engaged) {
      const core::ReadDisturbRecovery rdr;
      rber_after = rdr.recover(block, wl).rber_after();
    }
    return strf("%.0f,%.6g,%.6g,%.1f,%d", reads, rber_before, rber_after,
                rber_before > 0 ? (1.0 - rber_after / rber_before) * 100.0
                                : 0.0,
                engaged ? 1 : 0);
  });

  Table table;
  table.comment(
      "Fig 10: RBER vs read disturb count, no recovery vs RDR (8K P/E)");
  table.comment(strf("RDR engages when page errors exceed the ECC capability "
                     "(%d bits/page)",
                     page_capability));
  table.row("reads,rber_no_recovery,rber_rdr,reduction_pct,engaged");
  for (const auto& row : rows) table.row(row);
  return table;
}

Table run_ablation_rdr(ExperimentContext& ctx) {
  const nand::Geometry g = ctx.geometry();
  const std::uint32_t wl = mid_wl(g);
  // All option values operate on the same rebuilt block so the sweep
  // isolates the design choice from Monte-Carlo sampling noise.
  const std::uint64_t chip_seed = ctx.seed();
  const auto reduction_with = [&](const core::RdrOptions& options) {
    const auto params = flash::FlashModelParams::default_2ynm();
    nand::Chip chip = make_aged_chip(g, params, chip_seed, 8000);
    auto& block = chip.block(0);
    block.apply_reads(wl + 1, 1e6);
    const core::ReadDisturbRecovery rdr(options);
    const auto r = rdr.recover(block, wl);
    return (1.0 - r.rber_after() / r.rber_before()) * 100.0;
  };

  Table table;
  table.comment(
      "Ablation: RDR design choices (8K P/E, 1M disturbs; paper headline: "
      "36% reduction)");

  const auto sweep = [&](const char* title, const char* header,
                         const std::vector<double>& values, const char* fmt,
                         auto apply) {
    const auto rows = ctx.sweep(values, [&](double v, Rng&) {
      core::RdrOptions o;
      apply(o, v);
      return strf(fmt, v, reduction_with(o));
    });
    table.new_section();
    table.comment(title);
    table.row(header);
    for (const auto& row : rows) table.row(row);
  };

  sweep("(a) classification threshold prone_factor",
        "prone_factor,rber_reduction_pct", {1.2, 1.6, 2.0, 2.5, 3.0},
        "%.1f,%.1f", [](core::RdrOptions& o, double v) { o.prone_factor = v; });
  sweep("(b) boundary window upper margin (units)",
        "upper_margin,rber_reduction_pct", {0.0, 3.0, 6.0, 12.0, 24.0},
        "%.0f,%.1f", [](core::RdrOptions& o, double v) { o.upper_margin = v; });
  sweep("(c) induced disturb count", "extra_reads,rber_reduction_pct",
        {25e3, 50e3, 100e3, 200e3, 400e3}, "%.0f,%.1f",
        [](core::RdrOptions& o, double v) { o.extra_reads = v; });
  sweep("(d) read-retry resolution", "retry_step,rber_reduction_pct",
        {0.25, 0.5, 1.0, 2.0, 4.0}, "%.2f,%.1f",
        [](core::RdrOptions& o, double v) { o.retry_step = v; });
  return table;
}

Table run_ext_mechanisms(ExperimentContext& ctx) {
  const auto planar = flash::FlashModelParams::default_2ynm();
  const nand::Geometry g = ctx.geometry();
  const std::uint32_t wl = mid_wl(g);

  Table table;
  table.comment("(a) RFR: retention-error recovery vs age (12K P/E)");
  table.row("age_days,rber_before,rber_after,reduction_pct");
  {
    const std::vector<double> ages = {10.0, 20.0, 40.0, 60.0};
    // Shared chip seed per section: the sweep variable (age, technology)
    // acts on the same rebuilt block, as in the original benches.
    const std::uint64_t chip_seed = ctx.seed();
    const auto rows = ctx.sweep(ages, [&](double age, Rng&) {
      nand::Chip chip = make_aged_chip(g, planar, chip_seed, 12000);
      auto& b = chip.block(0);
      b.advance_time(age);
      const auto r = core::RetentionFailureRecovery().recover(b, wl);
      return strf("%.0f,%.6g,%.6g,%.1f", age, r.rber_before(), r.rber_after(),
                  (1.0 - r.rber_after() / r.rber_before()) * 100.0);
    });
    for (const auto& row : rows) table.row(row);
  }

  table.new_section();
  table.comment(
      "(b) Vref optimization vs factory refs (8K P/E, aged + disturbed)");
  table.row("age_days,errors_default,errors_learned");
  {
    const std::vector<double> ages = {0.0, 7.0, 14.0, 21.0};
    const std::uint64_t chip_seed = ctx.seed();
    const auto rows = ctx.sweep(ages, [&](double age, Rng&) {
      nand::Chip chip = make_aged_chip(g, planar, chip_seed, 8000);
      auto& b = chip.block(0);
      b.advance_time(age);
      b.apply_reads(wl + 1, 3e5);
      const core::VrefOptimizer optimizer;
      const auto learned = optimizer.learn(b, wl);
      return strf("%.0f,%d,%d", age,
                  core::VrefOptimizer::count_errors_with_refs(
                      b, wl, core::VrefOptimizer::defaults(b)),
                  core::VrefOptimizer::count_errors_with_refs(b, wl, learned));
    });
    for (const auto& row : rows) table.row(row);
  }

  table.new_section();
  table.comment("(c) planar 2Y-nm vs early 3D NAND read disturb");
  table.row("technology,slope_8k,errors_at_1m_reads");
  {
    const std::vector<std::pair<const char*, flash::FlashModelParams>>
        technologies = {{"planar-2ynm", planar},
                        {"3d-early", flash::FlashModelParams::early_3d_nand()}};
    const std::uint64_t chip_seed = ctx.seed();
    const auto rows = ctx.sweep(technologies, [&](const auto& tech, Rng&) {
      const auto& [name, params] = tech;
      const flash::RberModel model(params);
      nand::Chip chip = make_aged_chip(g, params, chip_seed, 8000);
      auto& b = chip.block(0);
      b.apply_reads(wl + 1, 1e6);
      return strf("%s,%.3g,%d", name, model.disturb_slope(8000),
                  b.count_errors({wl, nand::PageKind::kMsb}));
    });
    for (const auto& row : rows) table.row(row);
  }

  table.new_section();
  table.comment(
      "(d) concentrated read disturb: errors by distance from the hammered "
      "wordline (boost=30, 300K reads)");
  table.row("distance,errors");
  {
    auto params = planar;
    params.neighbor_dose_boost = 30.0;
    Rng rng = ctx.next_stream();
    nand::Chip chip = make_aged_chip(g, params, rng.next(), 8000);
    auto& b = chip.block(0);
    const std::uint32_t hammered = wl + 1;
    b.apply_reads(hammered, 3e5);
    // The bench sampled wordlines 30,32,29,35,20,10 around hammered 31;
    // express those as offsets so the sweep fits any geometry.
    for (const int offset : {-1, 1, -2, 4, -11, -21}) {
      const int w = static_cast<int>(hammered) + offset;
      if (w < 0 || w >= static_cast<int>(g.wordlines_per_block)) continue;
      table.row(strf("%d,%d", std::abs(offset),
                     b.count_errors({static_cast<std::uint32_t>(w),
                                     nand::PageKind::kMsb})));
    }
  }

  table.new_section();
  table.comment("(e) PARA: RowHammer error scale vs refresh probability");
  table.row("para_probability,error_scale");
  for (const double p : {0.0, 1e-6, 1e-5, 5e-5, 1e-4, 2e-4, 1e-3}) {
    table.row(strf("%.0e,%.4g", p, dram::para_error_scale(p)));
  }
  return table;
}

}  // namespace rdsim::sim
