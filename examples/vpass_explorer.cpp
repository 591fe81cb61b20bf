// vpass_explorer — walk one refresh interval day by day and print every
// decision the Vpass Tuning controller makes for a block: the measured
// MEE, the remaining ECC margin, the step-search probes, and the chosen
// pass-through voltage; then show the interval's peak RBER against the
// unmitigated baseline, and finally replay the same pressure through the
// queued host interface (a one-drive host::Device) to see what
// the mechanism's probe overhead does to host-observed read latency.
//
// Usage: ./build/examples/vpass_explorer [pe_cycles] [reads_per_interval]
//        defaults: 8000 P/E, 200000 reads
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/endurance.h"
#include "core/vpass_tuning.h"
#include "ecc/ecc_model.h"
#include "flash/rber_model.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/ssd_servicer.h"
#include "workload/generator.h"
#include "workload/profiles.h"

using namespace rdsim;

int main(int argc, char** argv) {
  const double pe = argc > 1 ? std::atof(argv[1]) : 8000.0;
  const double reads = argc > 2 ? std::atof(argv[2]) : 200e3;
  const auto params = flash::FlashModelParams::default_2ynm();
  const flash::RberModel model(params);
  const ecc::EccModel ecc{ecc::EccConfig::paper_provisioning()};
  core::VpassTuningController controller(ecc, params.vpass_nominal);

  std::printf("block: %.0f P/E cycles, %.0f reads per 7-day refresh "
              "interval\n", pe, reads);
  std::printf("ECC: %d bits/codeword usable of %d, %d codewords/page\n",
              ecc.usable_capability(), ecc.capability(),
              ecc.config().codewords_per_page);

  std::printf("\n%4s %8s %6s %8s %8s %10s %9s\n", "day", "action", "MEE",
              "margin", "probes", "Vpass", "dVpass%");
  double disturb_rber = 0.0;
  double vpass = params.vpass_nominal;
  for (int day = 0; day < 7; ++day) {
    core::AnalyticBlockProbe probe(
        model, ecc,
        {pe, static_cast<double>(day), 0.0, params.vpass_nominal});
    // Fold the accumulated disturb into the probe's view via the
    // condition's reads field at nominal Vpass equivalence.
    const double eq_reads = disturb_rber / model.disturb_rber(pe, 1.0, vpass);
    probe.set_condition({pe, static_cast<double>(day),
                         eq_reads > 0 ? eq_reads : 0.0, vpass});
    const auto decision = day == 0
                              ? controller.relearn(probe)
                              : controller.verify_or_raise(probe, vpass);
    vpass = decision.vpass;
    std::printf("%4d %8s %6d %8d %8d %10.1f %8.2f%%\n", day,
                day == 0 ? "relearn" : "verify", decision.mee,
                decision.margin, decision.probe_steps, vpass,
                (1.0 - vpass / params.vpass_nominal) * 100.0);
    disturb_rber += model.disturb_rber(pe, reads / 7.0, vpass);
  }

  const core::EnduranceEvaluator evaluator(model, ecc);
  const auto base = evaluator.simulate_interval(pe, reads, false);
  const auto tuned = evaluator.simulate_interval(pe, reads, true);
  std::printf("\ninterval peak RBER: baseline %.3e, tuned %.3e "
              "(%.0f%% lower; ECC capability %.1e)\n",
              base.peak_rber, tuned.peak_rber,
              (1.0 - tuned.peak_rber / base.peak_rber) * 100.0,
              params.ecc_capability_rber);
  std::printf("endurance at this pressure: baseline %.0f, tuned %.0f P/E "
              "(%+.1f%%)\n",
              evaluator.endurance_pe(reads, false),
              evaluator.endurance_pe(reads, true),
              (evaluator.endurance_pe(reads, true) /
                   evaluator.endurance_pe(reads, false) -
               1.0) * 100.0);

  // The same mechanism through the host's eyes: a week of a read-heavy
  // workload on a small drive, with and without tuning. The probe reads
  // run in the nightly maintenance window, so the host pays for them as
  // a stall reservation, not per command.
  std::printf("\nhost-observed read latency over a 7-day replay "
              "(64-block drive, umass-web):\n");
  for (const bool tuning : {false, true}) {
    ssd::SsdConfig config;
    config.ftl.blocks = 64;
    config.ftl.pages_per_block = 32;
    config.ftl.overprovision = 0.2;
    config.ftl.gc_free_target = 4;
    config.vpass_tuning = tuning;
    auto servicer = std::make_unique<host::SsdServicer>(config, params,
                                                        /*seed=*/3);
    const ssd::Ssd& ssd = servicer->ssd();
    host::Device drive(std::move(servicer), /*queue_count=*/2);
    host::warm_fill(drive);
    auto profile = workload::profile_by_name("umass-web");
    profile.daily_page_ios = 30000;  // Scaled to the small drive.
    workload::TraceGenerator gen(profile, drive.logical_pages(), 7,
                                 drive.queue_count());
    // Start the workload clock after the fill so no command queues
    // behind the warm-up writes.
    const double fill_end_s = drive.now_s();
    std::vector<host::Completion> done;
    for (int day = 0; day < 7; ++day) {
      for (host::Command c : gen.day_commands()) {
        c.submit_time_s += fill_end_s;
        drive.submit(c);
      }
      done.clear();
      drive.drain(&done);
      drive.end_of_day();
    }
    const auto& q = drive.stats();
    std::printf("  %-8s p50 %7.1f us, p99 %7.1f us, p999 %8.1f us, "
                "probe time %.2f s/day\n",
                tuning ? "tuned" : "baseline",
                q.latency_quantile_s(host::CommandKind::kRead, 0.50) * 1e6,
                q.latency_quantile_s(host::CommandKind::kRead, 0.99) * 1e6,
                q.latency_quantile_s(host::CommandKind::kRead, 0.999) * 1e6,
                ssd.stats().tuning_seconds_per_day());
  }
  return 0;
}
