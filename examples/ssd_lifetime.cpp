// ssd_lifetime — replay a workload against the simulated SSD through the
// NVMe-style queued host interface (a one-drive host::Device) and
// watch the drive's reliability state evolve under the daily maintenance
// loop (refresh + Vpass Tuning); report host-observed latency percentiles
// from the completion stream, then compare endurance with and without
// the mitigation.
//
// Usage: ./build/examples/ssd_lifetime [workload] [days]
//        workload: one of the standard suite (default umass-web)
//        days:     replay length (default 14)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/endurance.h"
#include "host/device.h"
#include "host/driver.h"
#include "host/ssd_servicer.h"
#include "workload/generator.h"
#include "workload/profiles.h"

using namespace rdsim;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "umass-web";
  const int days = argc > 2 ? std::atoi(argv[2]) : 14;
  auto profile = workload::profile_by_name(name);
  profile.trim_fraction = 0.02;     // Exercise the deallocate path.
  profile.flush_period_s = 1800.0;  // Host flushes every half hour.
  const auto params = flash::FlashModelParams::default_2ynm();

  ssd::SsdConfig config;
  config.ftl.blocks = 1024;
  config.ftl.pages_per_block = 256;
  config.vpass_tuning = true;
  auto servicer = std::make_unique<host::SsdServicer>(config, params,
                                                      /*seed=*/11);
  const ssd::Ssd& ssd = servicer->ssd();
  host::Device drive(std::move(servicer), /*queue_count=*/4);

  std::printf("drive: %u blocks x %u pages, %llu logical pages, %u queues, "
              "workload %s\n",
              config.ftl.blocks, config.ftl.pages_per_block,
              static_cast<unsigned long long>(drive.logical_pages()),
              drive.queue_count(), profile.name.c_str());

  // Fill the logical space once so every read hits mapped data, then
  // drop the warm-up traffic from the latency statistics.
  host::warm_fill(drive);
  std::vector<host::Completion> completions;

  workload::TraceGenerator gen(profile, drive.logical_pages(), 2024,
                               drive.queue_count());
  // The workload starts once the fill has finished: offset its arrival
  // times by the flash timeline so day-one commands don't queue behind
  // the warm-up writes.
  const double fill_end_s = drive.now_s();
  std::printf("\n%4s %12s %12s %10s %12s %10s %12s\n", "day", "host_reads",
              "host_writes", "waf", "max_rber", "mean_dVpass",
              "read_p99_us");
  for (int day = 1; day <= days; ++day) {
    for (host::Command c : gen.day_commands()) {
      c.submit_time_s += fill_end_s;
      drive.submit(c);
    }
    completions.clear();
    drive.drain(&completions);
    drive.end_of_day();
    const auto& s = ssd.ftl().stats();
    std::printf("%4d %12llu %12llu %10.3f %12.3e %10.2f%% %12.1f\n", day,
                static_cast<unsigned long long>(s.host_reads),
                static_cast<unsigned long long>(s.host_writes), s.waf(),
                ssd.max_worst_rber(),
                ssd.stats().mean_vpass_reduction_pct(),
                drive.stats().latency_quantile_s(host::CommandKind::kRead,
                                                 0.99) * 1e6);
  }

  const auto& s = ssd.ftl().stats();
  std::printf("\nFTL activity: %llu GC writes, %llu refresh writes, "
              "%llu refreshes, %llu trims, max P/E %u\n",
              static_cast<unsigned long long>(s.gc_writes),
              static_cast<unsigned long long>(s.refresh_writes),
              static_cast<unsigned long long>(s.refreshes),
              static_cast<unsigned long long>(s.host_trims),
              ssd.ftl().max_pe());
  std::printf("uncorrectable block-days: %llu, tuning fallbacks: %llu\n",
              static_cast<unsigned long long>(
                  ssd.stats().uncorrectable_page_events),
              static_cast<unsigned long long>(
                  ssd.stats().tuning_fallbacks));

  // Host-observed service quality over the whole replay.
  const auto& q = drive.stats();
  using host::CommandKind;
  std::printf("\nhost interface: %llu commands (%llu R / %llu W / %llu T / "
              "%llu F), %.0f IOPS over the replay\n",
              static_cast<unsigned long long>(q.commands()),
              static_cast<unsigned long long>(q.commands(CommandKind::kRead)),
              static_cast<unsigned long long>(q.commands(CommandKind::kWrite)),
              static_cast<unsigned long long>(q.commands(CommandKind::kTrim)),
              static_cast<unsigned long long>(q.commands(CommandKind::kFlush)),
              q.iops());
  std::printf("read latency: mean %.1f us, p50 %.1f us, p99 %.1f us, "
              "p999 %.1f us (stall share %.2f%%)\n",
              q.mean_latency_s(CommandKind::kRead) * 1e6,
              q.latency_quantile_s(CommandKind::kRead, 0.50) * 1e6,
              q.latency_quantile_s(CommandKind::kRead, 0.99) * 1e6,
              q.latency_quantile_s(CommandKind::kRead, 0.999) * 1e6,
              q.stall_seconds() /
                  (q.span_s() > 0 ? q.span_s() : 1.0) * 100.0);

  // Endurance projection for this workload's limiting block.
  const flash::RberModel model(params);
  const ecc::EccModel ecc{config.ecc};
  const core::EnduranceEvaluator evaluator(model, ecc);
  const auto pressure =
      static_cast<double>(ssd.max_reads_per_interval());
  const double base = evaluator.endurance_pe(pressure, false);
  const double tuned = evaluator.endurance_pe(pressure, true);
  std::printf("\nendurance projection (hottest block absorbs %.0f reads per "
              "refresh interval):\n", pressure);
  std::printf("  baseline:     %.0f P/E cycles\n", base);
  std::printf("  Vpass Tuning: %.0f P/E cycles (%+.1f%%)\n", tuned,
              (tuned / base - 1.0) * 100.0);
  return 0;
}
