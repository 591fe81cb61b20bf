// Tests for the cfg layer and the device factory over it:
//   1. the INI parser round-trips keys/values and flags every malformed
//      construct as a diagnostic without stopping;
//   2. every validation diagnostic the spec layer can emit fires (bad
//      value, out of range, unknown enum, missing required, unknown key,
//      duplicate key, infeasible FTL, unreadable file);
//   3. a valid config maps onto the typed specs field-for-field;
//   4. host::make_device(spec) is bit-identical to a hand-built
//      host::Device for every backend — the one-shard backends hand the
//      drive seed to their servicer verbatim (same stream, same seed =>
//      byte-identical completion logs);
//   5. every built-in profile produces a constructible device.
#include "cfg/config.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cfg/profiles.h"
#include "cfg/spec.h"
#include "host/chip_servicer.h"
#include "host/device.h"
#include "host/factory.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace rdsim::cfg {
namespace {

using host::Command;
using host::Completion;

/// Shorthand: parse text and run the scenario schema over it.
ScenarioSpec parse_text(const std::string& text,
                        std::vector<Diagnostic>* diags) {
  Config config = Config::parse(text, diags);
  return parse_scenario(config, diags);
}

/// True when some diagnostic names `key` and mentions `needle`.
bool has_diag(const std::vector<Diagnostic>& diags, const std::string& key,
              const std::string& needle) {
  for (const auto& d : diags)
    if (d.key == key && d.message.find(needle) != std::string::npos)
      return true;
  return false;
}

const char* kValidConfig =
    "# full schema exercise\n"
    "[scenario]\n"
    "name = unit ; trailing comment\n"
    "days = 4\n"
    "queue_depth = 16\n"
    "warm_fill = false\n"
    "[drive]\n"
    "backend = sharded_analytic\n"
    "flash_model = 3d\n"
    "shards = 2\n"
    "queue_count = 8\n"
    "blocks = 96\n"
    "pages_per_block = 64\n"
    "overprovision = 0.25\n"
    "gc_free_target = 6\n"
    "refresh_interval_days = 3.5\n"
    "read_reclaim_threshold = 500\n"
    "vpass_tuning = off\n"
    "[workload]\n"
    "profile = msr-src\n"
    "daily_page_ios = 9000\n"
    "trim_fraction = 0.2\n";

TEST(Config, ParserRoundTripsKeysAndValues) {
  std::vector<Diagnostic> diags;
  const Config config = Config::parse(
      "top = 1\n"
      "\n"
      "[a]  # section comment\n"
      "  x  =  spaced value \n"
      "y=2\n"
      "[b]\n"
      "x = 3\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  const auto items = config.items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0], (std::pair<std::string, std::string>{"top", "1"}));
  EXPECT_EQ(items[1],
            (std::pair<std::string, std::string>{"a.x", "spaced value"}));
  EXPECT_EQ(items[2], (std::pair<std::string, std::string>{"a.y", "2"}));
  EXPECT_EQ(items[3], (std::pair<std::string, std::string>{"b.x", "3"}));
}

TEST(Config, TypedAccessorsParseAndFallBack) {
  std::vector<Diagnostic> diags;
  Config config = Config::parse(
      "[t]\nu = 42\nd = 2.5\nb1 = yes\nb0 = off\ns = text\n", &diags);
  EXPECT_EQ(config.get_u64("t.u", 0, &diags), 42u);
  EXPECT_DOUBLE_EQ(config.get_double("t.d", 0.0, &diags), 2.5);
  EXPECT_TRUE(config.get_bool("t.b1", false, &diags));
  EXPECT_FALSE(config.get_bool("t.b0", true, &diags));
  EXPECT_EQ(config.get_string("t.s", "", &diags), "text");
  // Absent keys return the fallback without diagnosing.
  EXPECT_EQ(config.get_u64("t.absent", 7, &diags), 7u);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(Config, MalformedConstructsAreDiagnosedWithLines) {
  std::vector<Diagnostic> diags;
  Config config = Config::parse(
      "[unclosed\n"      // line 1: malformed section
      "no equals here\n"  // line 2: not a key-value
      " = orphan\n"       // line 3: empty key
      "[s]\n"
      "k = 1\n"
      "k = 2\n",          // line 6: duplicate of line 5
      &diags);
  ASSERT_EQ(diags.size(), 4u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("section"), std::string::npos);
  EXPECT_EQ(diags[1].line, 2);
  EXPECT_EQ(diags[2].line, 3);
  EXPECT_EQ(diags[3].line, 6);
  EXPECT_EQ(diags[3].key, "s.k");
  EXPECT_NE(diags[3].message.find("duplicate"), std::string::npos);
  // Last duplicate wins on lookup.
  std::vector<Diagnostic> more;
  EXPECT_EQ(config.get_u64("s.k", 0, &more), 2u);
}

TEST(Config, BadTypedValuesAreDiagnosed) {
  std::vector<Diagnostic> diags;
  Config config = Config::parse(
      "[t]\nu = -3\nu2 = 4Z\nd = fast\nb = maybe\n", &diags);
  ASSERT_TRUE(diags.empty());
  EXPECT_EQ(config.get_u64("t.u", 9, &diags), 9u);
  EXPECT_EQ(config.get_u64("t.u2", 9, &diags), 9u);
  EXPECT_DOUBLE_EQ(config.get_double("t.d", 1.5, &diags), 1.5);
  EXPECT_TRUE(config.get_bool("t.b", true, &diags));
  ASSERT_EQ(diags.size(), 4u);
  EXPECT_EQ(diags[0].key, "t.u");
  EXPECT_EQ(diags[1].key, "t.u2");
  EXPECT_EQ(diags[2].key, "t.d");
  EXPECT_EQ(diags[3].key, "t.b");
  for (const auto& d : diags) EXPECT_GT(d.line, 0);
}

TEST(Config, UnreadableFileIsADiagnostic) {
  std::vector<Diagnostic> diags;
  Config::parse_file("/nonexistent/rdsim.conf", &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("cannot open"), std::string::npos);
}

TEST(Config, FormatDiagnosticsNamesLineAndKey) {
  const std::string text = format_diagnostics(
      {{3, "drive.blocks", "bad value"}, {0, "", "file problem"}});
  EXPECT_NE(text.find("line 3: key 'drive.blocks': bad value"),
            std::string::npos);
  EXPECT_NE(text.find("file problem"), std::string::npos);
}

TEST(Spec, ValidConfigMapsFieldForField) {
  std::vector<Diagnostic> diags;
  const ScenarioSpec spec = parse_text(kValidConfig, &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  EXPECT_EQ(spec.name, "unit");
  EXPECT_EQ(spec.days, 4);
  EXPECT_EQ(spec.queue_depth, 16u);
  EXPECT_FALSE(spec.warm_fill);
  EXPECT_EQ(spec.drive.backend, Backend::kShardedAnalytic);
  EXPECT_EQ(spec.drive.flash_model, FlashModel::kEarly3d);
  EXPECT_EQ(spec.drive.shards, 2u);
  EXPECT_EQ(spec.drive.queue_count, 8u);
  EXPECT_EQ(spec.drive.blocks, 96u);
  EXPECT_EQ(spec.drive.pages_per_block, 64u);
  EXPECT_DOUBLE_EQ(spec.drive.overprovision, 0.25);
  EXPECT_EQ(spec.drive.gc_free_target, 6u);
  EXPECT_DOUBLE_EQ(spec.drive.refresh_interval_days, 3.5);
  EXPECT_EQ(spec.drive.read_reclaim_threshold, 500u);
  EXPECT_FALSE(spec.drive.vpass_tuning);
  EXPECT_EQ(spec.workload.profile.name, "msr-src");
  EXPECT_DOUBLE_EQ(spec.workload.profile.daily_page_ios, 9000.0);
  EXPECT_DOUBLE_EQ(spec.workload.profile.trim_fraction, 0.2);
  // Unset overrides keep the named profile's values.
  EXPECT_DOUBLE_EQ(spec.workload.profile.read_fraction,
                   workload::profile_by_name("msr-src").read_fraction);
}

TEST(Spec, MissingRequiredKeysAreDiagnosed) {
  std::vector<Diagnostic> diags;
  parse_text("", &diags);
  EXPECT_TRUE(has_diag(diags, "drive.backend", "missing required"));
  EXPECT_TRUE(has_diag(diags, "workload.profile", "missing required"));
}

TEST(Spec, UnknownEnumValuesAreDiagnosed) {
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = warp\nflash_model = 5nm\n"
      "[workload]\nprofile = not-a-trace\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "drive.backend", "unknown backend 'warp'"));
  EXPECT_TRUE(has_diag(diags, "drive.flash_model", "unknown flash model"));
  EXPECT_TRUE(
      has_diag(diags, "workload.profile", "unknown workload profile"));
}

TEST(Spec, OutOfRangeValuesAreDiagnosed) {
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = analytic\nshards = 0\noverprovision = 2.0\n"
      "[workload]\nprofile = postmark\ntrim_fraction = 1.5\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "drive.shards", "out of range"));
  EXPECT_TRUE(has_diag(diags, "drive.overprovision", "out of range"));
  EXPECT_TRUE(has_diag(diags, "workload.trim_fraction", "out of range"));
}

TEST(Spec, OneWordlineMcBlockIsDiagnosed) {
  // RDR disturbs a sibling wordline, so a Monte Carlo block needs two;
  // the analytic backends have no wordlines to recover and accept one.
  for (const char* backend : {"mc_chip", "sharded_mc"}) {
    std::vector<Diagnostic> diags;
    parse_text(std::string("[drive]\nbackend = ") + backend +
                   "\nwordlines_per_block = 1\npre_wear_pe = 30000\n"
                   "[workload]\nprofile = postmark\n",
               &diags);
    EXPECT_TRUE(has_diag(diags, "drive.wordlines_per_block", "at least 2"))
        << backend;
  }
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = mc_chip\nwordlines_per_block = 2\n"
      "[workload]\nprofile = postmark\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  parse_text(
      "[drive]\nbackend = analytic\nwordlines_per_block = 1\n"
      "[workload]\nprofile = postmark\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(Spec, UnknownKeysAreDiagnosed) {
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = analytic\nbloks = 64\n"
      "[workload]\nprofile = postmark\n[exotic]\nknob = 1\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "drive.bloks", "unknown key"));
  EXPECT_TRUE(has_diag(diags, "exotic.knob", "unknown key"));
}

TEST(Spec, TraceSectionParsesAndValidates) {
  std::vector<Diagnostic> diags;
  const ScenarioSpec spec = parse_text(
      "[drive]\nbackend = analytic\n"
      "[trace]\npath = /tmp/some.trace\nformat = msr\nremap = hash\n"
      "mode = closed\nqueue_depth = 32\nspeedup = 100\npage_bytes = 4096\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  EXPECT_TRUE(spec.trace.enabled());
  EXPECT_EQ(spec.trace.path, "/tmp/some.trace");
  EXPECT_EQ(spec.trace.format, replay::TraceFormat::kMsr);
  EXPECT_EQ(spec.trace.remap, replay::RemapPolicy::kHash);
  EXPECT_EQ(spec.trace.mode, replay::ReplayMode::kClosed);
  EXPECT_EQ(spec.trace.queue_depth, 32u);
  EXPECT_DOUBLE_EQ(spec.trace.speedup, 100.0);
  EXPECT_EQ(spec.trace.page_bytes, 4096u);
}

TEST(Spec, TraceMakesWorkloadProfileOptional) {
  // With a [trace] section the generator is bypassed, so the otherwise
  // required workload.profile must not be demanded...
  std::vector<Diagnostic> diags;
  const ScenarioSpec spec = parse_text(
      "[drive]\nbackend = analytic\n[trace]\npath = t.csv\n", &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  EXPECT_TRUE(spec.trace.enabled());
  // ...but without one it still is.
  std::vector<Diagnostic> no_trace;
  parse_text("[drive]\nbackend = analytic\n", &no_trace);
  EXPECT_TRUE(has_diag(no_trace, "workload.profile", "missing required"));
}

TEST(Spec, BadTraceSectionIsDiagnosedByKey) {
  // Stray trace knobs without a path are a broken section.
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[trace]\nmode = open\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "trace.path", "missing required"));

  // Unknown enum values and out-of-range numbers point at their keys.
  std::vector<Diagnostic> bad;
  parse_text(
      "[drive]\nbackend = analytic\n"
      "[trace]\npath = t.csv\nformat = pcap\nremap = fold\nmode = sideways\n"
      "queue_depth = 0\nspeedup = 0\npage_bytes = 100\n",
      &bad);
  EXPECT_TRUE(has_diag(bad, "trace.format", "unknown trace format 'pcap'"));
  EXPECT_TRUE(has_diag(bad, "trace.remap", "unknown remap policy 'fold'"));
  EXPECT_TRUE(has_diag(bad, "trace.mode", "unknown replay mode 'sideways'"));
  EXPECT_TRUE(has_diag(bad, "trace.queue_depth", "out of range"));
  EXPECT_TRUE(has_diag(bad, "trace.speedup", "out of range"));
  EXPECT_TRUE(has_diag(bad, "trace.page_bytes", "out of range"));
}

TEST(Spec, FleetSectionParsesAndValidates) {
  std::vector<Diagnostic> diags;
  const ScenarioSpec spec = parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[fleet]\ndrives = 24\nyears = 1.5\nreport_interval_days = 14\n"
      "checkpoint_every = 2\nteardown_every = 8\n"
      "pe_fail_prob_median = 1e-3\nfault_rate_sigma = 0.5\n"
      "replace_failed = false\nrebuild_days = 2.5\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  EXPECT_TRUE(spec.fleet.enabled());
  EXPECT_EQ(spec.fleet.drives, 24u);
  EXPECT_DOUBLE_EQ(spec.fleet.years, 1.5);
  EXPECT_EQ(spec.fleet.report_interval_days, 14u);
  EXPECT_EQ(spec.fleet.checkpoint_every, 2u);
  EXPECT_EQ(spec.fleet.teardown_every, 8u);
  EXPECT_DOUBLE_EQ(spec.fleet.pe_fail_prob_median, 1e-3);
  EXPECT_DOUBLE_EQ(spec.fleet.fault_rate_sigma, 0.5);
  EXPECT_FALSE(spec.fleet.replace_failed);
  EXPECT_DOUBLE_EQ(spec.fleet.rebuild_days, 2.5);
}

TEST(Spec, BadFleetSectionIsDiagnosedByKey) {
  // Stray fleet knobs without a fleet size are a broken section.
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[fleet]\nyears = 2\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "fleet.drives", "missing required"));

  // Out-of-range values point at their keys.
  std::vector<Diagnostic> bad;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[fleet]\ndrives = 0\nyears = 0\nreport_interval_days = 4000\n"
      "checkpoint_every = 200000\npe_fail_prob_median = 1.5\n"
      "fault_rate_sigma = 9\nrebuild_days = 400\n",
      &bad);
  EXPECT_TRUE(has_diag(bad, "fleet.drives", "out of range"));
  EXPECT_TRUE(has_diag(bad, "fleet.years", "out of range"));
  EXPECT_TRUE(has_diag(bad, "fleet.report_interval_days", "out of range"));
  EXPECT_TRUE(has_diag(bad, "fleet.checkpoint_every", "out of range"));
  EXPECT_TRUE(has_diag(bad, "fleet.pe_fail_prob_median", "out of range"));
  EXPECT_TRUE(has_diag(bad, "fleet.fault_rate_sigma", "out of range"));
  EXPECT_TRUE(has_diag(bad, "fleet.rebuild_days", "out of range"));

  // Cross-section rules: analytic backend only, no [trace] replay, and
  // a sigma needs a median to spread.
  std::vector<Diagnostic> cross;
  parse_text(
      "[drive]\nbackend = sharded_mc\n[workload]\nprofile = postmark\n"
      "[trace]\npath = t.csv\n"
      "[fleet]\ndrives = 4\nfault_rate_sigma = 1\n",
      &cross);
  EXPECT_TRUE(has_diag(cross, "fleet.drives", "analytic"));
  EXPECT_TRUE(has_diag(cross, "fleet.drives", "[trace]"));
  EXPECT_TRUE(has_diag(cross, "fleet.fault_rate_sigma",
                       "pe_fail_prob_median"));
}

TEST(Spec, InfeasibleFtlIsDiagnosed) {
  // 16 blocks at 20% overprovision is ~3 blocks of slack; GC can never
  // reach gc_free_target=4 free blocks and would livelock — the spec
  // layer must reject this before a device is built.
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = analytic\nblocks = 16\ngc_free_target = 4\n"
      "overprovision = 0.2\n[workload]\nprofile = postmark\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "drive.gc_free_target", "infeasible"));
  // The same shape on a Monte Carlo backend has no FTL and is fine.
  std::vector<Diagnostic> mc_diags;
  parse_text(
      "[drive]\nbackend = sharded_mc\nblocks = 16\ngc_free_target = 4\n"
      "overprovision = 0.2\n[workload]\nprofile = postmark\n",
      &mc_diags);
  EXPECT_FALSE(has_diag(mc_diags, "drive.gc_free_target", "infeasible"));
}

TEST(Profiles, BuiltinsResolveAndBuildDevices) {
  ASSERT_FALSE(builtin_profiles().empty());
  EXPECT_EQ(find_profile("no-such-profile"), nullptr);
  for (const Profile& p : builtin_profiles()) {
    ASSERT_EQ(find_profile(p.name), &p);
    EXPECT_FALSE(p.description.empty());
    const auto device = host::make_device(p.spec.drive, /*seed=*/42);
    ASSERT_NE(device, nullptr) << p.name;
    EXPECT_GT(device->logical_pages(), 0u) << p.name;
  }
}

// ---- Factory equivalence: spec-built == hand-built, log-for-log. ----

std::vector<Command> mixed_stream(std::uint64_t logical,
                                  std::uint16_t queues, std::uint64_t seed) {
  workload::WorkloadProfile profile = workload::profile_by_name("postmark");
  profile.daily_page_ios = 20000;
  profile.trim_fraction = 0.1;
  profile.flush_period_s = 1800.0;
  workload::TraceGenerator gen(profile, logical, seed, queues);
  return gen.day_commands();
}

/// Replays `stream` with an end_of_day at the midpoint (exercising the
/// maintenance path), draining at the end; returns the completion log.
std::string replay_log(host::Device& device,
                       const std::vector<Command>& stream) {
  std::size_t i = 0;
  for (const auto& c : stream) {
    device.submit(c);
    if (++i == stream.size() / 2) device.end_of_day();
  }
  std::vector<Completion> got;
  device.drain(&got);
  std::string log;
  for (const auto& rec : got) {
    log += to_string(rec);
    log += '\n';
  }
  return log;
}

TEST(Factory, AnalyticSpecIsAOneShardDriveWithTheDriveSeed) {
  DriveSpec spec;
  spec.backend = Backend::kAnalytic;
  spec.blocks = 64;
  spec.pages_per_block = 32;
  spec.overprovision = 0.2;
  spec.gc_free_target = 4;
  spec.read_reclaim_threshold = 120;
  spec.queue_count = 4;

  ssd::SsdConfig config;
  config.ftl.blocks = 64;
  config.ftl.pages_per_block = 32;
  config.ftl.overprovision = 0.2;
  config.ftl.gc_free_target = 4;
  config.ftl.read_reclaim_threshold = 120;
  host::Device hand(
      std::make_unique<host::SsdServicer>(
          config, flash::FlashModelParams::default_2ynm(), /*seed=*/23),
      /*queue_count=*/4);

  const auto made = host::make_device(spec, /*seed=*/23);
  const auto stream = mixed_stream(hand.logical_pages(), 4, 31);
  ASSERT_GT(stream.size(), 500u);
  EXPECT_EQ(replay_log(*made, stream), replay_log(hand, stream));
}

TEST(Factory, McChipSpecIsAOneShardDriveWithTheDriveSeed) {
  const nand::Geometry geometry = nand::Geometry::tiny();
  DriveSpec spec;
  spec.backend = Backend::kMcChip;
  spec.wordlines_per_block = geometry.wordlines_per_block;
  spec.bitlines = geometry.bitlines;
  spec.blocks = geometry.blocks;
  spec.queue_count = 2;

  host::Device hand(
      std::make_unique<host::ChipServicer>(
          geometry, flash::FlashModelParams::default_2ynm(), /*seed=*/5,
          host::LatencyParams{}),
      /*queue_count=*/2);
  const auto made = host::make_device(spec, /*seed=*/5);
  const auto stream = mixed_stream(hand.logical_pages(), 2, 13);
  EXPECT_EQ(replay_log(*made, stream), replay_log(hand, stream));
}

TEST(Factory, ShardedMcSpecMatchesHandBuiltPreWornDevice) {
  const nand::Geometry geometry = nand::Geometry::tiny();
  DriveSpec spec;
  spec.backend = Backend::kShardedMc;
  spec.shards = 4;
  spec.wordlines_per_block = geometry.wordlines_per_block;
  spec.bitlines = geometry.bitlines;
  spec.blocks = geometry.blocks;
  spec.pre_wear_pe = 8000;
  spec.queue_count = 4;

  std::vector<std::unique_ptr<host::Servicer>> chips;
  for (std::uint32_t s = 0; s < 4; ++s)
    chips.push_back(std::make_unique<host::ChipServicer>(
        geometry, flash::FlashModelParams::default_2ynm(),
        host::Device::shard_seed(19, s), host::LatencyParams{}));
  host::Device hand(std::move(chips), /*workers=*/2, /*queue_count=*/4);
  for (std::uint32_t s = 0; s < hand.shard_count(); ++s) {
    nand::Chip& chip = hand.shard_chip(s);
    for (std::size_t b = 0; b < chip.block_count(); ++b) {
      chip.block(b).erase();
      chip.block(b).add_wear(8000);
      chip.block(b).program_random();
    }
  }
  const auto made = host::make_device(spec, /*seed=*/19, /*workers=*/2);
  const auto stream = mixed_stream(hand.logical_pages(), 4, 37);
  EXPECT_EQ(replay_log(*made, stream), replay_log(hand, stream));
}

TEST(Factory, ShardedAnalyticSpecMatchesHandBuiltServicers) {
  DriveSpec spec;
  spec.backend = Backend::kShardedAnalytic;
  spec.shards = 3;
  spec.blocks = 64;
  spec.pages_per_block = 32;
  spec.overprovision = 0.2;
  spec.gc_free_target = 4;
  spec.queue_count = 4;

  ssd::SsdConfig config;
  config.ftl.blocks = 64;
  config.ftl.pages_per_block = 32;
  config.ftl.overprovision = 0.2;
  config.ftl.gc_free_target = 4;
  const auto params = flash::FlashModelParams::default_2ynm();
  std::vector<std::unique_ptr<host::Servicer>> servicers;
  for (std::uint32_t s = 0; s < 3; ++s)
    servicers.push_back(std::make_unique<host::SsdServicer>(
        config, params, host::Device::shard_seed(29, s)));
  host::Device hand(std::move(servicers), /*workers=*/2, /*queue_count=*/4);

  const auto made = host::make_device(spec, /*seed=*/29, /*workers=*/2);
  const auto stream = mixed_stream(hand.logical_pages(), 4, 41);
  EXPECT_EQ(replay_log(*made, stream), replay_log(hand, stream));
}

TEST(Spec, TenantsSectionParsesAndRoundTrips) {
  std::vector<Diagnostic> diags;
  const ScenarioSpec spec = parse_text(
      "[drive]\nbackend = sharded_analytic\nshards = 4\nqueue_count = 4\n"
      "[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 3\npolicy = weighted\nweights = 4, 2, 1\n"
      "deadlines_us = 500, 1000, 10000\n"
      "profiles = fiu-mail, umass-web, postmark\n"
      "daily_page_ios = 1000, 2000, 3000\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  ASSERT_TRUE(spec.tenants.enabled());
  ASSERT_EQ(spec.tenants.count(), 3u);
  EXPECT_EQ(spec.tenants.policy, host::ArbitrationPolicy::kWeighted);
  EXPECT_DOUBLE_EQ(spec.tenants.tenants[0].weight, 4.0);
  EXPECT_DOUBLE_EQ(spec.tenants.tenants[2].weight, 1.0);
  EXPECT_DOUBLE_EQ(spec.tenants.tenants[0].deadline_us, 500.0);
  EXPECT_DOUBLE_EQ(spec.tenants.tenants[2].deadline_us, 10000.0);
  EXPECT_EQ(spec.tenants.tenants[0].profile.name, "fiu-mail");
  EXPECT_EQ(spec.tenants.tenants[1].profile.name, "umass-web");
  // daily_page_ios overrides apply on top of the named profiles.
  EXPECT_DOUBLE_EQ(spec.tenants.tenants[1].profile.daily_page_ios, 2000.0);

  // And the spec maps onto the device-facing ArbitrationConfig verbatim.
  const host::ArbitrationConfig arb = spec.tenants.arbitration();
  EXPECT_EQ(arb.policy, host::ArbitrationPolicy::kWeighted);
  ASSERT_EQ(arb.tenants.size(), 3u);
  EXPECT_DOUBLE_EQ(arb.tenants[1].weight, 2.0);
  EXPECT_DOUBLE_EQ(arb.tenants[1].deadline_us, 1000.0);
}

TEST(Spec, SingleTenantSectionDefaultsFromWorkload) {
  // One tenant, no per-tenant lists: the tenant inherits the resolved
  // [workload] profile and the default fifo policy — the configuration
  // the byte-identity test in tests/test_arbitration.cc pins against
  // the untagged path.
  std::vector<Diagnostic> diags;
  const ScenarioSpec spec = parse_text(
      "[drive]\nbackend = analytic\n"
      "[workload]\nprofile = fiu-mail\n"
      "[tenants]\ncount = 1\n",
      &diags);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  ASSERT_TRUE(spec.tenants.enabled());
  ASSERT_EQ(spec.tenants.count(), 1u);
  EXPECT_EQ(spec.tenants.policy, host::ArbitrationPolicy::kFifo);
  EXPECT_EQ(spec.tenants.tenants[0].profile.name, "fiu-mail");
  EXPECT_DOUBLE_EQ(spec.tenants.tenants[0].weight, 1.0);
}

TEST(Spec, BadTenantsSectionIsDiagnosedByKey) {
  // Stray tenant knobs without a count are a broken section.
  std::vector<Diagnostic> diags;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\npolicy = weighted\n",
      &diags);
  EXPECT_TRUE(has_diag(diags, "tenants.count", "missing required"));

  // Unknown policy names point at tenants.policy.
  std::vector<Diagnostic> bad_policy;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 2\npolicy = lottery\n",
      &bad_policy);
  EXPECT_TRUE(has_diag(bad_policy, "tenants.policy",
                       "unknown arbitration policy 'lottery'"));

  // A zero or negative weight would starve a tenant outright.
  std::vector<Diagnostic> zero_weight;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 2\npolicy = weighted\nweights = 1, 0\n",
      &zero_weight);
  EXPECT_TRUE(has_diag(zero_weight, "tenants.weights", "out of range"));
  std::vector<Diagnostic> neg_weight;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 2\npolicy = weighted\nweights = 1, -2\n",
      &neg_weight);
  EXPECT_TRUE(has_diag(neg_weight, "tenants.weights", "out of range"));

  // List lengths must match the tenant count, element for element.
  std::vector<Diagnostic> short_list;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 3\nweights = 1, 2\n",
      &short_list);
  EXPECT_TRUE(has_diag(short_list, "tenants.weights",
                       "expected 3 comma-separated values"));

  // Malformed numbers name the offending token.
  std::vector<Diagnostic> malformed;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 2\nweights = 1, fast\n",
      &malformed);
  EXPECT_TRUE(
      has_diag(malformed, "tenants.weights", "malformed number 'fast'"));

  // The deadline policy needs a deadline per tenant.
  std::vector<Diagnostic> no_deadlines;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 2\npolicy = deadline\n",
      &no_deadlines);
  EXPECT_TRUE(
      has_diag(no_deadlines, "tenants.deadlines_us", "missing required"));

  // Each tenant submits on its own queue, so count is capped by the
  // drive's queue count.
  std::vector<Diagnostic> too_many;
  parse_text(
      "[drive]\nbackend = analytic\nqueue_count = 2\n"
      "[workload]\nprofile = postmark\n[tenants]\ncount = 3\n",
      &too_many);
  EXPECT_TRUE(has_diag(too_many, "tenants.count",
                       "exceeds drive.queue_count"));

  // Unknown per-tenant profile names are rejected like workload.profile.
  std::vector<Diagnostic> bad_profile;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[tenants]\ncount = 2\nprofiles = postmark, not-a-trace\n",
      &bad_profile);
  EXPECT_TRUE(has_diag(bad_profile, "tenants.profiles",
                       "unknown workload profile 'not-a-trace'"));
}

TEST(Spec, TenantsConflictWithTraceAndFleet) {
  // [tenants] generates its own synthetic traffic; combining it with a
  // [trace] replay or a [fleet] run is contradictory.
  std::vector<Diagnostic> with_trace;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[trace]\npath = t.csv\n[tenants]\ncount = 2\n",
      &with_trace);
  EXPECT_TRUE(has_diag(with_trace, "tenants.count", "[trace]"));

  std::vector<Diagnostic> with_fleet;
  parse_text(
      "[drive]\nbackend = analytic\n[workload]\nprofile = postmark\n"
      "[fleet]\ndrives = 4\n[tenants]\ncount = 2\n",
      &with_fleet);
  EXPECT_TRUE(has_diag(with_fleet, "tenants.count", "fleet"));
}

}  // namespace
}  // namespace rdsim::cfg
