// Seeded mutation fuzz for every consumer of the common/text.h scanner:
// the streaming trace reader (MSR-Cambridge and rdsim CSV) and the INI
// config -> scenario spec path. Seeds are the checked-in MSR sample, a
// generated rdsim-CSV segment and the built-in scenario profiles
// rendered as INI; mutants get byte flips, insertions, deletions and
// field duplications from a fixed Rng stream, so a failure reproduces
// exactly. Three properties:
//   1. nothing crashes (the sanitizer build runs this test unchanged);
//   2. every input is accepted or rejected with a diagnostic naming its
//      line (trace) or its line or key (config); accepted trace records
//      have a finite time and at least one page;
//   3. a rejected config yields no spec to build from, so no device:
//      the scenario callers build only from a diagnostic-free parse, and
//      an accepted small config must build one.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/config.h"
#include "cfg/profiles.h"
#include "cfg/spec.h"
#include "common/datafile.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "host/factory.h"
#include "replay/trace_reader.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/trace_io.h"

namespace rdsim {
namespace {

// Mutants per seed kind; about 2 s in total in a Release build.
constexpr int kTraceMutants = 150000;
constexpr int kConfigMutants = 60000;

/// Characters that steer the scanner into its edge cases.
constexpr char kAlphabet[] = "0123456789,\n\r\t \"#;=[]-+.eExXinfaNRW";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// `count` consecutive lines of `lines` from a random start, optionally
/// behind `header`.
std::string window(const std::vector<std::string>& lines, std::size_t count,
                   const std::string& header, Rng& rng) {
  const std::size_t start = rng.uniform_u64(lines.size() - count + 1);
  std::string out = rng.bernoulli(0.5) ? header : "";
  for (std::size_t i = start; i < start + count; ++i) out += lines[i] + "\n";
  return out;
}

/// Applies 1-4 random edits: a bit flip, an insertion, a deletion, or a
/// duplicated field or line.
std::string mutate(std::string s, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform_u64(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_u64(s.size() + 1);
    switch (rng.uniform_u64(4)) {
      case 0:
        if (pos < s.size())
          s[pos] = static_cast<char>(s[pos] ^ (1u << rng.uniform_u64(8)));
        break;
      case 1: {
        const char c = rng.bernoulli(0.9)
                           ? kAlphabet[rng.uniform_u64(sizeof(kAlphabet) - 1)]
                           : static_cast<char>(rng.uniform_u64(256));
        s.insert(pos, 1, c);
        break;
      }
      case 2:
        if (pos < s.size()) s.erase(pos, 1 + rng.uniform_u64(8));
        break;
      default: {
        // Duplicate the comma field or the whole line around `pos`.
        const char* delims = rng.bernoulli(0.5) ? ",\n" : "\n";
        const std::size_t b =
            pos == 0 ? 0 : s.find_last_of(delims, pos - 1) + 1;
        const std::size_t end = std::min(s.find_first_of(delims, pos), s.size());
        const char sep = delims[0];
        s.insert(end, sep + s.substr(b, end - b));
        break;
      }
    }
  }
  return s;
}

/// Reads `text` to the end; returns "" when accepted, else the error,
/// which must carry the reader's current line number.
std::string read_trace(const std::string& text, replay::TraceFormat format) {
  std::istringstream in(text);
  replay::StreamingTraceReader reader(in, format);
  workload::IoRequest r;
  try {
    while (reader.next(&r)) {
      if (!std::isfinite(r.time_s) || r.pages == 0) {
        ADD_FAILURE() << "accepted an insane record at line "
                      << reader.line_no() << " of:\n" << text;
        return "insane";
      }
    }
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const std::string prefix =
        "line " + std::to_string(reader.line_no()) + ": ";
    EXPECT_GE(reader.line_no(), 1u) << what;
    EXPECT_EQ(what.rfind(prefix, 0), 0u)
        << "'" << what << "' does not start with '" << prefix << "' for:\n"
        << text;
    return what;
  }
  return "";
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

void fuzz_trace(const std::vector<std::string>& lines, const std::string& header,
                replay::TraceFormat format, std::uint64_t seed, Tally* tally) {
  Rng rng(seed);
  for (int i = 0; i < kTraceMutants; ++i) {
    const std::string mutant =
        mutate(window(lines, 1 + rng.uniform_u64(8), header, rng), rng);
    const auto as = rng.bernoulli(0.5) ? format : replay::TraceFormat::kAuto;
    (read_trace(mutant, as).empty() ? tally->accepted : tally->rejected)++;
  }
}

TEST(TextFuzz, MsrTraceMutants) {
  const std::string path = find_test_data("msr_cambridge_sample.csv");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const auto lines = split_lines(text.str());
  ASSERT_EQ(read_trace(text.str(), replay::TraceFormat::kMsr), "");
  Tally tally;
  fuzz_trace(lines, "", replay::TraceFormat::kMsr, 1, &tally);
  // Both outcomes must be exercised, or the mutator is not biting.
  EXPECT_GT(tally.accepted, kTraceMutants / 20);
  EXPECT_GT(tally.rejected, kTraceMutants / 20);
}

TEST(TextFuzz, CsvTraceMutants) {
  workload::TraceGenerator gen(workload::profile_by_name("umass-web"),
                               1ULL << 24, 7);
  std::vector<workload::IoRequest> segment;
  for (int i = 0; i < 200; ++i) segment.push_back(gen.next());
  std::ostringstream text;
  workload::write_trace_csv(text, segment);
  ASSERT_EQ(read_trace(text.str(), replay::TraceFormat::kCsv), "");
  auto lines = split_lines(text.str());
  const std::string header = lines.front() + "\n";
  lines.erase(lines.begin());
  Tally tally;
  fuzz_trace(lines, header, replay::TraceFormat::kCsv, 2, &tally);
  EXPECT_GT(tally.accepted, kTraceMutants / 20);
  EXPECT_GT(tally.rejected, kTraceMutants / 20);
}

/// The scenario callers' contract: build only from a diagnostic-free
/// parse. Returns the device, or nullptr with `diags` saying why.
std::unique_ptr<host::Device> scenario_device(const std::string& text,
                                              std::vector<cfg::Diagnostic>* diags,
                                              bool build) {
  cfg::Config config = cfg::Config::parse(text, diags);
  if (!diags->empty()) return nullptr;
  const cfg::ScenarioSpec spec = cfg::parse_scenario(config, diags);
  if (!diags->empty() || !build) return nullptr;
  // Only small drives: the fuzzer must not allocate a 2^24-block SSD.
  const cfg::DriveSpec& d = spec.drive;
  const bool analytic = d.backend == cfg::Backend::kAnalytic ||
                        d.backend == cfg::Backend::kShardedAnalytic;
  const double pages = static_cast<double>(d.blocks) * d.pages_per_block;
  const double cells =
      static_cast<double>(d.blocks) * d.wordlines_per_block * d.bitlines;
  if (d.shards > 8 || pages > 65536 || (!analytic && cells > 4e6))
    return nullptr;
  return host::make_device(d, /*seed=*/1);
}

TEST(TextFuzz, ConfigMutants) {
  std::vector<std::string> seeds;
  for (const cfg::Profile& p : cfg::builtin_profiles()) {
    // The fleet runner's canonical INI, minus its [fleet] section for the
    // profiles that are not fleets.
    std::string ini = fleet::FleetRunner::canonical_config(p.spec);
    if (!p.spec.fleet.enabled()) ini.resize(ini.find("\n[fleet]"));
    seeds.push_back(ini);
    std::vector<cfg::Diagnostic> diags;
    scenario_device(seeds.back(), &diags, /*build=*/false);
    ASSERT_TRUE(diags.empty()) << p.name << ":\n"
                               << cfg::format_diagnostics(diags);
  }
  Rng rng(3);
  Tally tally;
  int built = 0;
  for (int i = 0; i < kConfigMutants; ++i) {
    const std::string mutant =
        mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    std::vector<cfg::Diagnostic> diags;
    const bool build = built < 40;
    const auto device = scenario_device(mutant, &diags, build);
    if (diags.empty()) {
      ++tally.accepted;
      built += device != nullptr;
      continue;
    }
    ++tally.rejected;
    EXPECT_EQ(device, nullptr);
    for (const cfg::Diagnostic& d : diags)
      EXPECT_TRUE(d.line > 0 || !d.key.empty())
          << "unattributed diagnostic '" << d.message << "' for:\n"
          << mutant;
  }
  EXPECT_GT(tally.accepted, kConfigMutants / 100);
  EXPECT_GT(tally.rejected, kConfigMutants / 20);
  EXPECT_GT(built, 0);
}

}  // namespace
}  // namespace rdsim
