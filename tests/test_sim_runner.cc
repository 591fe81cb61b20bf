// Tests for the sim layer: the ThreadPool experiments run on, Rng stream
// splitting, the experiment registry, and the headline determinism
// contract — the merged result of an experiment is byte-identical no
// matter how many threads executed it.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/datafile.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"
#include "sim/table.h"

namespace rdsim::sim {
namespace {

ExperimentConfig tiny_config(int threads, std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.seed = seed;
  config.threads = threads;
  config.geometry = nand::Geometry::tiny();
  config.scale = 0.01;
  return config;
}

TEST(RngStream, DeterministicAndDecorrelated) {
  Rng a0 = Rng::stream(42, 0);
  Rng a0_again = Rng::stream(42, 0);
  Rng a1 = Rng::stream(42, 1);
  Rng b0 = Rng::stream(43, 0);
  const std::uint64_t x = a0.next();
  EXPECT_EQ(x, a0_again.next());  // Same (seed, id) -> same stream.
  EXPECT_NE(x, a1.next());        // Neighboring ids differ.
  EXPECT_NE(x, b0.next());        // Neighboring seeds differ.
}

TEST(ThreadPool, MapReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto out = pool.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    const auto out = pool.map<int>(40, [round](std::size_t i) {
      return static_cast<int>(i) + round;
    });
    ASSERT_EQ(out.size(), 40u);
    EXPECT_EQ(out[7], 7 + round);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each(32,
                             [](std::size_t i) {
                               if (i == 13)
                                 throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // The pool must still be usable after a failed batch.
  const auto out = pool.map<int>(8, [](std::size_t i) {
    return static_cast<int>(i);
  });
  EXPECT_EQ(out.back(), 7);
}

// ExperimentContext::sweep's stream contract: point i draws from
// Rng::stream(seed, base + i), the next next_stream() continues at
// base + n, and results come back in point order at any pool width.
TEST(Sweep, NumbersStreamsByPointAndKeepsPointOrder) {
  const std::vector<int> points = {30, 10, 50, 20, 40, 60, 0};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ExperimentContext ctx(tiny_config(threads, 7), pool);
    ctx.next_stream();  // The sweep's base is now 1.
    const auto out = ctx.sweep(points, [](int point, Rng& rng) {
      return std::make_pair(point, rng.next());
    });
    ASSERT_EQ(out.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(out[i].first, points[i]);
      EXPECT_EQ(out[i].second, Rng::stream(7, 1 + i).next()) << i;
    }
    EXPECT_EQ(ctx.next_stream().next(),
              Rng::stream(7, 1 + points.size()).next());
  }
}

TEST(Table, WritesCommentsRowsAndSectionBreaks) {
  Table table;
  table.comment("first");
  table.row("a,b");
  table.row("1,2");
  table.new_section();
  table.comment("second");
  table.row("c");
  EXPECT_EQ(table.to_csv(), "# first\na,b\n1,2\n\n# second\nc\n");
  EXPECT_FALSE(table.empty());
  EXPECT_TRUE(Table{}.empty());
}

TEST(Registry, EveryNameResolvesToItsEntry) {
  ASSERT_FALSE(experiments().empty());
  for (const auto& e : experiments()) {
    const ExperimentInfo* found = find_experiment(e.name);
    ASSERT_NE(found, nullptr) << e.name;
    EXPECT_EQ(found, &e);
  }
  EXPECT_EQ(find_experiment("no_such_experiment"), nullptr);
  EXPECT_THROW(run_experiment("no_such_experiment", tiny_config(1)),
               std::invalid_argument);
}

TEST(Registry, EveryExperimentRunsOnTinyGeometry) {
  for (const auto& e : experiments()) {
    SCOPED_TRACE(e.name);
    const Table table = run_experiment(e, tiny_config(2));
    EXPECT_FALSE(table.empty());
    // Every experiment emits at least a header row and one data row.
    std::size_t rows = 0;
    for (const auto& s : table.sections()) rows += s.rows.size();
    EXPECT_GE(rows, 2u);
  }
}

// The headline contract: same seed => byte-identical merged results for
// 1 thread and 8 threads, for every experiment in the registry.
TEST(Determinism, ThreadCountDoesNotChangeResults) {
  for (const auto& e : experiments()) {
    SCOPED_TRACE(e.name);
    const std::string serial =
        run_experiment(e, tiny_config(1)).to_csv();
    const std::string threaded =
        run_experiment(e, tiny_config(8)).to_csv();
    EXPECT_EQ(serial, threaded);
  }
}

TEST(Determinism, SeedActuallyMattersForMonteCarloExperiments) {
  const std::string a =
      run_experiment("fig10", tiny_config(2, 1)).to_csv();
  const std::string b =
      run_experiment("fig10", tiny_config(2, 2)).to_csv();
  EXPECT_NE(a, b);
}

// A [fleet] config is a fleet lifetime run; `scenario` must refuse it and
// point at fig_fleet rather than silently replaying one drive of it.
TEST(Scenario, RejectsFleetConfigNamingFigFleet) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rdsim_scenario_fleet.conf")
          .string();
  std::ofstream(path) << "[drive]\nbackend = analytic\n"
                         "[workload]\nprofile = postmark\n"
                         "[fleet]\ndrives = 4\n";
  ExperimentConfig config = tiny_config(1);
  config.scenario_config = path;
  try {
    run_experiment("scenario", config);
    ADD_FAILURE() << "scenario accepted a [fleet] config";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--experiment fig_fleet"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// A trace replay runs no day loop, and a closed-loop replay's queue depth
// is [trace]'s; the summary row must report those, not [scenario]'s
// `days` and `queue_depth`.
TEST(Scenario, TraceReplaySummaryReportsTheReplaysOwnDaysAndDepth) {
  const std::string trace = find_test_data("msr_cambridge_sample.csv");
  ASSERT_FALSE(trace.empty());
  const std::string path =
      (std::filesystem::temp_directory_path() / "rdsim_scenario_trace.conf")
          .string();
  for (const char* mode : {"closed", "open"}) {
    SCOPED_TRACE(mode);
    std::ofstream(path) << "[drive]\nbackend = analytic\n"
                           "[scenario]\ndays = 3\nqueue_depth = 4\n"
                           "[trace]\npath = " << trace << "\nmode = " << mode
                        << "\nqueue_depth = 8\n";
    ExperimentConfig config = tiny_config(1);
    config.scenario_config = path;
    const Table table = run_experiment("scenario", config);
    const std::vector<std::string>& rows = table.sections().front().rows;
    ASSERT_GE(rows.size(), 2u);
    ASSERT_EQ(rows[0].rfind("backend,shards,days,queue_depth,", 0), 0u);
    // backend,shards,days,queue_depth: a one-shard analytic drive.
    EXPECT_EQ(rows[1].rfind(std::string("analytic,1,0,") +
                                (mode[0] == 'c' ? "8," : "0,"),
                            0),
              0u)
        << rows[1];
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rdsim::sim
