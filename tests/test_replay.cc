// Tests for the trace-replay subsystem (src/replay):
//   1. the streaming reader agrees record-for-record with the full-file
//      readers, across chunk boundaries, for both formats (auto-detected);
//   2. memory stays bounded by the chunk window when the trace is far
//      larger than the window;
//   3. malformed rows and unrecognizable formats fail with line-numbered
//      errors;
//   4. LBA remapping is a deterministic pure function that keeps requests
//      contiguous and inside the simulated capacity;
//   5. open- and closed-loop replay produce deterministic completion
//      logs — byte-identical across runs and worker counts;
//   6. the ClosedLoopDriver completion sink sees every record exactly
//      once, and the LatencyTracker windows by simulated time.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/spec.h"
#include "common/datafile.h"
#include "host/driver.h"
#include "host/factory.h"
#include "replay/latency.h"
#include "replay/remap.h"
#include "replay/replayer.h"
#include "replay/trace_reader.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/trace_io.h"

namespace rdsim::replay {
namespace {

using workload::IoRequest;

std::string sample_path() {
  const std::string path = find_test_data("msr_cambridge_sample.csv");
  EXPECT_FALSE(path.empty())
      << "tests/data/msr_cambridge_sample.csv not found";
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A synthetic rdsim-CSV trace with `rows` records.
std::string synthetic_csv(std::size_t rows) {
  workload::WorkloadProfile profile = workload::profile_by_name("postmark");
  profile.daily_page_ios = static_cast<double>(rows);
  workload::TraceGenerator gen(profile, 1u << 16, 11);
  std::vector<IoRequest> trace;
  while (trace.size() < rows) {
    for (const IoRequest& r : gen.day()) {
      if (trace.size() == rows) break;
      trace.push_back(r);
    }
  }
  std::ostringstream out;
  workload::write_trace_csv(out, trace);
  return out.str();
}

void expect_same(const std::vector<IoRequest>& a,
                 const std::vector<IoRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s) << i;
    EXPECT_EQ(a[i].lpn, b[i].lpn) << i;
    EXPECT_EQ(a[i].pages, b[i].pages) << i;
    EXPECT_EQ(a[i].is_write, b[i].is_write) << i;
  }
}

// --- Streaming reader -------------------------------------------------------

TEST(StreamingTraceReader, MsrAgreesWithFullReaderAcrossChunkBoundaries) {
  const std::string text = read_file(sample_path());
  ASSERT_FALSE(text.empty());
  std::istringstream full_in(text);
  const auto full = workload::read_msr_trace(full_in);
  ASSERT_EQ(full.size(), 200u);  // The checked-in sample is 200 records.

  // Window 7 does not divide 200, so every chunk boundary lands mid-file.
  std::istringstream stream_in(text);
  StreamingTraceReader reader(stream_in);  // kAuto must sniff MSR.
  std::vector<IoRequest> streamed;
  std::vector<IoRequest> chunk;
  while (reader.read_chunk(7, &chunk) > 0) {
    EXPECT_LE(chunk.size(), 7u);
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(reader.format(), TraceFormat::kMsr);
  EXPECT_EQ(reader.records_read(), full.size());
  expect_same(streamed, full);
  // Rebased: the first record starts the clock.
  EXPECT_DOUBLE_EQ(streamed.front().time_s, 0.0);
}

TEST(StreamingTraceReader, CsvAgreesWithFullReader) {
  const std::string text = synthetic_csv(500);
  std::istringstream full_in(text);
  const auto full = workload::read_trace_csv(full_in);
  ASSERT_EQ(full.size(), 500u);

  std::istringstream stream_in(text);
  StreamingTraceReader reader(stream_in);  // kAuto must sniff CSV.
  std::vector<IoRequest> streamed;
  IoRequest r;
  while (reader.next(&r)) streamed.push_back(r);
  EXPECT_EQ(reader.format(), TraceFormat::kCsv);
  expect_same(streamed, full);
}

TEST(StreamingTraceReader, MemoryBoundedByWindowOnLargeTrace) {
  // A trace 300x larger than the window: the reader must never
  // materialize more than `window` records at once — the chunk vector's
  // capacity (its high-water mark) proves it.
  const std::size_t kWindow = 64;
  const std::size_t kRows = 19200;
  const std::string text = synthetic_csv(kRows);
  std::istringstream in(text);
  StreamingTraceReader reader(in);
  std::vector<IoRequest> chunk;
  std::uint64_t total = 0;
  std::size_t chunks = 0;
  while (reader.read_chunk(kWindow, &chunk) > 0) {
    ASSERT_LE(chunk.size(), kWindow);
    ASSERT_LE(chunk.capacity(), kWindow);
    total += chunk.size();
    ++chunks;
  }
  EXPECT_EQ(total, kRows);
  EXPECT_EQ(chunks, kRows / kWindow);
}

TEST(StreamingTraceReader, MalformedRowFailsWithLineNumber) {
  std::istringstream in(
      "128166372000000000,usr,0,Read,0,4096,1\n"
      "128166372010000000,usr,0,Read,8192,4096,1\n"
      "128166372020000000,usr,0,Read,junk,4096,1\n");
  StreamingTraceReader reader(in);
  IoRequest r;
  EXPECT_TRUE(reader.next(&r));
  EXPECT_TRUE(reader.next(&r));
  try {
    reader.next(&r);
    FAIL() << "malformed row accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(StreamingTraceReader, UnrecognizableFormatFailsWithLineNumber) {
  std::istringstream in("# comment\nfoo,bar\n");
  StreamingTraceReader reader(in);
  IoRequest r;
  try {
    reader.next(&r);
    FAIL() << "2-field row accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("unrecognized"), std::string::npos)
        << e.what();
  }
}

// --- LBA remapping ----------------------------------------------------------

TEST(LbaRemapper, ModuloPreservesLocalityHashScatters) {
  const std::uint64_t kCapacity = 4096;
  const LbaRemapper modulo(RemapPolicy::kModulo, kCapacity);
  const LbaRemapper hash(RemapPolicy::kHash, kCapacity);
  // Modulo keeps a sequential run sequential.
  EXPECT_EQ(modulo.remap_lpn(kCapacity + 5), 5u);
  EXPECT_EQ(modulo.remap_lpn(kCapacity + 6), 6u);
  // Hash is deterministic but decorrelates neighbours.
  EXPECT_EQ(hash.remap_lpn(12345), hash.remap_lpn(12345));
  bool scattered = false;
  for (std::uint64_t lpn = 0; lpn < 16 && !scattered; ++lpn)
    scattered = hash.remap_lpn(lpn) + 1 != hash.remap_lpn(lpn + 1);
  EXPECT_TRUE(scattered);
}

TEST(LbaRemapper, RequestsStayContiguousAndInBounds) {
  const std::uint64_t kCapacity = 1000;
  for (const RemapPolicy policy : {RemapPolicy::kModulo, RemapPolicy::kHash}) {
    const LbaRemapper remapper(policy, kCapacity);
    for (std::uint64_t lpn : {0ull, 999ull, 1000ull, 123456789ull,
                              0xFFFFFFFFFFFFull}) {
      for (std::uint32_t pages : {1u, 17u, 999u, 5000u}) {
        IoRequest r{0.0, lpn, pages, false};
        remapper.apply(&r);
        EXPECT_LT(r.lpn, kCapacity);
        EXPECT_GE(r.pages, 1u);
        EXPECT_LE(r.lpn + r.pages, kCapacity);  // Clamped + shifted to fit.
      }
    }
  }
}

// --- Replay through the host layer ------------------------------------------

cfg::DriveSpec tiny_analytic() {
  cfg::DriveSpec drive;
  drive.backend = cfg::Backend::kAnalytic;
  drive.blocks = 64;
  drive.pages_per_block = 32;
  drive.overprovision = 0.2;
  drive.gc_free_target = 4;
  drive.queue_count = 4;
  return drive;
}

cfg::DriveSpec tiny_sharded_mc() {
  cfg::DriveSpec drive;
  drive.backend = cfg::Backend::kShardedMc;
  drive.shards = 4;
  drive.wordlines_per_block = 16;
  drive.bitlines = 1024;
  drive.blocks = 2;
  drive.queue_count = 4;
  return drive;
}

std::string log_of(const std::vector<host::Completion>& records) {
  std::string log;
  for (const auto& rec : records) {
    log += to_string(rec);
    log += '\n';
  }
  return log;
}

/// Replays the sample trace against a fresh device; returns the log.
std::string replay_sample(const cfg::DriveSpec& drive, int workers,
                          ReplayMode mode, ReplaySummary* summary) {
  const std::unique_ptr<host::Device> device =
      host::make_device(drive, /*seed=*/5, workers);
  if (drive.is_analytic()) host::warm_fill(*device);
  std::ifstream in(sample_path());
  ReplayOptions opts;
  opts.mode = mode;
  opts.remap = RemapPolicy::kHash;
  opts.queue_depth = 8;
  opts.speedup = 50.0;
  opts.window = 16;  // Many windows over 200 records.
  std::vector<host::Completion> log;
  *summary = replay_trace(in, *device, opts, nullptr, &log);
  return log_of(log);
}

TEST(Replayer, OpenLoopLogDeterministicAcrossWorkerCounts) {
  ReplaySummary s1, s4;
  const std::string log1 =
      replay_sample(tiny_sharded_mc(), 1, ReplayMode::kOpen, &s1);
  const std::string log4 =
      replay_sample(tiny_sharded_mc(), 4, ReplayMode::kOpen, &s4);
  EXPECT_EQ(log1, log4);
  EXPECT_EQ(s1.commands, 200u);
  EXPECT_EQ(s1.reads + s1.writes, 200u);
}

TEST(Replayer, ClosedLoopLogDeterministicAcrossWorkerCounts) {
  ReplaySummary s1, s4;
  const std::string log1 =
      replay_sample(tiny_sharded_mc(), 1, ReplayMode::kClosed, &s1);
  const std::string log4 =
      replay_sample(tiny_sharded_mc(), 4, ReplayMode::kClosed, &s4);
  EXPECT_EQ(log1, log4);
  EXPECT_EQ(s1.commands, 200u);
}

TEST(Replayer, OpenAndClosedDifferButRepeatExactly) {
  // Same backend, both disciplines: each repeats itself byte-for-byte
  // (determinism), and they differ from each other (the discipline
  // actually changes the schedule).
  ReplaySummary s;
  const std::string open_a =
      replay_sample(tiny_analytic(), 1, ReplayMode::kOpen, &s);
  const std::string open_b =
      replay_sample(tiny_analytic(), 1, ReplayMode::kOpen, &s);
  const std::string closed_a =
      replay_sample(tiny_analytic(), 1, ReplayMode::kClosed, &s);
  EXPECT_EQ(open_a, open_b);
  EXPECT_NE(open_a, closed_a);
}

TEST(Replayer, OpenLoopSubmitStampsAreMonotone) {
  // The poll watermark assumes non-decreasing submit times; a trace with
  // timestamp jitter is clamped by Device::submit.
  const std::unique_ptr<host::Device> device =
      host::make_device(tiny_analytic(), 3);
  host::warm_fill(*device);
  std::istringstream in(
      "0.000010,R,10,1\n"
      "0.000005,W,20,1\n"  // Out of order: must clamp, not go backwards.
      "0.000020,R,30,1\n");
  ReplayOptions opts;
  opts.mode = ReplayMode::kOpen;
  std::vector<host::Completion> log;
  replay_trace(in, *device, opts, nullptr, &log);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(device->clamped_submits(), 1u);
  double prev = 0.0;
  for (const auto& c : log) {
    EXPECT_GE(c.submit_time_s, prev);
    prev = c.submit_time_s;
  }
}

TEST(Replayer, TraceLargerThanWindowReplaysCompletely) {
  const std::size_t kRows = 2000;
  const std::string text = synthetic_csv(kRows);
  std::istringstream in(text);
  const std::unique_ptr<host::Device> device =
      host::make_device(tiny_analytic(), 9);
  host::warm_fill(*device);
  ReplayOptions opts;
  opts.mode = ReplayMode::kClosed;
  opts.queue_depth = 16;
  opts.window = 128;  // 15+ windows.
  ReplaySummary summary =
      replay_trace(in, *device, opts, nullptr, nullptr);
  EXPECT_EQ(summary.commands, kRows);
  EXPECT_EQ(summary.status_counts[0] + summary.status_counts[1] +
                summary.status_counts[2] + summary.status_counts[3] +
                summary.status_counts[4] + summary.status_counts[5],
            kRows);
}

// --- ClosedLoopDriver sink and LatencyTracker -------------------------------

TEST(ClosedLoopDriver, SinkSeesEveryCompletionExactlyOnce) {
  const std::unique_ptr<host::Device> device =
      host::make_device(tiny_analytic(), 1);
  host::warm_fill(*device);
  host::ClosedLoopDriver driver(*device, 4);
  std::vector<host::Completion> sunk;
  driver.set_completion_sink(&sunk);
  std::vector<host::Command> batch;
  for (int i = 0; i < 100; ++i) {
    host::Command c;
    c.kind = i % 3 == 0 ? host::CommandKind::kWrite
                        : host::CommandKind::kRead;
    c.lpn = static_cast<std::uint64_t>(i * 7 % 100);
    c.queue = static_cast<std::uint16_t>(i % 4);
    batch.push_back(c);
  }
  driver.run(batch);
  ASSERT_EQ(sunk.size(), batch.size());
  // Each device-assigned id appears exactly once (ids continue past the
  // warm-fill commands, so track them as a set).
  std::set<std::uint64_t> seen;
  for (const auto& c : sunk)
    EXPECT_TRUE(seen.insert(c.id).second)
        << "duplicate completion id " << c.id;
}

TEST(LatencyTracker, WindowsBySimulatedTimeFromOrigin) {
  LatencyTracker tracker(/*window_s=*/1.0, /*max_latency_us=*/1000.0,
                         /*bins=*/1000);
  tracker.set_origin(100.0);
  auto read_at = [](double complete_s, double latency_s) {
    host::Completion c;
    c.kind = host::CommandKind::kRead;
    c.submit_time_s = complete_s - latency_s;
    c.service_start_s = c.submit_time_s;
    c.complete_time_s = complete_s;
    return c;
  };
  tracker.observe(read_at(100.2, 100e-6));  // Window 0.
  tracker.observe(read_at(100.9, 100e-6));  // Window 0.
  tracker.observe(read_at(102.5, 500e-6));  // Window 2.
  // Fractionally before the origin still lands in window 0, not UB.
  tracker.observe(read_at(99.999, 50e-6));
  const auto rows = tracker.window_rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].reads, 3u);
  EXPECT_EQ(rows[1].reads, 0u);  // Empty window present, zero counts.
  EXPECT_EQ(rows[2].reads, 1u);
  EXPECT_DOUBLE_EQ(rows[1].p99_us, 0.0);
  // Window 2 holds exactly the 500us read; p50 is its bin's upper edge
  // (within one 1us bin of the sample).
  EXPECT_NEAR(rows[2].p50_us, 500.0, 1.5);
  EXPECT_EQ(tracker.observed(), 4u);
  // The full-run CDF covers all four reads.
  EXPECT_DOUBLE_EQ(
      tracker.histogram(host::CommandKind::kRead).cdf_points().back().fraction,
      1.0);
}

}  // namespace
}  // namespace rdsim::replay
