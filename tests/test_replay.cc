// Tests for the trace-replay subsystem (src/replay):
//   1. the streaming reader agrees record-for-record with the per-line
//      parsers, across chunk boundaries, for both formats (auto-detected);
//   2. memory stays bounded by the chunk window when the trace is far
//      larger than the window;
//   3. malformed rows and unrecognizable formats fail with line-numbered
//      errors;
//   4. LBA remapping is a deterministic pure function that keeps requests
//      contiguous and inside the simulated capacity;
//   5. open- and closed-loop replay produce deterministic completion
//      logs — byte-identical across runs and worker counts;
//   6. the completion log equals a sequential reference replayer's
//      (caller-thread parse, append, one final std::sort) on sharded
//      drives whose drained batches straddle, at any window and with a
//      caller-supplied unsorted prefix; a parse error leaves the device
//      exactly where the sequential reader left it;
//   7. the ClosedLoopDriver completion sink sees every record exactly
//      once, the driver refuses to start on a device with commands still
//      outstanding, and the LatencyTracker windows by simulated time.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
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

/// The reference the streaming reader must agree with: `text` through
/// the workload/trace_io.h line parsers, one getline at a time, MSR ticks
/// rebased on the first record's (the inputs here are in tick order).
std::vector<IoRequest> parse_lines(const std::string& text,
                                   TraceFormat format) {
  std::istringstream in(text);
  std::vector<IoRequest> out;
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t first_tick = 0;
  IoRequest r;
  while (std::getline(in, line)) {
    ++line_no;
    if (format == TraceFormat::kCsv) {
      if (workload::parse_csv_trace_line(line, &r, line_no)) out.push_back(r);
      continue;
    }
    std::uint64_t tick = 0;
    if (!workload::parse_msr_line(line, 8192, &r, &tick, line_no)) continue;
    if (out.empty()) first_tick = tick;
    r.time_s = static_cast<double>(tick - first_tick) * 1e-7;
    out.push_back(r);
  }
  return out;
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

TEST(StreamingTraceReader, MsrAgreesWithLineParserAcrossChunkBoundaries) {
  const std::string text = read_file(sample_path());
  ASSERT_FALSE(text.empty());
  const auto full = parse_lines(text, TraceFormat::kMsr);
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

TEST(StreamingTraceReader, CsvAgreesWithLineParser) {
  const std::string text = synthetic_csv(500);
  const auto full = parse_lines(text, TraceFormat::kCsv);
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

/// Replays the sample trace against a fresh device; returns the log and
/// copies the device's statistics (which cover exactly the replay: warm
/// fill resets them) into *stats.
std::string replay_sample(const cfg::DriveSpec& drive, int workers,
                          ReplayMode mode, host::CompletionStats* stats) {
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
  replay_trace(in, *device, opts, nullptr, &log);
  *stats = device->stats();
  return log_of(log);
}

TEST(Replayer, OpenLoopLogDeterministicAcrossWorkerCounts) {
  host::CompletionStats s1, s4;
  const std::string log1 =
      replay_sample(tiny_sharded_mc(), 1, ReplayMode::kOpen, &s1);
  const std::string log4 =
      replay_sample(tiny_sharded_mc(), 4, ReplayMode::kOpen, &s4);
  EXPECT_EQ(log1, log4);
  EXPECT_EQ(s1.commands(), 200u);
  EXPECT_EQ(s1.commands(host::CommandKind::kRead) +
                s1.commands(host::CommandKind::kWrite),
            200u);
}

TEST(Replayer, ClosedLoopLogDeterministicAcrossWorkerCounts) {
  host::CompletionStats s1, s4;
  const std::string log1 =
      replay_sample(tiny_sharded_mc(), 1, ReplayMode::kClosed, &s1);
  const std::string log4 =
      replay_sample(tiny_sharded_mc(), 4, ReplayMode::kClosed, &s4);
  EXPECT_EQ(log1, log4);
  EXPECT_EQ(s1.commands(), 200u);
}

TEST(Replayer, OpenAndClosedDifferButRepeatExactly) {
  // Same backend, both disciplines: each repeats itself byte-for-byte
  // (determinism), and they differ from each other (the discipline
  // actually changes the schedule).
  host::CompletionStats s;
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
  // Background-window pruning assumes non-decreasing submit times; a
  // trace with timestamp jitter is clamped by Device::submit.
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
  replay_trace(in, *device, opts, nullptr, nullptr);
  const host::CompletionStats& stats = device->stats();
  EXPECT_EQ(stats.commands(), kRows);
  std::uint64_t by_status = 0;
  for (std::size_t s = 0; s < host::kStatusCount; ++s)
    by_status += stats.commands(static_cast<host::Status>(s));
  EXPECT_EQ(by_status, kRows);
}

// --- Ordered log and parse errors -------------------------------------------

cfg::DriveSpec tiny_sharded_analytic() {
  cfg::DriveSpec drive = tiny_analytic();
  drive.backend = cfg::Backend::kShardedAnalytic;
  drive.shards = 4;
  return drive;
}

host::Command command_of(const IoRequest& r, std::uint64_t seq,
                         std::uint32_t queues) {
  host::Command c;
  c.kind = r.is_write ? host::CommandKind::kWrite : host::CommandKind::kRead;
  c.lpn = r.lpn;
  c.pages = r.pages;
  c.queue = static_cast<std::uint16_t>(seq % queues);
  c.submit_time_s = r.time_s;
  return c;
}

/// The reference replayer: the calling thread reads each window with
/// read_chunk, submits and drains it (open loop) or runs it (closed
/// loop), appends every record as it arrives, and sorts the whole log
/// once at the end. *unsorted receives the log before that sort. A parse
/// error propagates from read_chunk before its window is submitted.
void sequential_replay(std::istream& in, host::Device& device,
                       const ReplayOptions& o,
                       std::vector<host::Completion>* log,
                       std::vector<host::Completion>* unsorted = nullptr) {
  StreamingTraceReader reader(in, o.format, o.page_bytes);
  const LbaRemapper remapper(o.remap, device.logical_pages());
  const double origin_s = device.now_s();
  const std::uint32_t queues = std::max(1u, device.queue_count());
  std::vector<IoRequest> chunk;
  std::uint64_t seq = 0;
  host::ClosedLoopDriver driver(device, static_cast<int>(o.queue_depth));
  driver.set_completion_sink(log);
  std::vector<host::Command> commands;
  while (reader.read_chunk(o.window, &chunk) > 0) {
    commands.clear();
    for (IoRequest& r : chunk) {
      remapper.apply(&r);
      commands.push_back(command_of(r, seq++, queues));
    }
    if (o.mode == ReplayMode::kClosed) {
      driver.run(commands);
      continue;
    }
    for (host::Command& c : commands) {
      c.submit_time_s = origin_s + std::max(0.0, c.submit_time_s) / o.speedup;
      device.submit(c);
    }
    device.drain(log);
  }
  if (unsorted != nullptr) *unsorted = *log;
  std::sort(log->begin(), log->end(), host::completion_log_order);
}

/// Records a caller left in the log before replaying: out of order, with
/// ids no device assigns, completing before, among and after the replay's.
std::vector<host::Completion> unsorted_prefix(double origin_s) {
  std::vector<host::Completion> prefix;
  for (std::uint64_t k = 0; k < 13; ++k) {
    host::Completion c;
    c.id = 1'000'000'000 + k;
    c.lpn = k;
    c.complete_time_s = origin_s - 0.5 + static_cast<double>(k * 7 % 13) * 0.2;
    c.submit_time_s = c.service_start_s = c.complete_time_s - 1e-4;
    prefix.push_back(c);
  }
  return prefix;
}

TEST(Replayer, LogEqualsSortedSequentialReplayOnStraddlingShardedDrives) {
  const std::string analytic_trace = synthetic_csv(9000);
  const std::string mc_trace = read_file(sample_path());
  struct Case {
    const char* name;
    cfg::DriveSpec drive;
    const std::string* trace;
  };
  const Case cases[] = {{"sharded_analytic", tiny_sharded_analytic(),
                         &analytic_trace},
                        {"sharded_mc", tiny_sharded_mc(), &mc_trace}};
  for (const Case& k : cases) {
    // A straddle is a drained batch that completes before the log's tail:
    // the reference's append order is then out of log order, so the
    // replayer's final sort (not its already-in-order shortcut) is what
    // these cases exercise.
    int straddling = 0;
    for (const ReplayMode mode : {ReplayMode::kOpen, ReplayMode::kClosed}) {
      for (const std::size_t window : {1u, 7u, 16u, 4096u}) {
        for (const bool prefilled : {false, true}) {
          SCOPED_TRACE(std::string(k.name) + " " +
                       std::string(name(mode)) + " window " +
                       std::to_string(window) +
                       (prefilled ? " prefilled" : ""));
          ReplayOptions opts;
          opts.mode = mode;
          opts.remap = RemapPolicy::kHash;
          opts.queue_depth = 8;
          opts.speedup = 50.0;
          opts.window = window;
          const auto run = [&](bool reference,
                               std::vector<host::Completion>* unsorted) {
            const std::unique_ptr<host::Device> device =
                host::make_device(k.drive, /*seed=*/5, /*workers=*/2);
            if (k.drive.is_analytic()) host::warm_fill(*device);
            std::vector<host::Completion> log;
            if (prefilled) log = unsorted_prefix(device->now_s());
            std::istringstream in(*k.trace);
            if (reference)
              sequential_replay(in, *device, opts, &log, unsorted);
            else
              replay_trace(in, *device, opts, nullptr, &log);
            return log;
          };
          std::vector<host::Completion> appended;
          const std::vector<host::Completion> expected = run(true, &appended);
          const std::vector<host::Completion> actual = run(false, nullptr);
          ASSERT_EQ(actual.size(), expected.size());
          EXPECT_EQ(log_of(actual), log_of(expected));
          if (!prefilled &&
              !std::is_sorted(appended.begin(), appended.end(),
                              host::completion_log_order))
            ++straddling;
        }
      }
    }
    EXPECT_GT(straddling, 0) << k.name << ": no batch straddled";
  }
}

/// `rows` synthetic CSV records (line 1 is the header, record i is on
/// line i + 2) with line `bad_line` replaced by a malformed row.
std::string csv_with_bad_line(std::size_t rows, std::size_t bad_line) {
  std::istringstream in(synthetic_csv(rows));
  std::string text;
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n)
    text += (n == bad_line ? std::string("0.5,R,junk,1") : line) + '\n';
  return text;
}

TEST(Replayer, ParseErrorLeavesEveryWholeWindowBeforeItReplayed) {
  const std::size_t kRows = 9000;
  for (const ReplayMode mode : {ReplayMode::kOpen, ReplayMode::kClosed}) {
    for (const std::size_t window : {1u, 7u, 16u, 4096u}) {
      // An early line (inside the first 4096-record block) and a late one
      // (blocks after the first).
      for (const std::size_t bad_line : {300u, 8500u}) {
        SCOPED_TRACE(std::string(name(mode)) + " window " +
                     std::to_string(window) + " bad line " +
                     std::to_string(bad_line));
        const std::string text = csv_with_bad_line(kRows, bad_line);
        ReplayOptions opts;
        opts.mode = mode;
        opts.window = window;
        const auto run = [&](bool reference) {
          const std::unique_ptr<host::Device> device =
              host::make_device(tiny_sharded_analytic(), 9, 2);
          host::warm_fill(*device);
          std::istringstream in(text);
          std::vector<host::Completion> log;
          try {
            if (reference)
              sequential_replay(in, *device, opts, &log);
            else
              replay_trace(in, *device, opts, nullptr, &log);
            ADD_FAILURE() << "malformed line accepted";
          } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "line " + std::to_string(bad_line) + ":"),
                      std::string::npos)
                << e.what();
          }
          EXPECT_EQ(device->outstanding(), 0u);
          return device->stats().commands();
        };
        // Records on lines 2 .. bad_line - 1; only whole windows replay.
        const std::size_t before = bad_line - 2;
        const std::uint64_t commands = run(false);
        EXPECT_EQ(commands, before / window * window);
        EXPECT_EQ(commands, run(true));
      }
    }
  }
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

TEST(ClosedLoopDriver, RefusesToStartOnABusyDevice) {
  // The driver's slots count only its own commands: commands already
  // outstanding would overfill the queue and reach the sink, so run()
  // refuses them and leaves the device untouched.
  const std::unique_ptr<host::Device> device =
      host::make_device(tiny_analytic(), 1);
  host::warm_fill(*device);
  host::Command read;
  read.lpn = 3;
  device->submit(read);
  read.lpn = 5;
  device->submit(read);
  host::ClosedLoopDriver driver(*device, 1);
  std::vector<host::Completion> sunk;
  driver.set_completion_sink(&sunk);
  const std::vector<host::Command> batch(8, read);
  EXPECT_THROW(driver.run(batch), std::logic_error);
  EXPECT_TRUE(sunk.empty());
  EXPECT_EQ(device->outstanding(), 2u);
  // Once drained, the same batch runs and sinks exactly its own records.
  std::vector<host::Completion> early;
  EXPECT_EQ(device->drain(&early), 2u);
  driver.run(batch);
  EXPECT_EQ(sunk.size(), batch.size());
  EXPECT_EQ(device->outstanding(), 0u);
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
