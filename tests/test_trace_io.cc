// Tests for trace file I/O (rdsim CSV + MSR-Cambridge format, read
// through the streaming reader) and FTL snapshot persistence.
#include <gtest/gtest.h>

#include <sstream>

#include "ftl/ftl.h"
#include "replay/trace_reader.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/trace_io.h"

namespace rdsim {
namespace {

using workload::IoRequest;

/// Reads a whole trace through the streaming reader, the one way rdsim
/// reads a trace file.
std::vector<IoRequest> read_all(const std::string& text,
                                replay::TraceFormat format) {
  std::istringstream in(text);
  replay::StreamingTraceReader reader(in, format);
  std::vector<IoRequest> out;
  IoRequest r;
  while (reader.next(&r)) out.push_back(r);
  return out;
}

std::vector<IoRequest> read_csv(const std::string& text) {
  return read_all(text, replay::TraceFormat::kCsv);
}

std::vector<IoRequest> read_msr(const std::string& text) {
  return read_all(text, replay::TraceFormat::kMsr);
}

/// The reader's error for `text`, or "" when it is accepted.
std::string read_error(const std::string& text, replay::TraceFormat format) {
  try {
    read_all(text, format);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, CsvRoundTrip) {
  std::vector<IoRequest> trace = {
      {0.5, 100, 4, false},
      {1.25, 200, 1, true},
      {2.0, 0, 64, false},
  };
  std::stringstream ss;
  workload::write_trace_csv(ss, trace);
  const auto back = read_csv(ss.str());
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(back[i].time_s, trace[i].time_s, 1e-6);
    EXPECT_EQ(back[i].lpn, trace[i].lpn);
    EXPECT_EQ(back[i].pages, trace[i].pages);
    EXPECT_EQ(back[i].is_write, trace[i].is_write);
  }
}

TEST(TraceIo, CsvHeaderOptional) {
  const auto trace = read_csv("0.100000,R,7,2\n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].lpn, 7u);
  EXPECT_FALSE(trace[0].is_write);
}

TEST(TraceIo, CsvRejectsMalformed) {
  // Each row is rejected with its line number and the offending field:
  // a bad op, a short row, a non-numeric lpn, a non-finite time (which
  // the replayer's clamp would otherwise turn into 0 or an infinite
  // span), a page count that does not fit 32 bits (4294967297 used to
  // truncate to 1 page), and numbers outside the decimal grammar.
  const struct {
    const char* row;
    const char* what;
  } cases[] = {
      {"0.1,X,7,2\n", "bad op: 'X'"},
      {"0.1,R,7\n", "bad trace row"},
      {"0.1,R,seven,2\n", "bad lpn: 'seven'"},
      {"nan,R,7,2\n", "bad time: 'nan'"},
      {"inf,R,7,2\n", "bad time: 'inf'"},
      {"-inf,R,7,2\n", "bad time: '-inf'"},
      {"1e400,R,7,2\n", "bad time: '1e400'"},
      {"0x1p3,R,7,2\n", "bad time: '0x1p3'"},
      {"+0.1,R,7,2\n", "bad time: '+0.1'"},
      {"0.1,R,7,4294967296\n", "bad pages: '4294967296'"},
      {"0.1,R,7,4294967297\n", "bad pages: '4294967297'"},
      {"0.1,R,18446744073709551616,2\n", "bad lpn"},
  };
  for (const auto& c : cases) {
    const std::string error = read_error(
        std::string("time_s,op,lpn,pages\n0.0,R,1,1\n") + c.row,
        replay::TraceFormat::kCsv);
    EXPECT_NE(error.find(std::string("line 3: ") + c.what),
              std::string::npos)
        << c.row << " -> " << error;
  }
}

TEST(TraceIo, GeneratedDayRoundTrips) {
  workload::TraceGenerator gen(workload::profile_by_name("cello99"),
                               1u << 18, 5);
  auto day = gen.day();
  day.resize(std::min<std::size_t>(day.size(), 500));
  std::stringstream ss;
  workload::write_trace_csv(ss, day);
  const auto back = read_csv(ss.str());
  ASSERT_EQ(back.size(), day.size());
  EXPECT_EQ(back[42].lpn, day[42].lpn);
}

TEST(TraceIo, MsrLineParsing) {
  IoRequest r;
  std::uint64_t tick = 0;
  // 128 KB read at byte offset 81920 -> pages 10..25 with 8 KiB pages.
  ASSERT_TRUE(workload::parse_msr_line(
      "128166372003061419,usr,0,Read,81920,131072,1029", 8192, &r, &tick));
  EXPECT_FALSE(r.is_write);
  EXPECT_EQ(r.lpn, 10u);
  EXPECT_EQ(r.pages, 16u);
}

TEST(TraceIo, MsrWriteAndRebase) {
  const auto trace = read_msr(
      "128166372003061419,usr,0,Read,0,8192,100\n"
      "128166372013061419,usr,0,Write,8192,8192,100\n");
  ASSERT_EQ(trace.size(), 2u);
  const IoRequest& r = trace[1];
  EXPECT_TRUE(r.is_write);
  EXPECT_EQ(r.lpn, 1u);
  EXPECT_EQ(r.pages, 1u);
  EXPECT_NEAR(r.time_s, 1.0, 1e-6);  // 1e7 ticks = 1 s.
}

TEST(TraceIo, MsrSkipsComments) {
  IoRequest r;
  std::uint64_t tick = 0;
  EXPECT_FALSE(workload::parse_msr_line("# header", 8192, &r, &tick));
  EXPECT_FALSE(workload::parse_msr_line("", 8192, &r, &tick));
}

TEST(TraceIo, MsrFullStream) {
  const auto trace = read_msr(
      "128166372003061419,usr,0,Read,0,16384,10\n"
      "128166372013061419,usr,0,Write,40960,4096,12\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_NEAR(trace[0].time_s, 0.0, 1e-9);
  EXPECT_NEAR(trace[1].time_s, 1.0, 1e-6);
  EXPECT_EQ(trace[0].pages, 2u);
  EXPECT_EQ(trace[1].lpn, 5u);
}

TEST(TraceIo, MsrTickBeforeFirstRebasesNegative) {
  // An out-of-order tick before the first record's rebases to a negative
  // time (which the replayer clamps to 0, as for a negative CSV time);
  // it must not wrap around as an unsigned difference.
  const auto trace = read_msr(
      "128166372013061419,usr,0,Read,0,4096,1\n"
      "128166372003061419,usr,0,Read,0,4096,1\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(trace[1].time_s, -1.0);
}

TEST(TraceIo, MsrSubPageWriteTouchesOnePage) {
  IoRequest r;
  std::uint64_t tick = 0;
  ASSERT_TRUE(
      workload::parse_msr_line("1,h,0,Write,100,512,1", 8192, &r, &tick));
  EXPECT_EQ(r.lpn, 0u);
  EXPECT_EQ(r.pages, 1u);
}

// --- Robustness hardening: CRLF, whitespace, quoting, zero-size ------------

TEST(TraceIo, MsrToleratesCrlfAndWhitespace) {
  IoRequest r;
  std::uint64_t tick = 0;
  ASSERT_TRUE(workload::parse_msr_line(
      "  128166372003061419 , usr ,0,\tRead , 81920 ,131072, 1029\r", 8192,
      &r, &tick));
  EXPECT_FALSE(r.is_write);
  EXPECT_EQ(r.lpn, 10u);
  EXPECT_EQ(r.pages, 16u);
}

TEST(TraceIo, MsrToleratesQuotedFields) {
  IoRequest r;
  std::uint64_t tick = 0;
  ASSERT_TRUE(workload::parse_msr_line(
      "\"128166372003061419\",\"usr\",\"0\",\"Write\",\"8192\",\"8192\","
      "\"100\"",
      8192, &r, &tick));
  EXPECT_TRUE(r.is_write);
  EXPECT_EQ(r.lpn, 1u);
  EXPECT_EQ(r.pages, 1u);
}

TEST(TraceIo, MsrRejectsZeroSizeWithLineNumber) {
  IoRequest r;
  std::uint64_t tick = 0;
  try {
    workload::parse_msr_line("5,h,0,Read,8192,0,1", 8192, &r, &tick, 17);
    FAIL() << "zero-size request accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 17"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("zero-size"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, MsrMalformedErrorCarriesLineNumber) {
  // A malformed tick; a byte span whose last byte overflows 2^64-1 (it
  // used to wrap to a tiny request); a span of more than 2^32-1 pages
  // (35 184 372 088 832 000 bytes used to wrap to a zero-page write); an
  // op type that is neither a read nor a write (it used to count as a
  // read).
  const struct {
    const char* row;
    const char* what;
  } cases[] = {
      {"not-a-tick,h,0,Read,0,4096,1", "bad timestamp: 'not-a-tick'"},
      {"5,h,0,Read,18446744073709551615,2,1", "bad size: '2'"},
      {"5,h,0,Write,0,35184372088832000,1", "bad size: '35184372088832000'"},
      {"5,h,0,Read,0,35184372088832001,1", "bad size: '35184372088832001'"},
      {"5,h,0,Trim,0,4096,1", "bad type: 'Trim'"},
      {"5,h,0,,0,4096,1", "bad type: ''"},
      {"5,h,0,Read,-8192,4096,1", "bad offset: '-8192'"},
  };
  for (const auto& c : cases) {
    IoRequest r;
    std::uint64_t tick = 0;
    try {
      workload::parse_msr_line(c.row, 8192, &r, &tick, 99);
      ADD_FAILURE() << c.row << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("line 99: ") + c.what),
                std::string::npos)
          << c.row << " -> " << e.what();
    }
  }
}

TEST(TraceIo, MsrBlankCrlfLineSkipped) {
  IoRequest r;
  std::uint64_t tick = 0;
  EXPECT_FALSE(workload::parse_msr_line("\r", 8192, &r, &tick));
  EXPECT_FALSE(workload::parse_msr_line("  \t # comment\r", 8192, &r, &tick));
}

TEST(TraceIo, MsrTimestampTicksExact) {
  // The raw tick survives exactly (doubles above 2^53 would not) ...
  IoRequest r;
  std::uint64_t tick = 0;
  ASSERT_TRUE(workload::parse_msr_line(
      "128166372003061419,usr,0,Read,0,4096,1", 8192, &r, &tick));
  EXPECT_EQ(tick, 128166372003061419ULL);
  // ... so the reader rebases on integers: two rows one tick apart are
  // exactly one tick (1e-7 s) apart.
  const auto trace = read_msr(
      "128166372003061419,usr,0,Read,0,4096,1\n"
      "128166372003061420,usr,0,Read,0,4096,1\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].time_s, 0.0);
  EXPECT_EQ(trace[1].time_s, 1e-7);
  EXPECT_NE(read_error("garbage,x\n", replay::TraceFormat::kMsr)
                .find("line 1"),
            std::string::npos);
}

TEST(TraceIo, CsvToleratesCrlfAndRejectsZeroPages) {
  const auto trace = read_csv("time_s,op,lpn,pages\r\n0.100000,R,7,2\r\n");
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].lpn, 7u);

  // Blank CRLF lines, comments, whitespace and quotes around fields.
  const auto noisy = read_csv(
      "\r\n  # comment\r\n \"0.2\" , \"W\" ,\t8 , 1\r\n");
  ASSERT_EQ(noisy.size(), 1u);
  EXPECT_EQ(noisy[0].time_s, 0.2);
  EXPECT_TRUE(noisy[0].is_write);
  EXPECT_EQ(noisy[0].lpn, 8u);

  const std::string error =
      read_error("0.1,W,7,0\n", replay::TraceFormat::kCsv);
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("zero-size"), std::string::npos) << error;
}

// --- FTL snapshots -----------------------------------------------------------

ftl::FtlConfig snap_config() {
  ftl::FtlConfig cfg;
  cfg.blocks = 16;
  cfg.pages_per_block = 8;
  cfg.overprovision = 0.25;
  cfg.gc_free_target = 2;
  return cfg;
}

TEST(FtlSnapshot, RoundTripPreservesMapping) {
  ftl::Ftl a(snap_config());
  Rng rng(1);
  for (int i = 0; i < 500; ++i)
    a.write(rng.uniform_u64(a.config().logical_pages()));
  a.advance_time(3.5);
  const auto snap = a.snapshot();

  ftl::Ftl b(snap_config());
  ASSERT_TRUE(b.restore(snap));
  EXPECT_TRUE(b.check_invariants());
  EXPECT_DOUBLE_EQ(b.now_days(), a.now_days());
  EXPECT_EQ(b.free_blocks(), a.free_blocks());
  EXPECT_EQ(b.stats().host_writes, a.stats().host_writes);
  for (std::uint64_t lpn = 0; lpn < a.config().logical_pages(); ++lpn)
    EXPECT_EQ(b.read(lpn), a.read(lpn));
}

TEST(FtlSnapshot, PreservesPerBlockVpass) {
  ftl::Ftl a(snap_config());
  a.write(0);
  a.set_block_vpass(0, 491.5);
  const auto snap = a.snapshot();
  ftl::Ftl b(snap_config());
  ASSERT_TRUE(b.restore(snap));
  bool found = false;
  for (std::size_t i = 0; i < b.block_count(); ++i)
    found |= b.block(i).vpass == 491.5;
  EXPECT_TRUE(found);
}

TEST(FtlSnapshot, RoundTripAcrossTrimGcRefresh) {
  // The snapshot must capture the post-trim mapping state exactly: after
  // a trim + churn (GC) + refresh sequence, the restored FTL serves the
  // same mapping, counts the trims, and keeps the invariants.
  ftl::Ftl a(snap_config());
  Rng rng(7);
  const auto logical = a.config().logical_pages();
  for (std::uint64_t lpn = 0; lpn < logical; ++lpn) a.write(lpn);
  // Trim the lower half (stride 3), churn the upper half until GC runs —
  // the trimmed pages are never rewritten.
  for (std::uint64_t lpn = 0; lpn < logical / 2; lpn += 3) a.trim(lpn);
  for (int i = 0; i < 400; ++i)
    a.write(logical / 2 + rng.uniform_u64(logical - logical / 2));
  a.advance_time(8.0);
  for (const auto b : a.blocks_due_refresh()) a.refresh_block(b);
  ASSERT_GT(a.stats().host_trims, 0u);
  ASSERT_GT(a.stats().gc_erases, 0u);
  ASSERT_GT(a.stats().refreshes, 0u);
  ASSERT_TRUE(a.check_invariants());

  const auto snap = a.snapshot();
  ftl::Ftl b(snap_config());
  ASSERT_TRUE(b.restore(snap));
  EXPECT_TRUE(b.check_invariants());
  EXPECT_EQ(b.stats().host_trims, a.stats().host_trims);
  EXPECT_EQ(b.stats().refreshes, a.stats().refreshes);
  EXPECT_EQ(b.free_blocks(), a.free_blocks());
  for (std::uint64_t lpn = 0; lpn < logical; ++lpn)
    EXPECT_EQ(b.read(lpn), a.read(lpn));
  // Trimmed-and-never-rewritten pages stay unmapped through restore.
  for (std::uint64_t lpn = 0; lpn < logical / 2; lpn += 3)
    EXPECT_EQ(b.read(lpn), ftl::Ftl::kUnmappedBlock);
}

TEST(TraceIo, ToCommandsPreservesOrderAndRoutesRoundRobin) {
  std::vector<IoRequest> trace;
  for (int i = 0; i < 6; ++i)
    trace.push_back({static_cast<double>(i), static_cast<std::uint64_t>(i),
                     static_cast<std::uint32_t>(i + 1), i % 2 == 0});
  const auto commands = workload::to_commands(trace, 4);
  ASSERT_EQ(commands.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(commands[i].lpn, trace[i].lpn);
    EXPECT_EQ(commands[i].pages, trace[i].pages);
    EXPECT_DOUBLE_EQ(commands[i].submit_time_s, trace[i].time_s);
    EXPECT_EQ(commands[i].kind, trace[i].is_write
                                    ? host::CommandKind::kWrite
                                    : host::CommandKind::kRead);
    EXPECT_EQ(commands[i].queue, i % 4);
  }
}

TEST(FtlSnapshot, RejectsCorruption) {
  ftl::Ftl a(snap_config());
  a.write(1);
  auto snap = a.snapshot();
  snap[snap.size() / 2] ^= 0xFF;
  ftl::Ftl b(snap_config());
  EXPECT_FALSE(b.restore(snap));
  // The failed restore must leave b usable and empty.
  EXPECT_TRUE(b.check_invariants());
  EXPECT_EQ(b.read(1), ftl::Ftl::kUnmappedBlock);
}

TEST(FtlSnapshot, RejectsTruncation) {
  ftl::Ftl a(snap_config());
  auto snap = a.snapshot();
  snap.resize(snap.size() / 2);
  ftl::Ftl b(snap_config());
  EXPECT_FALSE(b.restore(snap));
}

TEST(FtlSnapshot, RejectsGeometryMismatch) {
  ftl::Ftl a(snap_config());
  const auto snap = a.snapshot();
  auto other = snap_config();
  other.blocks = 32;
  ftl::Ftl b(other);
  EXPECT_FALSE(b.restore(snap));
}

TEST(FtlSnapshot, CorruptEveryByteFuzz) {
  // Flip the high bit of every byte position in turn: no single-byte
  // corruption may be silently restored. Either the restore fails with a
  // diagnostic, or — only if the flip cancelled out in the CRC, which a
  // single-bit flip cannot — the payload is untouched. Every rejection
  // must leave the target usable and empty.
  ftl::Ftl a(snap_config());
  Rng rng(3);
  for (int i = 0; i < 200; ++i)
    a.write(rng.uniform_u64(a.config().logical_pages()));
  const auto snap = a.snapshot();
  for (std::size_t pos = 0; pos < snap.size(); ++pos) {
    auto bad = snap;
    bad[pos] ^= 0x80;
    ftl::Ftl b(snap_config());
    std::string error;
    ASSERT_FALSE(b.restore(bad, &error)) << "byte " << pos << " accepted";
    EXPECT_FALSE(error.empty()) << "byte " << pos << ": no diagnostic";
    EXPECT_TRUE(b.check_invariants());
    EXPECT_EQ(b.stats().host_writes, 0u)
        << "byte " << pos << ": partial restore leaked state";
  }
}

TEST(FtlSnapshot, RejectsTrailingBytesWithDiagnostic) {
  ftl::Ftl a(snap_config());
  auto snap = a.snapshot();
  snap.push_back(0);  // Over-long: CRC trailer no longer at the end.
  ftl::Ftl b(snap_config());
  std::string error;
  EXPECT_FALSE(b.restore(snap, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FtlSnapshot, DiagnosticsNameTheFailure) {
  ftl::Ftl a(snap_config());
  const auto snap = a.snapshot();
  std::string error;

  ftl::Ftl b(snap_config());
  auto truncated = snap;
  truncated.resize(4);
  EXPECT_FALSE(b.restore(truncated, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  auto corrupt = snap;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_FALSE(b.restore(corrupt, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;

  auto other = snap_config();
  other.blocks = 32;
  ftl::Ftl c(other);
  EXPECT_FALSE(c.restore(snap, &error));
  EXPECT_NE(error.find("geometry"), std::string::npos) << error;
}

TEST(FtlSnapshot, SurvivesContinuedOperation) {
  ftl::Ftl a(snap_config());
  Rng rng(2);
  for (int i = 0; i < 300; ++i)
    a.write(rng.uniform_u64(a.config().logical_pages()));
  const auto snap = a.snapshot();
  ftl::Ftl b(snap_config());
  ASSERT_TRUE(b.restore(snap));
  for (int i = 0; i < 1000; ++i)
    b.write(rng.uniform_u64(b.config().logical_pages()));
  EXPECT_TRUE(b.check_invariants());
}

}  // namespace
}  // namespace rdsim
