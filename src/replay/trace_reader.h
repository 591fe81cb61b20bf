// rdsim/replay/trace_reader.h
//
// Streaming trace ingestion with bounded memory: the only way rdsim
// reads a whole trace. The reader pulls one line at a time from its
// stream into one reused line buffer and materializes at most `window`
// requests per read_chunk() call, so replaying a multi-gigabyte trace
// costs O(window) memory regardless of trace length. Each line goes
// through the workload/trace_io.h line parsers (tested to agree
// record-for-record).
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "replay/options.h"
#include "workload/trace.h"

namespace rdsim::replay {

/// Pull-based streaming reader over MSR-Cambridge or rdsim-CSV traces.
/// Not copyable (borrows the stream). Malformed rows throw
/// std::runtime_error with a "line N:" prefix.
class StreamingTraceReader {
 public:
  /// `in` must outlive the reader. With kAuto the format is sniffed from
  /// the first record's field count (4 => CSV, 6+ => MSR).
  explicit StreamingTraceReader(std::istream& in,
                                TraceFormat format = TraceFormat::kAuto,
                                std::uint32_t page_bytes = 8192);

  StreamingTraceReader(const StreamingTraceReader&) = delete;
  StreamingTraceReader& operator=(const StreamingTraceReader&) = delete;

  /// Reads the next record into *out. Returns false at end of trace.
  /// MSR timestamps are rebased so the first record is t = 0.
  bool next(workload::IoRequest* out);

  /// Appends up to `window` records to *out (which is cleared first).
  /// Returns the number appended; 0 means end of trace.
  std::size_t read_chunk(std::size_t window,
                         std::vector<workload::IoRequest>* out);

  /// Format actually in use (resolved after the first record when
  /// constructed with kAuto).
  TraceFormat format() const { return format_; }

  /// Records returned so far.
  std::uint64_t records_read() const { return records_; }

  /// 1-based line number of the last line consumed from the stream.
  std::uint64_t line_no() const { return line_no_; }

 private:
  std::istream& in_;
  std::string line_;  ///< Reused across records: no per-line allocation.
  TraceFormat format_;
  std::uint32_t page_bytes_;
  std::uint64_t line_no_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t first_tick_ = 0;  ///< MSR: the first record's raw tick.
};

}  // namespace rdsim::replay
