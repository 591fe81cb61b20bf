// rdsim/workload/trace_io.h
//
// Trace file I/O: lets the SSD simulator replay externally supplied
// traces and lets the generators export their streams for inspection.
// Two formats:
//   * rdsim CSV: "time_s,op,lpn,pages" with op in {R, W};
//   * MSR-Cambridge SNIA format: "Timestamp,Hostname,DiskNumber,Type,
//     Offset,Size,ResponseTime" with byte offsets/sizes, converted to
//     page granularity on load (the trace family the paper evaluates on).
//
// The line parsers run on the common/text.h scanner and tolerate
// real-world file noise: CRLF line endings, whitespace around fields,
// and quoted (embedded-comma-free) fields. Malformed rows throw
// std::runtime_error "line N: bad <field>: '<text>'" (the prefix only
// when the caller supplies a nonzero line number), so a bad row deep in
// a multi-gigabyte trace is findable. Reading a whole trace is
// replay::StreamingTraceReader's job, with bounded memory.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "workload/trace.h"

namespace rdsim::workload {

/// Writes requests in rdsim CSV format (with a header line).
void write_trace_csv(std::ostream& out, const std::vector<IoRequest>& trace);

/// Parses one rdsim-CSV record. Returns false for blank/comment lines
/// and the "time_s,..." header; throws std::runtime_error (line-numbered
/// when `line_no` > 0) on malformed rows: a non-finite or malformed time,
/// an op other than R/W, or pages outside [1, 2^32-1].
bool parse_csv_trace_line(std::string_view line, IoRequest* out,
                          std::uint64_t line_no = 0);

/// Parses one MSR-Cambridge record into page granularity. Returns false
/// for blank/comment lines. Throws std::runtime_error (line-numbered
/// when `line_no` > 0) on malformed rows, on a type other than
/// Read/read/R/Write/write/W, and on zero-size requests or ones whose
/// byte or page span does not fit. MSR timestamps are Windows ticks
/// (100 ns): `*ticks` gets the raw tick, which a reader rebasing the
/// trace needs because doubles lose integer precision above 2^53;
/// `out->time_s` gets absolute seconds.
bool parse_msr_line(std::string_view line, std::uint32_t page_bytes,
                    IoRequest* out, std::uint64_t* ticks,
                    std::uint64_t line_no = 0);

}  // namespace rdsim::workload
