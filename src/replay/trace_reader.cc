#include "replay/trace_reader.h"

#include <stdexcept>

#include "common/text.h"
#include "workload/trace_io.h"

namespace rdsim::replay {

StreamingTraceReader::StreamingTraceReader(std::istream& in,
                                           TraceFormat format,
                                           std::uint32_t page_bytes)
    : in_(in), format_(format), page_bytes_(page_bytes) {}

bool StreamingTraceReader::next(workload::IoRequest* out) {
  while (std::getline(in_, line_)) {
    ++line_no_;
    if (text::is_blank_or_comment(line_)) continue;
    if (format_ == TraceFormat::kAuto) {
      const std::size_t n = text::split_fields(line_, nullptr, 0);
      if (n == 4) {
        format_ = TraceFormat::kCsv;
      } else if (n >= 6) {
        format_ = TraceFormat::kMsr;
      } else {
        throw std::runtime_error("line " + std::to_string(line_no_) +
                                 ": unrecognized trace format (" +
                                 std::to_string(n) +
                                 " fields; expected 4 for rdsim CSV or >=6 "
                                 "for MSR): '" +
                                 line_ + "'");
      }
    }
    if (format_ == TraceFormat::kMsr) {
      std::uint64_t tick = 0;
      workload::parse_msr_line(line_, page_bytes_, out, &tick, line_no_);
      // Rebase on the integer tick; a tick before the first record's
      // gives a negative time, which the replayer clamps to 0.
      if (records_ == 0) first_tick_ = tick;
      out->time_s = tick >= first_tick_
                        ? static_cast<double>(tick - first_tick_) * 1e-7
                        : -(static_cast<double>(first_tick_ - tick) * 1e-7);
    } else if (!workload::parse_csv_trace_line(line_, out, line_no_)) {
      continue;  // The CSV header.
    }
    ++records_;
    return true;
  }
  return false;
}

std::size_t StreamingTraceReader::read_chunk(
    std::size_t window, std::vector<workload::IoRequest>* out) {
  out->clear();
  workload::IoRequest r;
  while (out->size() < window && next(&r)) out->push_back(r);
  return out->size();
}

}  // namespace rdsim::replay
