#include "workload/trace_io.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/text.h"

namespace rdsim::workload {
namespace {

/// "line N: " prefix for parse errors, empty when the caller did not
/// supply a line number (line_no == 0).
std::string at_line(std::uint64_t line_no) {
  if (line_no == 0) return {};
  return "line " + std::to_string(line_no) + ": ";
}

[[noreturn]] void fail(std::uint64_t line_no, const char* what,
                       std::string_view text) {
  throw std::runtime_error(at_line(line_no) + what + ": '" +
                           std::string(text) + "'");
}

std::uint64_t u64_field(std::string_view s, const char* what,
                        std::uint64_t line_no) {
  std::uint64_t v = 0;
  if (!text::parse_u64(s, &v)) fail(line_no, what, s);
  return v;
}

}  // namespace

void write_trace_csv(std::ostream& out, const std::vector<IoRequest>& trace) {
  out << "time_s,op,lpn,pages\n";
  char buf[96];
  for (const auto& r : trace) {
    std::snprintf(buf, sizeof(buf), "%.6f,%c,%llu,%u\n", r.time_s,
                  r.is_write ? 'W' : 'R',
                  static_cast<unsigned long long>(r.lpn), r.pages);
    out << buf;
  }
}

bool parse_csv_trace_line(std::string_view line, IoRequest* out,
                          std::uint64_t line_no) {
  if (text::is_blank_or_comment(line)) return false;
  std::string_view f[4];
  const std::size_t n = text::split_fields(line, f, 4);
  if (f[0] == "time_s") return false;  // header
  if (n != 4) fail(line_no, "bad trace row", line);
  double time_s = 0.0;
  if (!text::parse_f64(f[0], &time_s)) fail(line_no, "bad time", f[0]);
  if (f[1] != "R" && f[1] != "W") fail(line_no, "bad op", f[1]);
  out->time_s = time_s;
  out->is_write = f[1] == "W";
  out->lpn = u64_field(f[2], "bad lpn", line_no);
  const std::uint64_t pages = u64_field(f[3], "bad pages", line_no);
  if (pages == 0) fail(line_no, "zero-size request", line);
  if (pages > UINT32_MAX) fail(line_no, "bad pages", f[3]);
  out->pages = static_cast<std::uint32_t>(pages);
  return true;
}

bool parse_msr_line(std::string_view line, std::uint32_t page_bytes,
                    IoRequest* out, std::uint64_t* ticks,
                    std::uint64_t line_no) {
  if (text::is_blank_or_comment(line)) return false;
  std::string_view f[6];
  if (text::split_fields(line, f, 6) < 6) fail(line_no, "bad MSR row", line);
  const std::uint64_t tick = u64_field(f[0], "bad timestamp", line_no);
  const std::string_view type = f[3];
  const bool is_write = type == "Write" || type == "write" || type == "W";
  if (!is_write && type != "Read" && type != "read" && type != "R")
    fail(line_no, "bad type", type);
  const std::uint64_t offset = u64_field(f[4], "bad offset", line_no);
  const std::uint64_t size = u64_field(f[5], "bad size", line_no);
  if (size == 0) fail(line_no, "zero-size request", line);
  // The last byte must be addressable and the span must fit in pages.
  if (size - 1 > UINT64_MAX - offset) fail(line_no, "bad size", f[5]);
  const std::uint64_t lpn = offset / page_bytes;
  const std::uint64_t pages = (offset + size - 1) / page_bytes - lpn + 1;
  if (pages > UINT32_MAX) fail(line_no, "bad size", f[5]);
  *ticks = tick;
  out->time_s = static_cast<double>(tick) * 1e-7;
  out->is_write = is_write;
  out->lpn = lpn;
  out->pages = static_cast<std::uint32_t>(pages);
  return true;
}

std::vector<host::Command> to_commands(const std::vector<IoRequest>& trace,
                                       std::uint16_t queues) {
  const std::uint16_t n = std::max<std::uint16_t>(1, queues);
  std::vector<host::Command> out;
  out.reserve(trace.size());
  std::uint64_t seq = 0;
  for (const IoRequest& r : trace) {
    host::Command c;
    c.kind = r.is_write ? host::CommandKind::kWrite : host::CommandKind::kRead;
    c.lpn = r.lpn;
    c.pages = r.pages;
    c.submit_time_s = r.time_s;
    c.queue = static_cast<std::uint16_t>(seq++ % n);
    out.push_back(c);
  }
  return out;
}

}  // namespace rdsim::workload
