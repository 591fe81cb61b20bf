#include "common/text.h"

#include <charconv>
#include <cmath>

namespace rdsim::text {
namespace {

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view clean_field(std::string_view s) {
  s = trim(s);
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    s = s.substr(1, s.size() - 2);
  return s;
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_blank(s[b])) ++b;
  while (e > b && is_blank(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool is_blank_or_comment(std::string_view line) {
  for (const char c : line) {
    if (is_blank(c)) continue;
    return c == '#';
  }
  return true;
}

std::size_t split_fields(std::string_view line, std::string_view* fields,
                         std::size_t cap) {
  std::size_t n = 0;
  while (true) {
    const std::size_t comma = line.find(',');
    if (n < cap) fields[n] = clean_field(line.substr(0, comma));
    ++n;
    if (comma == std::string_view::npos) return n;
    line.remove_prefix(comma + 1);
  }
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto result = std::from_chars(s.data(), end, v);
  if (result.ec != std::errc{} || result.ptr != end) return false;
  *out = v;
  return true;
}

bool parse_f64(std::string_view s, double* out) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto result = std::from_chars(s.data(), end, v);
  if (result.ec != std::errc{} || result.ptr != end || !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

}  // namespace rdsim::text
