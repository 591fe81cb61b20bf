// rdsim/common/text.h
//
// The one text scanner under every text input rdsim reads: trace rows
// (rdsim CSV and MSR-Cambridge), INI scenario configs and CLI numbers.
// Everything works on std::string_view into the caller's buffer, so a
// parsed row allocates nothing. The functions only answer "is this
// well-formed"; each consumer reports failures its own way (trace rows
// throw a line-numbered error, cfg::Config appends a Diagnostic naming
// the key, parse_cli names the flag).
//
// Number grammar (parse_u64 / parse_f64): the whole field must be one
// decimal number — no leading '+', no hex, no surrounding whitespace or
// trailing junk. parse_f64 additionally accepts a leading '-', a
// fraction and an exponent, rejects nan/inf, and fails on values out of
// double's range (overflow, or a nonzero value that rounds to zero);
// parse_u64 fails above 2^64-1. Both round exactly as strtod/strtoull
// do on the inputs they accept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rdsim::text {

/// Strips surrounding spaces, tabs and CRs (so CRLF line endings just
/// work).
std::string_view trim(std::string_view s);

/// True for a blank line (including a lone CR) or a '#' comment line.
bool is_blank_or_comment(std::string_view line);

/// Splits `line` at commas into views stored in fields[0 .. cap-1] and
/// returns the total field count, which may exceed `cap` (the extra
/// fields are counted, not stored). An empty line is one empty field.
/// Each field is trim()med, then loses one surrounding pair of double
/// quotes: spreadsheet exports quote fields (embedded commas are out of
/// scope).
std::size_t split_fields(std::string_view line, std::string_view* fields,
                         std::size_t cap);

/// Whole-field decimal parses (grammar above). On failure `*out` is left
/// unchanged and false is returned.
bool parse_u64(std::string_view s, std::uint64_t* out);
bool parse_f64(std::string_view s, double* out);

}  // namespace rdsim::text
