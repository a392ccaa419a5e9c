// Strict numeric command-line flags for the tools: a token is accepted only
// when all of it parses and the value lies in range.  Callers print their
// usage and exit 2 on nullopt, instead of aborting on an uncaught
// std::stod exception or silently reading a bad token as 0 (atoi).
#pragma once

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace avf::cli {

/// A double in [lo, hi] (NaN never is).  Infinities pass only when the
/// range includes them.
inline std::optional<double> parse_double(
    std::string_view text, double lo = -std::numeric_limits<double>::max(),
    double hi = std::numeric_limits<double>::max()) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

/// A decimal integer in [lo, hi].
inline std::optional<long long> parse_int(std::string_view text, long long lo,
                                          long long hi) {
  long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

/// A 64-bit seed in strtoull's syntax for `base` (0: decimal, 0x hex or
/// leading-0 octal) with nothing left over: no sign, no blanks, no
/// overflow.
inline std::optional<std::uint64_t> parse_seed(const std::string& text,
                                               int base) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (errno == ERANGE || *end != '\0') return std::nullopt;
  return value;
}

/// A non-empty comma-separated list of doubles, each in [lo, hi]; an empty
/// item (",", "a,,b", "a,") fails the whole list.
inline std::optional<std::vector<double>> parse_list(std::string_view text,
                                                     double lo, double hi) {
  std::vector<double> out;
  for (;;) {
    const std::size_t comma = text.find(',');
    const auto value = parse_double(text.substr(0, comma), lo, hi);
    if (!value) return std::nullopt;
    out.push_back(*value);
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace avf::cli
