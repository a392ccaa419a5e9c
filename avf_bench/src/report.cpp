#include "report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

namespace avf_bench {

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) {
    q.q1 = q.median = q.q3 = std::numeric_limits<double>::quiet_NaN();
    return q;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4,
  // clamped to [1, n-1], interpolated in exact integer steps of 1/4.
  auto cut = [&values, n](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::string unit_of(std::string_view name) {
  auto ends_with = [name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (ends_with("_ns")) return "ns";
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_s")) return "s";
  if (ends_with("_mb")) return "MiB";
  if (ends_with("_frac") || ends_with("_ratio") || ends_with("coverage")) {
    return "ratio";
  }
  if (name.find("bytes") != std::string_view::npos) return "B";
  return "count";
}

void JsonWriter::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  for (char ch : v) {
    if (ch == '"' || ch == '\\') {
      out_ += '\\';
      out_ += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out_ += buf;
    } else {
      out_ += ch;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

}  // namespace avf_bench
