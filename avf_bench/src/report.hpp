// Statistics and JSON output for avf_bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace avf_bench {

/// Median and quartiles of a sample.  Quartiles use the "exclusive"
/// method of Python's statistics.quantiles(values, n=4), so the spreads
/// printed here match what compare.py recomputes from the raw samples.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Quartiles quartiles(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of an ascending sample; NaN
/// when the sample is empty.
double percentile(const std::vector<double>& sorted, double p);

/// Unit of a metric, derived from its name's suffix: "_ns" ns, "_per_s"
/// 1/s, "_s" s, "_mb" MiB, "_frac"/"_ratio"/"coverage" ratio, "bytes" B,
/// otherwise count.
std::string unit_of(std::string_view name);

/// Minimal streaming JSON writer.  Non-finite doubles are written as null,
/// so a NaN or infinite value never makes the document invalid.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);

  const std::string& str() const { return out_; }

 private:
  void separate();

  std::string out_;
  bool need_comma_ = false;
};

/// "0x" + 16 hex digits: fingerprints stay exact in any JSON reader.
std::string hex64(std::uint64_t v);

}  // namespace avf_bench
