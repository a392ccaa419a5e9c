// Minimal CSV reading/writing used by the performance database and the
// benchmark harnesses.  Only the subset of CSV we need: comma separation,
// quoting of fields containing commas/quotes/newlines, header row.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace avf::util {

/// Incremental CSV writer.  Usage:
///   CsvWriter w(out, {"config", "cpu_share", "transmit_time"});
///   w.row({"lzw", "0.4", "12.5"});
class CsvWriter {
 public:
  CsvWriter(std::ostream& out, const std::vector<std::string>& header);

  void row(const std::vector<std::string>& fields);

  /// Convenience: format doubles with full round-trip precision.
  static std::string field(double value);

 private:
  std::ostream& out_;
  std::size_t columns_;
};

/// Fully parsed CSV document.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws std::out_of_range if missing.
  std::size_t column(const std::string& name) const;
};

/// Parse a complete CSV stream (first row = header).  Throws
/// std::runtime_error on structural errors (unterminated quote, ragged rows).
CsvDocument read_csv(std::istream& in);

/// Escape a single field per RFC-4180 quoting rules.
std::string csv_escape(const std::string& field);

}  // namespace avf::util
