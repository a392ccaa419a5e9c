#include "util/csv.hpp"

#include <charconv>
#include "util/fmt.hpp"
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace avf::util {

namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

void write_row(std::ostream& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

}  // namespace

std::string csv_escape(const std::string& field) {
  if (!needs_quoting(field)) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

CsvWriter::CsvWriter(std::ostream& out, const std::vector<std::string>& header)
    : out_(out), columns_(header.size()) {
  write_row(out_, header);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (fields.size() != columns_) {
    throw std::invalid_argument(
        avf::util::format("CSV row has {} fields, header has {}", fields.size(),
                    columns_));
  }
  write_row(out_, fields);
}

std::string CsvWriter::field(double value) {
  return avf::util::format("{}", value);
}

std::size_t CsvDocument::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range(avf::util::format("CSV column not found: {}", name));
}

CsvDocument read_csv(std::istream& in) {
  CsvDocument doc;
  std::vector<std::string> current;
  std::string field;
  bool in_quotes = false;
  bool any_field = false;
  char c;

  auto end_field = [&] {
    current.push_back(std::move(field));
    field.clear();
    any_field = true;
  };
  auto end_row = [&] {
    if (!any_field && current.empty() && field.empty()) return;  // blank line
    end_field();
    if (doc.header.empty()) {
      doc.header = std::move(current);
    } else {
      if (current.size() != doc.header.size()) {
        throw std::runtime_error(avf::util::format(
            "ragged CSV row: {} fields, expected {}", current.size(),
            doc.header.size()));
      }
      doc.rows.push_back(std::move(current));
    }
    current.clear();
    any_field = false;
  };

  while (in.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        break;
      case ',':
        end_field();
        break;
      case '\r':
        break;
      case '\n':
        end_row();
        break;
      default:
        field += c;
    }
  }
  if (in_quotes) throw std::runtime_error("unterminated quote in CSV input");
  if (any_field || !field.empty()) end_row();
  return doc;
}

}  // namespace avf::util
