#include "data/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace scalparc::data {

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= line.size()) {
    auto pos = line.find(sep, start);
    if (pos == std::string::npos) pos = line.size();
    parts.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("csv: " + what);
}

// Lines may end in CRLF.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

// Parses all of [first, last) as one number: no surrounding whitespace, no
// leading '+', nothing after it. False on anything else, an empty cell or a
// value out of the type's range.
template <typename T>
bool parse_cell(const char* first, const char* last, T& out) {
  const std::from_chars_result result = std::from_chars(first, last, out);
  return result.ec == std::errc() && result.ptr == last;
}

}  // namespace

void write_csv(const Dataset& dataset, std::ostream& out) {
  const Schema& schema = dataset.schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    out << info.name;
    if (info.kind == AttributeKind::kContinuous) {
      out << ":cont";
    } else {
      out << ":cat:" << info.cardinality;
    }
    out << ',';
  }
  out << "class:" << schema.num_classes() << '\n';

  std::ostringstream row;
  row.precision(17);  // round-trip exact doubles
  for (std::size_t r = 0; r < dataset.num_records(); ++r) {
    row.str({});
    for (int a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).kind == AttributeKind::kContinuous) {
        row << dataset.continuous_value(a, r);
      } else {
        row << dataset.categorical_value(a, r);
      }
      row << ',';
    }
    row << dataset.label(r) << '\n';
    out << row.str();
  }
}

void write_csv_file(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  write_csv(dataset, out);
}

Dataset read_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("empty input (missing header)");
  strip_cr(line);

  std::vector<AttributeInfo> attributes;
  std::int32_t num_classes = -1;
  std::size_t column_number = 0;
  for (const std::string& column : split(line, ',')) {
    ++column_number;
    const std::vector<std::string> parts = split(column, ':');
    const auto header_count = [&](const std::string& text, const char* what) {
      std::int32_t value = 0;
      if (!parse_cell(text.data(), text.data() + text.size(), value)) {
        fail("header column " + std::to_string(column_number) + " ('" +
             column + "'): bad " + what + " '" + text + "'");
      }
      return value;
    };
    if (parts.size() == 2 && parts[0] == "class") {
      num_classes = header_count(parts[1], "class count");
      continue;
    }
    if (num_classes != -1) fail("class column must be last");
    if (parts.size() == 2 && parts[1] == "cont") {
      attributes.push_back(Schema::continuous(parts[0]));
    } else if (parts.size() == 3 && parts[1] == "cat") {
      attributes.push_back(
          Schema::categorical(parts[0], header_count(parts[2], "cardinality")));
    } else {
      fail("malformed header column '" + column + "'");
    }
  }
  if (num_classes < 2) fail("header must end with class:<C>, C >= 2");

  Dataset dataset(Schema(std::move(attributes), num_classes));
  const Schema& schema = dataset.schema();
  const int num_attributes = schema.num_attributes();
  std::vector<double> cont(static_cast<std::size_t>(schema.num_continuous()));
  std::vector<std::int32_t> cat(static_cast<std::size_t>(schema.num_categorical()));

  // Cells are parsed in place: the last one (the label) runs to the end of
  // the line, every other one to the next comma.
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    strip_cr(line);
    if (line.empty()) continue;
    const char* cell = line.data();
    const char* const end = cell + line.size();
    const auto cell_count_error = [&] {
      fail("row " + std::to_string(line_number) + " has " +
           std::to_string(std::count(line.begin(), line.end(), ',') + 1) +
           " cells, expected " + std::to_string(num_attributes + 1));
    };
    const auto bad_value = [&](int column, const char* cell_end) {
      const std::string name =
          column < num_attributes ? schema.attribute(column).name : "class";
      fail("row " + std::to_string(line_number) + ", column " +
           std::to_string(column + 1) + " (" + name + "): bad value '" +
           std::string(cell, cell_end) + "'");
    };
    std::size_t c = 0;
    std::size_t g = 0;
    for (int a = 0; a < num_attributes; ++a) {
      const auto* comma = static_cast<const char*>(
          std::memchr(cell, ',', static_cast<std::size_t>(end - cell)));
      if (comma == nullptr) cell_count_error();
      const bool ok =
          schema.attribute(a).kind == AttributeKind::kContinuous
              ? parse_cell(cell, comma, cont[c++])
              : parse_cell(cell, comma, cat[g++]);
      if (!ok) bad_value(a, comma);
      cell = comma + 1;
    }
    if (std::memchr(cell, ',', static_cast<std::size_t>(end - cell)) !=
        nullptr) {
      cell_count_error();
    }
    std::int32_t label = 0;
    if (!parse_cell(cell, end, label)) bad_value(num_attributes, end);
    dataset.append(std::span<const double>(cont.data(), c),
                   std::span<const std::int32_t>(cat.data(), g), label);
  }
  try {
    dataset.validate();
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return dataset;
}

Dataset read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open '" + path + "' for reading");
  return read_csv(in);
}

}  // namespace scalparc::data
