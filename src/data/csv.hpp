// Schema-aware CSV serialization for datasets.
//
// Format: one header line describing the columns, then one line per record.
//   header column:  <name>:cont            continuous attribute
//                   <name>:cat:<K>         categorical attribute, K values
//                   class:<C>              label column (must be last)
//   example:        salary:cont,elevel:cat:5,class:2
// Categorical values and labels are written as integer codes.
//
// The reader accepts LF and CRLF line ends and skips blank lines. Every
// cell, the label and the header's <K> and <C> included, must be exactly one
// number: no surrounding whitespace, no leading '+', nothing after it.
// Continuous cells are decimal or exponent notation, every other number a
// decimal integer. Errors name the row and the 1-based column.
//
// The reader holds the whole input in memory and parses the lines after the
// header in line-aligned byte ranges, one thread per range: as many ranges
// as the host has hardware threads, but none shorter than about 1 MiB, so
// small inputs stay on the calling thread. Each range stops at its first
// bad line, and the error thrown is the first bad line in file order, the
// one a line-by-line reader would report.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"

namespace scalparc::data {

void write_csv(const Dataset& dataset, std::ostream& out);
void write_csv_file(const Dataset& dataset, const std::string& path);

// Throws std::runtime_error on malformed headers or rows.
Dataset read_csv(std::istream& in);
Dataset read_csv_file(const std::string& path);

namespace detail {

// The parser behind read_csv, over the whole input `text` cut into `ranges`
// ranges. Exposed so tests can pin the range count and place lines at cuts.
Dataset parse_csv(std::string_view text, std::size_t ranges);

// The ranges+1 byte offsets into `text` that bound its ranges: the first is
// the start of the line after the header, the last is text.size(), and each
// one in between lies just after a '\n'. Ranges may be empty.
std::vector<std::size_t> csv_range_bounds(std::string_view text,
                                          std::size_t ranges);

}  // namespace detail

}  // namespace scalparc::data
