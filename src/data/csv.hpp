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
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.hpp"

namespace scalparc::data {

void write_csv(const Dataset& dataset, std::ostream& out);
void write_csv_file(const Dataset& dataset, const std::string& path);

// Throws std::runtime_error on malformed headers or rows.
Dataset read_csv(std::istream& in);
Dataset read_csv_file(const std::string& path);

}  // namespace scalparc::data
