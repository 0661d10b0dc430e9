// Reads the rest of a stream into one buffer.
//
// The CSV reader and the tree loader parse whole files from memory. A stream that can seek (a file, a string stream) is sized once
// and read in one call; whatever is left after that (all of a pipe, or what a
// file grew by meanwhile) is appended in chunks.
#pragma once

#include <cstddef>
#include <ios>
#include <istream>
#include <streambuf>
#include <string>

namespace scalparc::util {

inline std::string read_all(std::istream& in) {
  std::streambuf& source = *in.rdbuf();
  std::string text;
  const std::streampos start = source.pubseekoff(0, std::ios::cur, std::ios::in);
  if (start != std::streampos(-1)) {
    const std::streampos end = source.pubseekoff(0, std::ios::end, std::ios::in);
    if (source.pubseekpos(start, std::ios::in) == start && end > start) {
      text.resize(static_cast<std::size_t>(end - start));
      const std::streamsize got = source.sgetn(
          text.data(), static_cast<std::streamsize>(text.size()));
      text.resize(static_cast<std::size_t>(got));
    }
  }
  char chunk[1 << 16];
  for (std::streamsize got = 0;
       (got = source.sgetn(chunk, sizeof chunk)) > 0;) {
    text.append(chunk, static_cast<std::size_t>(got));
  }
  return text;
}

}  // namespace scalparc::util
