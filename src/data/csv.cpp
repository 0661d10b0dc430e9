#include "data/csv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "util/read_all.hpp"

namespace scalparc::data {

namespace {

// The shortest range worth a thread of its own.
constexpr std::size_t kMinRangeBytes = std::size_t{1} << 20;

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
std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

// Parses all of [first, last) as one number: no surrounding whitespace, no
// leading '+', nothing after it. False on anything else, an empty cell or a
// value out of the type's range.
template <typename T>
bool parse_cell(const char* first, const char* last, T& out) {
  const std::from_chars_result result = std::from_chars(first, last, out);
  return result.ec == std::errc() && result.ptr == last;
}

Schema parse_header(const std::string& line) {
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
  return Schema(std::move(attributes), num_classes);
}

// Calls visit(line) for each line of text[begin, end), read as std::getline
// reads them (a last line without '\n' counts, nothing after a final '\n'
// does), with one trailing '\r' stripped.
template <typename Visit>
void for_each_line(std::string_view text, std::size_t begin, std::size_t end,
                   Visit&& visit) {
  while (begin < end) {
    const std::size_t newline = text.find('\n', begin);
    const std::size_t stop = std::min(newline, end);
    visit(strip_cr(text.substr(begin, stop - begin)));
    begin = stop + 1;
  }
}

// What the passes over one range of the lines after the header find.
struct Range {
  std::size_t lines = 0;  // lines that start in the range, blank ones too
  std::size_t rows = 0;   // its non-blank lines
  std::exception_ptr error;  // its first bad line
};

// Runs work(k) for every range k: range 0 on the calling thread, each other
// one on a thread of its own. `work` must not throw. Every thread started is
// joined before this returns, also when starting another one fails.
template <typename Work>
void for_each_range(std::size_t ranges, const Work& work) {
  std::vector<std::jthread> threads;
  threads.reserve(ranges - 1);
  for (std::size_t k = 1; k < ranges; ++k) threads.emplace_back(work, k);
  work(std::size_t{0});
}

// Where each attribute's cells go: the start of its column, in `cont` or in
// `cat` by its kind (the other entry is null).
struct Columns {
  std::vector<double*> cont;
  std::vector<std::int32_t*> cat;
  std::int32_t* labels = nullptr;
};

// Parses one non-blank line into row `row`. Cells are parsed in place: the
// last one (the label) runs to the end of the line, every other one to the
// next comma.
void parse_row(std::string_view line, std::size_t line_number,
               std::size_t row, const Schema& schema, const Columns& columns) {
  const int num_attributes = schema.num_attributes();
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
  for (int a = 0; a < num_attributes; ++a) {
    const auto* comma = static_cast<const char*>(
        std::memchr(cell, ',', static_cast<std::size_t>(end - cell)));
    if (comma == nullptr) cell_count_error();
    const auto slot = static_cast<std::size_t>(a);
    const bool ok = columns.cont[slot] != nullptr
                        ? parse_cell(cell, comma, columns.cont[slot][row])
                        : parse_cell(cell, comma, columns.cat[slot][row]);
    if (!ok) bad_value(a, comma);
    cell = comma + 1;
  }
  if (std::memchr(cell, ',', static_cast<std::size_t>(end - cell)) != nullptr) {
    cell_count_error();
  }
  if (!parse_cell(cell, end, columns.labels[row])) {
    bad_value(num_attributes, end);
  }
}

// As many ranges as hardware threads, none shorter than kMinRangeBytes.
std::size_t range_count(std::size_t bytes) {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(bytes / kMinRangeBytes, 1, hardware);
}

// Closes a file descriptor.
class FileCloser {
 public:
  explicit FileCloser(int fd) : fd_(fd) {}
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;
  ~FileCloser() { ::close(fd_); }

 private:
  int fd_;
};

// Reads the `size` bytes of the regular file `fd` into `out` with one
// positional read per range, each on a thread of its own. `out` is memory
// nothing has touched yet, so the page faults of filling it are taken in
// parallel too. False when a read fails or the file ends early.
bool read_in_ranges(int fd, char* out, std::size_t size) {
  const std::size_t ranges = range_count(size);
  std::vector<char> done(ranges, 0);
  for_each_range(ranges, [&](std::size_t k) {
    std::size_t at = size * k / ranges;
    const std::size_t end = size * (k + 1) / ranges;
    while (at < end) {
      const ssize_t got =
          ::pread(fd, out + at, end - at, static_cast<off_t>(at));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return;
      at += static_cast<std::size_t>(got);
    }
    done[k] = 1;
  });
  return std::find(done.begin(), done.end(), 0) == done.end();
}

// Reads what is left of `fd` in chunks, ending at the end of input or at
// the first failed read, as a stream read ends.
std::string read_rest(int fd) {
  std::string text;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got > 0) {
      text.append(chunk, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      return text;
    }
  }
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

namespace detail {

std::vector<std::size_t> csv_range_bounds(std::string_view text,
                                          std::size_t ranges) {
  const std::size_t header_end = text.find('\n');
  const std::size_t body =
      header_end == std::string_view::npos ? text.size() : header_end + 1;
  std::vector<std::size_t> bounds(std::max<std::size_t>(ranges, 1) + 1,
                                  text.size());
  bounds.front() = body;
  // Cut k lies just after the first '\n' at or past k/ranges of the body,
  // and not before cut k-1.
  for (std::size_t k = 1; k + 1 < bounds.size(); ++k) {
    const std::size_t target = body + (text.size() - body) * k / ranges;
    const std::size_t newline = text.find('\n', std::max(target, bounds[k - 1]));
    if (newline != std::string_view::npos) bounds[k] = newline + 1;
  }
  return bounds;
}

Dataset parse_csv(std::string_view text, std::size_t ranges) {
  if (text.empty()) fail("empty input (missing header)");
  Schema schema(parse_header(std::string(
      strip_cr(text.substr(0, std::min(text.find('\n'), text.size()))))));

  const std::vector<std::size_t> bounds = csv_range_bounds(text, ranges);
  std::vector<Range> parts(bounds.size() - 1);

  // Counting pass: each range's lines and rows give every range its first
  // line number and its first row.
  for_each_range(parts.size(), [&](std::size_t k) {
    for_each_line(text, bounds[k], bounds[k + 1], [&](std::string_view line) {
      ++parts[k].lines;
      parts[k].rows += line.empty() ? 0 : 1;
    });
  });
  std::size_t num_rows = 0;
  for (const Range& part : parts) num_rows += part.rows;

  // Every column is sized here, so the threads below write their rows in
  // place and allocate nothing.
  std::vector<std::vector<double>> continuous;
  std::vector<std::vector<std::int32_t>> categorical;
  std::vector<std::int32_t> labels(num_rows);
  Columns columns;
  columns.labels = labels.data();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind == AttributeKind::kContinuous) {
      columns.cont.push_back(continuous.emplace_back(num_rows).data());
      columns.cat.push_back(nullptr);
    } else {
      columns.cont.push_back(nullptr);
      columns.cat.push_back(categorical.emplace_back(num_rows).data());
    }
  }

  for_each_range(parts.size(), [&](std::size_t k) {
    std::size_t line_number = 2;  // the header is line 1
    std::size_t row = 0;
    for (std::size_t j = 0; j < k; ++j) {
      line_number += parts[j].lines;
      row += parts[j].rows;
    }
    try {
      for_each_line(text, bounds[k], bounds[k + 1], [&](std::string_view line) {
        if (!line.empty()) parse_row(line, line_number, row++, schema, columns);
        ++line_number;
      });
    } catch (...) {
      parts[k].error = std::current_exception();
    }
  });
  for (const Range& part : parts) {
    if (part.error) std::rethrow_exception(part.error);
  }

  Dataset dataset(std::move(schema), std::move(continuous),
                  std::move(categorical), std::move(labels));
  try {
    dataset.validate();
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return dataset;
}

}  // namespace detail

Dataset read_csv(std::istream& in) {
  const std::string text = util::read_all(in);
  return detail::parse_csv(text, range_count(text.size()));
}

Dataset read_csv_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot open '" + path + "' for reading");
  const FileCloser closer(fd);
  struct stat info {};
  if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
    const auto size = static_cast<std::size_t>(info.st_size);
    const auto text = std::make_unique_for_overwrite<char[]>(size);
    if (read_in_ranges(fd, text.get(), size)) {
      return detail::parse_csv({text.get(), size}, range_count(size));
    }
  }
  // Not a regular file (a pipe), or one that shrank while it was read:
  // positional reads left the offset at the start.
  const std::string text = read_rest(fd);
  return detail::parse_csv(text, range_count(text.size()));
}

}  // namespace scalparc::data
