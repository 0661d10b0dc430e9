// Tests for the data layer: schema validation, columnar dataset, the Quest
// synthetic generator (determinism, distributions, label functions), the CSV
// reader and writer (parallel ranges included), the tree-file loader, both
// readers' fuzzers and attribute-list construction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/attribute_list.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/schema.hpp"
#include "data/synthetic.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

using data::AttributeKind;
using data::Dataset;
using data::GeneratorConfig;
using data::LabelFunction;
using data::QuestGenerator;
using data::Schema;

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(Schema, BasicAccessors) {
  Schema schema({Schema::continuous("x"), Schema::categorical("c", 4)}, 3);
  EXPECT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(schema.num_continuous(), 1);
  EXPECT_EQ(schema.num_categorical(), 1);
  EXPECT_EQ(schema.num_classes(), 3);
  EXPECT_EQ(schema.find("c"), 1);
  EXPECT_EQ(schema.find("missing"), -1);
  EXPECT_EQ(schema.attribute(1).cardinality, 4);
}

TEST(Schema, RejectsEmptyAttributes) {
  EXPECT_THROW(Schema({}, 2), std::invalid_argument);
}

TEST(Schema, RejectsSingleClass) {
  EXPECT_THROW(Schema({Schema::continuous("x")}, 1), std::invalid_argument);
}

TEST(Schema, RejectsDuplicateNames) {
  EXPECT_THROW(Schema({Schema::continuous("x"), Schema::continuous("x")}, 2),
               std::invalid_argument);
}

TEST(Schema, RejectsNonPositiveCardinality) {
  EXPECT_THROW(Schema({Schema::categorical("c", 0)}, 2), std::invalid_argument);
}

TEST(Schema, Equality) {
  Schema a({Schema::continuous("x")}, 2);
  Schema b({Schema::continuous("x")}, 2);
  Schema c({Schema::continuous("y")}, 2);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

Dataset small_dataset() {
  Schema schema({Schema::continuous("x"), Schema::categorical("c", 3),
                 Schema::continuous("y")},
                2);
  Dataset d(schema);
  const double cont0[] = {1.5, 2.5};
  const std::int32_t cat0[] = {0};
  d.append(cont0, cat0, 1);
  const double cont1[] = {-1.0, 0.0};
  const std::int32_t cat1[] = {2};
  d.append(cont1, cat1, 0);
  return d;
}

TEST(Dataset, AppendAndAccess) {
  const Dataset d = small_dataset();
  EXPECT_EQ(d.num_records(), 2u);
  EXPECT_DOUBLE_EQ(d.continuous_value(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(d.continuous_value(2, 0), 2.5);
  EXPECT_EQ(d.categorical_value(1, 1), 2);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.label(1), 0);
}

TEST(Dataset, KindMismatchThrows) {
  const Dataset d = small_dataset();
  EXPECT_THROW((void)d.continuous_value(1, 0), std::invalid_argument);
  EXPECT_THROW((void)d.categorical_value(0, 0), std::invalid_argument);
  EXPECT_THROW((void)d.continuous_value(9, 0), std::out_of_range);
}

TEST(Dataset, AppendCountMismatchThrows) {
  Dataset d(Schema({Schema::continuous("x")}, 2));
  const double two[] = {1.0, 2.0};
  EXPECT_THROW(d.append(two, {}, 0), std::invalid_argument);
}

TEST(Dataset, Slice) {
  const Dataset d = small_dataset();
  const Dataset s = d.slice(1, 2);
  ASSERT_EQ(s.num_records(), 1u);
  EXPECT_DOUBLE_EQ(s.continuous_value(0, 0), -1.0);
  EXPECT_EQ(s.label(0), 0);
  EXPECT_THROW((void)d.slice(1, 5), std::out_of_range);
}

TEST(Dataset, AdoptsWholeColumnsOfMatchingLength) {
  const Schema schema({Schema::continuous("x"), Schema::categorical("c", 3)},
                      2);
  const Dataset d(schema, {{1.5, -2.0}}, {{2, 0}}, {1, 0});
  ASSERT_EQ(d.num_records(), 2u);
  EXPECT_EQ(d.continuous_value(0, 1), -2.0);
  EXPECT_EQ(d.categorical_value(1, 0), 2);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_THROW(Dataset(schema, {{1.5}}, {{2, 0}}, {1, 0}),
               std::invalid_argument);
  EXPECT_THROW(Dataset(schema, {}, {{2, 0}}, {1, 0}), std::invalid_argument);
}

TEST(Dataset, ValidateCatchesBadCodes) {
  Dataset d(Schema({Schema::categorical("c", 2)}, 2));
  const std::int32_t bad[] = {5};
  d.append({}, bad, 0);
  EXPECT_THROW(d.validate(), std::out_of_range);
}

TEST(Dataset, PayloadBytes) {
  const Dataset d = small_dataset();
  // 2 rows: 2 doubles + 1 int32 + 1 label each.
  EXPECT_EQ(d.payload_bytes(), 2 * (2 * sizeof(double) + 2 * sizeof(std::int32_t)));
}

// ---------------------------------------------------------------------------
// QuestGenerator
// ---------------------------------------------------------------------------

TEST(Quest, DeterministicPerRecord) {
  QuestGenerator g(GeneratorConfig{.seed = 9, .function = LabelFunction::kF2});
  const auto a = g.raw(12345);
  const auto b = g.raw(12345);
  EXPECT_DOUBLE_EQ(a.salary, b.salary);
  EXPECT_EQ(a.zipcode, b.zipcode);
  // Independent of generation order / batching.
  const Dataset batch = g.generate(12340, 10);
  EXPECT_DOUBLE_EQ(batch.continuous_value(0, 5), a.salary);
}

TEST(Quest, AttributeDomains) {
  QuestGenerator g(GeneratorConfig{.seed = 3, .num_attributes = 9});
  for (std::uint64_t rid = 0; rid < 2000; ++rid) {
    const auto r = g.raw(rid);
    EXPECT_GE(r.salary, 20e3);
    EXPECT_LT(r.salary, 150e3);
    if (r.salary >= 75e3) {
      EXPECT_DOUBLE_EQ(r.commission, 0.0);
    } else {
      EXPECT_GE(r.commission, 10e3);
      EXPECT_LT(r.commission, 75e3);
    }
    EXPECT_GE(r.age, 20.0);
    EXPECT_LT(r.age, 80.0);
    EXPECT_GE(r.elevel, 0);
    EXPECT_LE(r.elevel, 4);
    EXPECT_GE(r.car, 0);
    EXPECT_LE(r.car, 19);
    EXPECT_GE(r.zipcode, 0);
    EXPECT_LE(r.zipcode, 8);
    const double k = r.zipcode + 1;
    EXPECT_GE(r.hvalue, k * 50e3);
    EXPECT_LT(r.hvalue, k * 150e3);
    EXPECT_GE(r.hyears, 1.0);
    EXPECT_LT(r.hyears, 30.0);
    EXPECT_GE(r.loan, 0.0);
    EXPECT_LT(r.loan, 500e3);
  }
}

TEST(Quest, DefaultSchemaHasSevenAttributes) {
  QuestGenerator g(GeneratorConfig{});
  EXPECT_EQ(g.schema().num_attributes(), 7);
  EXPECT_EQ(g.schema().num_classes(), 2);
  EXPECT_EQ(g.schema().attribute(0).name, "salary");
  EXPECT_EQ(g.schema().attribute(3).kind, AttributeKind::kCategorical);
}

TEST(Quest, F1DependsOnlyOnAge) {
  data::QuestRecord r;
  r.age = 30;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF1), 1);
  r.age = 50;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF1), 0);
  r.age = 65;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF1), 1);
}

TEST(Quest, F2AgeSalaryBands) {
  data::QuestRecord r;
  r.age = 30;
  r.salary = 60e3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF2), 1);
  r.salary = 120e3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF2), 0);
  r.age = 50;
  r.salary = 120e3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF2), 1);
  r.age = 70;
  r.salary = 50e3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF2), 1);
  r.salary = 100e3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF2), 0);
}

TEST(Quest, F3UsesEducation) {
  data::QuestRecord r;
  r.age = 30;
  r.elevel = 0;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF3), 1);
  r.elevel = 3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF3), 0);
  r.age = 70;
  r.elevel = 3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF3), 1);
}

TEST(Quest, F7DisposableIncome) {
  data::QuestRecord r;
  r.salary = 100e3;
  r.commission = 0;
  r.loan = 0;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF7), 1);
  r.loan = 400e3;
  EXPECT_EQ(data::quest_label(r, LabelFunction::kF7), 0);
}

TEST(Quest, BothClassesOccur) {
  for (const LabelFunction f :
       {LabelFunction::kF1, LabelFunction::kF2, LabelFunction::kF3,
        LabelFunction::kF4, LabelFunction::kF5, LabelFunction::kF6,
        LabelFunction::kF7}) {
    QuestGenerator g(GeneratorConfig{.seed = 21, .function = f});
    int ones = 0;
    constexpr int kN = 3000;
    for (std::uint64_t rid = 0; rid < kN; ++rid) ones += g.label(rid);
    EXPECT_GT(ones, kN / 50) << "function " << static_cast<int>(f);
    EXPECT_LT(ones, kN - kN / 50) << "function " << static_cast<int>(f);
  }
}

TEST(Quest, LabelNoiseFlipsRoughlyTheRequestedFraction) {
  QuestGenerator clean(GeneratorConfig{.seed = 5, .label_noise = 0.0});
  QuestGenerator noisy(GeneratorConfig{.seed = 5, .label_noise = 0.2});
  int flips = 0;
  constexpr int kN = 5000;
  for (std::uint64_t rid = 0; rid < kN; ++rid) {
    flips += clean.label(rid) != noisy.label(rid);
    // Noise must not perturb the attributes themselves.
    EXPECT_DOUBLE_EQ(clean.raw(rid).salary, noisy.raw(rid).salary);
  }
  EXPECT_NEAR(flips / static_cast<double>(kN), 0.2, 0.03);
}

TEST(Quest, ParseLabelFunction) {
  EXPECT_EQ(data::parse_label_function("F5"), LabelFunction::kF5);
  EXPECT_EQ(data::parse_label_function("3"), LabelFunction::kF3);
  EXPECT_THROW(data::parse_label_function("F99"), std::invalid_argument);
}

TEST(Quest, RejectsBadConfig) {
  EXPECT_THROW(QuestGenerator(GeneratorConfig{.num_attributes = 0}),
               std::invalid_argument);
  EXPECT_THROW(QuestGenerator(GeneratorConfig{.num_attributes = 10}),
               std::invalid_argument);
  EXPECT_THROW(QuestGenerator(GeneratorConfig{.label_noise = 1.5}),
               std::invalid_argument);
}

TEST(Quest, BlockGenerationMatchesWholeGeneration) {
  QuestGenerator g(GeneratorConfig{.seed = 77});
  const Dataset whole = g.generate(0, 100);
  const Dataset left = g.generate(0, 40);
  const Dataset right = g.generate(40, 60);
  for (std::size_t row = 0; row < 40; ++row) {
    EXPECT_DOUBLE_EQ(whole.continuous_value(0, row), left.continuous_value(0, row));
    EXPECT_EQ(whole.label(row), left.label(row));
  }
  for (std::size_t row = 0; row < 60; ++row) {
    EXPECT_DOUBLE_EQ(whole.continuous_value(0, 40 + row),
                     right.continuous_value(0, row));
    EXPECT_EQ(whole.label(40 + row), right.label(row));
  }
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, RoundTrip) {
  QuestGenerator g(GeneratorConfig{.seed = 123});
  const Dataset original = g.generate(0, 50);
  std::stringstream buffer;
  data::write_csv(original, buffer);
  const Dataset loaded = data::read_csv(buffer);
  ASSERT_EQ(loaded.num_records(), original.num_records());
  EXPECT_TRUE(loaded.schema() == original.schema());
  for (std::size_t row = 0; row < loaded.num_records(); ++row) {
    EXPECT_EQ(loaded.label(row), original.label(row));
    EXPECT_EQ(loaded.categorical_value(3, row), original.categorical_value(3, row));
    EXPECT_DOUBLE_EQ(loaded.continuous_value(0, row),
                     original.continuous_value(0, row));
  }
}

TEST(Csv, RejectsMissingHeader) {
  std::stringstream empty;
  EXPECT_THROW((void)data::read_csv(empty), std::runtime_error);
}

TEST(Csv, RejectsMalformedHeaderColumn) {
  std::stringstream in("x:weird,class:2\n1.0,0\n");
  EXPECT_THROW((void)data::read_csv(in), std::runtime_error);
}

TEST(Csv, RejectsRowWithWrongCellCount) {
  std::stringstream in("x:cont,class:2\n1.0\n");
  EXPECT_THROW((void)data::read_csv(in), std::runtime_error);
}

TEST(Csv, RejectsNonNumericCell) {
  std::stringstream in("x:cont,class:2\nfoo,0\n");
  EXPECT_THROW((void)data::read_csv(in), std::runtime_error);
}

TEST(Csv, RejectsOutOfRangeCategoricalCode) {
  std::stringstream in("c:cat:2,class:2\n7,0\n");
  EXPECT_THROW((void)data::read_csv(in), std::runtime_error);
}

// The message read_csv fails with on `text`, or "" when it loads.
std::string csv_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)data::read_csv(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, RejectsTrailingGarbageInContinuousCell) {
  const std::string error = csv_error("x:cont,class:2\n1.0,0\n2.5abc,1\n");
  EXPECT_NE(error.find("row 3, column 1 (x): bad value '2.5abc'"),
            std::string::npos)
      << error;
}

TEST(Csv, RejectsFractionalCategoricalCode) {
  const std::string error = csv_error("x:cont,c:cat:4,class:2\n1.0,2.9,0\n");
  EXPECT_NE(error.find("row 2, column 2 (c): bad value '2.9'"),
            std::string::npos)
      << error;
}

TEST(Csv, RejectsNonNumericLabel) {
  const std::string error = csv_error("x:cont,class:2\n1.0,x\n");
  EXPECT_NE(error.find("row 2, column 2 (class): bad value 'x'"),
            std::string::npos)
      << error;
}

TEST(Csv, RejectsEmptyLabel) {
  const std::string error = csv_error("x:cont,class:2\n1.0,0\n1.0,\n");
  EXPECT_NE(error.find("row 3, column 2 (class): bad value ''"),
            std::string::npos)
      << error;
}

TEST(Csv, RejectsMalformedClassCount) {
  const std::string error = csv_error("x:cont,class:2x\n1.0,0\n");
  EXPECT_NE(error.find("header column 2"), std::string::npos) << error;
}

TEST(Csv, RejectsMalformedCardinality) {
  const std::string error = csv_error("c:cat:5y,class:2\n1,0\n");
  EXPECT_NE(error.find("header column 1"), std::string::npos) << error;
}

TEST(Csv, LoadsCrlfFile) {
  std::stringstream in("x:cont,c:cat:3,class:2\r\n1.5,2,1\r\n\r\n-2.5,0,0\r\n");
  const Dataset d = data::read_csv(in);
  ASSERT_EQ(d.num_records(), 2u);
  EXPECT_EQ(d.schema().num_classes(), 2);
  EXPECT_EQ(d.schema().attribute(1).cardinality, 3);
  EXPECT_DOUBLE_EQ(d.continuous_value(0, 1), -2.5);
  EXPECT_EQ(d.categorical_value(1, 0), 2);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.label(1), 0);
}

TEST(Csv, SkipsBlankLines) {
  std::stringstream in("x:cont,class:2\n1.0,0\n\n2.0,1\n");
  const Dataset d = data::read_csv(in);
  EXPECT_EQ(d.num_records(), 2u);
}

TEST(Csv, FileRoundTrip) {
  QuestGenerator g(GeneratorConfig{.seed = 5});
  const Dataset original = g.generate(0, 10);
  const std::string path = ::testing::TempDir() + "/scalparc_csv_test.csv";
  data::write_csv_file(original, path);
  const Dataset loaded = data::read_csv_file(path);
  EXPECT_EQ(loaded.num_records(), 10u);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW((void)data::read_csv_file("/nonexistent/file.csv"),
               std::runtime_error);
}

TEST(Csv, ReadsAPipeByPath) {
  // A pipe has no size to cut into ranges up front; it is read through.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const std::string text = "x:cont,class:2\r\n1.5,0\n\n-2,1";
  ASSERT_EQ(::write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  ::close(fds[1]);
  const Dataset d = data::read_csv_file("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_EQ(d.num_records(), 2u);
  EXPECT_EQ(d.continuous_value(0, 1), -2.0);
  EXPECT_EQ(d.label(1), 1);
}

TEST(NonFinite, CsvReaderRejectsNaN) {
  std::stringstream in("x:cont,class:2\nnan,0\n1.0,1\n");
  EXPECT_THROW((void)data::read_csv(in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// CSV ranges: the reader parses the lines after the header in line-aligned
// byte ranges, one thread each. detail::parse_csv pins the range count, so
// these tests cut the same ranges on any host; every error must be the one a
// single range reports.
// ---------------------------------------------------------------------------

// `rows` records of equal line length, so a same-length edit moves no cut.
std::string fixed_width_csv(int rows) {
  std::string text = "x:cont,c:cat:4,class:2\n";
  char line[32];
  for (int i = 0; i < rows; ++i) {
    std::snprintf(line, sizeof line, "%07d.5,%d,%d\n", i, i % 4, i % 2);
    text += line;
  }
  return text;
}

// The message parse_csv fails with on `text` in `ranges` ranges, or "".
std::string range_error(const std::string& text, std::size_t ranges) {
  try {
    (void)data::detail::parse_csv(text, ranges);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The 1-based line number of the line that starts at byte `offset`.
std::size_t line_at(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

// Spoils the first cell of the line at `offset` (same length) and returns
// the error a reader must report for it.
std::string spoil_first_cell(std::string& text, std::size_t offset) {
  text[offset + 3] = 'x';
  return "csv: row " + std::to_string(line_at(text, offset)) +
         ", column 1 (x): bad value '" + text.substr(offset, 9) + "'";
}

// Expects `text` to fail with `expected` in 1 and in 4 ranges, with the
// cuts of `bounds`.
void expect_error(const std::string& text,
                  const std::vector<std::size_t>& bounds,
                  const std::string& expected) {
  ASSERT_EQ(data::detail::csv_range_bounds(text, 4), bounds);
  EXPECT_EQ(range_error(text, 1), expected);
  EXPECT_EQ(range_error(text, 4), expected);
}

TEST(Csv, RangeCutsLieJustAfterANewline) {
  const std::string text = fixed_width_csv(401);
  const std::vector<std::size_t> bounds =
      data::detail::csv_range_bounds(text, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), text.find('\n') + 1);
  EXPECT_EQ(bounds.back(), text.size());
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_LT(bounds[k - 1], bounds[k]);
    EXPECT_EQ(text[bounds[k] - 1], '\n');
  }
}

TEST(Csv, BadCellRightAfterEachCut) {
  const std::string text = fixed_width_csv(401);
  const std::vector<std::size_t> bounds =
      data::detail::csv_range_bounds(text, 4);
  for (std::size_t k = 1; k < 4; ++k) {
    std::string bad = text;
    const std::string expected = spoil_first_cell(bad, bounds[k]);
    expect_error(bad, bounds, expected);
  }
  // The cell-count message too: the line after cut 2 loses its last comma.
  std::string short_row = text;
  short_row[short_row.find('\n', bounds[2]) - 2] = ' ';
  expect_error(short_row, bounds,
               "csv: row " + std::to_string(line_at(text, bounds[2])) +
                   " has 2 cells, expected 3");
}

TEST(Csv, BadCellInTheLastRange) {
  std::string text = fixed_width_csv(401);
  const std::vector<std::size_t> bounds =
      data::detail::csv_range_bounds(text, 4);
  const std::size_t line = text.find('\n', (bounds[3] + bounds[4]) / 2) + 1;
  const std::string expected = spoil_first_cell(text, line);
  expect_error(text, bounds, expected);
}

TEST(Csv, BadFinalLineWithoutNewline) {
  std::string text = fixed_width_csv(401);
  text.pop_back();
  text.back() = 'z';
  const std::string expected =
      "csv: row " + std::to_string(line_at(text, text.rfind('\n') + 1)) +
      ", column 3 (class): bad value 'z'";
  expect_error(text, data::detail::csv_range_bounds(text, 4), expected);
}

TEST(Csv, EarliestBadLineInFileOrderIsReported) {
  std::string text = fixed_width_csv(401);
  const std::vector<std::size_t> bounds =
      data::detail::csv_range_bounds(text, 4);
  // Bad lines in ranges 1 and 3, the later one right after its cut.
  const std::size_t middle = text.find('\n', (bounds[1] + bounds[2]) / 2) + 1;
  const std::string expected = spoil_first_cell(text, middle);
  (void)spoil_first_cell(text, bounds[3]);
  expect_error(text, bounds, expected);
}

TEST(Csv, CrlfAndBlankLinesAcrossCuts) {
  // CRLF rows; after every third row a CRLF blank line, after the next one
  // an LF blank line.
  std::string text = "x:cont,class:3\r\n";
  constexpr int kRows = 300;
  for (int i = 0; i < kRows; ++i) {
    text += std::to_string(i) + ".25," + std::to_string(i % 3) + "\r\n";
    if (i % 3 == 0) text += "\r\n";
    if (i % 3 == 1) text += "\n";
  }
  int cuts_at_blank_lines = 0;
  for (std::size_t ranges = 1; ranges <= 12; ++ranges) {
    const std::vector<std::size_t> bounds =
        data::detail::csv_range_bounds(text, ranges);
    for (std::size_t k = 1; k < ranges; ++k) {
      cuts_at_blank_lines += text[bounds[k]] == '\n' ||
                             text.compare(bounds[k], 2, "\r\n") == 0;
    }
    const Dataset d = data::detail::parse_csv(text, ranges);
    ASSERT_EQ(d.num_records(), static_cast<std::size_t>(kRows));
    for (int i = 0; i < kRows; ++i) {
      const auto row = static_cast<std::size_t>(i);
      ASSERT_EQ(d.continuous_value(0, row), i + 0.25) << ranges;
      ASSERT_EQ(d.label(row), i % 3) << ranges;
    }
  }
  EXPECT_GT(cuts_at_blank_lines, 0);
  // Blank lines count toward the row number of an error.
  const std::size_t last = text.rfind("299.25");
  text[last + 1] = 'x';
  const std::string expected =
      "csv: row " + std::to_string(line_at(text, last)) +
      ", column 1 (x): bad value '2x9.25'";
  EXPECT_EQ(range_error(text, 1), expected);
  EXPECT_EQ(range_error(text, 5), expected);
}

// Bit patterns of a dataset's columns, compared whole.
void expect_bit_equal(const Dataset& a, const Dataset& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_records(), b.num_records());
  const auto same_bytes = [](auto x, auto y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  EXPECT_TRUE(same_bytes(a.labels(), b.labels()));
  for (int attr = 0; attr < a.schema().num_attributes(); ++attr) {
    if (a.schema().attribute(attr).kind == AttributeKind::kContinuous) {
      EXPECT_TRUE(same_bytes(a.continuous_column(attr),
                             b.continuous_column(attr)))
          << attr;
    } else {
      EXPECT_TRUE(same_bytes(a.categorical_column(attr),
                             b.categorical_column(attr)))
          << attr;
    }
  }
}

TEST(Csv, MultiMiBFileReadsBackBitEqual) {
  QuestGenerator g(GeneratorConfig{.seed = 17, .label_noise = 0.05});
  const Dataset original = g.generate(0, 70000);
  const std::string path = ::testing::TempDir() + "/scalparc_csv_ranges.csv";
  data::write_csv_file(original, path);
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_GE(text.size(), std::size_t{4} << 20);  // 4 ranges of >= 1 MiB

  expect_bit_equal(data::read_csv_file(path), original);
  expect_bit_equal(data::detail::parse_csv(text, 4), original);
  expect_bit_equal(data::detail::parse_csv(text, 7), original);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tree files
// ---------------------------------------------------------------------------

core::DecisionTree trained_tree(data::LabelFunction function, int attrs) {
  data::GeneratorConfig config;
  config.seed = 11;
  config.function = function;
  config.num_attributes = attrs;
  const data::QuestGenerator generator(config);
  return core::ScalParC::fit(generator.generate(0, 400), 2).tree;
}

TEST(TreeIo, RoundTripContinuousAndCategoricalSplits) {
  const core::DecisionTree original = trained_tree(data::LabelFunction::kF3, 7);
  std::stringstream buffer;
  core::save_tree(original, buffer);
  const core::DecisionTree loaded = core::load_tree(buffer);
  EXPECT_TRUE(original.same_structure(loaded));
  EXPECT_TRUE(original.schema() == loaded.schema());
}

TEST(TreeIo, LoadedTreePredictsIdentically) {
  data::GeneratorConfig config;
  config.seed = 11;
  config.function = data::LabelFunction::kF2;
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 300);
  const core::DecisionTree original = core::ScalParC::fit(training, 3).tree;
  std::stringstream buffer;
  core::save_tree(original, buffer);
  const core::DecisionTree loaded = core::load_tree(buffer);
  const data::Dataset holdout = generator.generate(100000, 500);
  for (std::size_t row = 0; row < holdout.num_records(); ++row) {
    ASSERT_EQ(original.predict(holdout, row), loaded.predict(holdout, row));
  }
}

TEST(TreeIo, ThresholdsAreExact) {
  // Hex serialization must round-trip awkward doubles exactly.
  data::Schema schema({data::Schema::continuous("x")}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = false;
  root.num_records = 2;
  root.class_counts = {1, 1};
  root.split.attribute = 0;
  root.split.kind = data::AttributeKind::kContinuous;
  root.split.threshold = 0.1 + 0.2;  // 0.30000000000000004
  root.split.num_children = 2;
  tree.add_node(root);
  core::TreeNode leaf;
  leaf.num_records = 1;
  leaf.class_counts = {1, 0};
  leaf.depth = 1;
  tree.node(0).children = {tree.add_node(leaf), tree.add_node(leaf)};

  std::stringstream buffer;
  core::save_tree(tree, buffer);
  const core::DecisionTree loaded = core::load_tree(buffer);
  EXPECT_EQ(loaded.node(0).split.threshold, 0.1 + 0.2);
}

TEST(TreeIo, SingleLeafTree) {
  data::Schema schema({data::Schema::continuous("x")}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = true;
  root.majority_class = 1;
  root.num_records = 5;
  root.class_counts = {0, 5};
  tree.add_node(root);
  std::stringstream buffer;
  core::save_tree(tree, buffer);
  const core::DecisionTree loaded = core::load_tree(buffer);
  EXPECT_TRUE(tree.same_structure(loaded));
}

TEST(TreeIo, RejectsBadHeader) {
  std::stringstream bad("not-a-tree\n");
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsTruncatedInput) {
  const core::DecisionTree original = trained_tree(data::LabelFunction::kF1, 7);
  std::stringstream buffer;
  core::save_tree(original, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW((void)core::load_tree(truncated), std::runtime_error);
}

TEST(TreeIo, RejectsChildIdOutOfRange) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 1\n"
      "node 0 cont 0 2 0 1 1 0 0x1p+0 5 6\n");  // children 5,6 out of range
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsSelfReference) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 3\n"
      "node 0 cont 0 2 0 1 1 0 0x1p+0 0 2\n"  // child 0 == parent 0
      "node 1 leaf 1 1 0 1 0\n"
      "node 2 leaf 1 1 1 0 1\n");
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsBackEdgeCycle) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 3\n"
      "node 0 cont 0 2 0 1 1 0 0x1p+0 1 2\n"
      "node 1 cont 1 1 0 1 0 0 0x1p+1 0 2\n"  // back-edge to the root
      "node 2 leaf 1 1 1 0 1\n");
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsSharedSubtree) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 4\n"
      "node 0 cont 0 4 0 2 2 0 0x1p+0 1 2\n"
      "node 1 cont 1 2 0 1 1 0 0x1p+1 3 3\n"  // node 3 claimed twice
      "node 2 leaf 1 1 1 0 1\n"
      "node 3 leaf 2 1 0 1 0\n");
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsOrphanNode) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 2\n"
      "node 0 leaf 0 1 0 1 0\n"
      "node 1 leaf 1 1 1 0 1\n");  // nothing references node 1
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsNodeCountShortfall) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 3\n"
      "node 0 cont 0 2 0 1 1 0 0x1p+0 1 2\n"
      "node 1 leaf 1 1 0 1 0\n");  // count says 3, file ends at 2
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsTrailingNodesBeyondDeclaredCount) {
  const core::DecisionTree original = trained_tree(data::LabelFunction::kF1, 7);
  std::stringstream buffer;
  core::save_tree(original, buffer);
  std::string text = buffer.str();
  text += "node 9999 leaf 1 1 0 1 0\n";  // one more node than declared
  std::stringstream padded(text);
  EXPECT_THROW((void)core::load_tree(padded), std::runtime_error);
}

TEST(TreeIo, RejectsSplitKindMismatchingAttributeKind) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr color cat 3\n"
      "nodes 3\n"
      "node 0 cont 0 2 0 1 1 0 0x1p+0 1 2\n"  // cont split on cat attr
      "node 1 leaf 1 1 0 1 0\n"
      "node 2 leaf 1 1 1 0 1\n");
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, RejectsValueToChildSlotOutOfRange) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr color cat 3\n"
      "nodes 3\n"
      "node 0 cat 0 2 0 1 1 0 2 0 1 5 1 2\n"  // slot 5 >= num_children 2
      "node 1 leaf 1 1 0 1 0\n"
      "node 2 leaf 1 1 1 0 1\n");
  EXPECT_THROW((void)core::load_tree(bad), std::runtime_error);
}

TEST(TreeIo, ErrorsNameTheOffendingLine) {
  std::stringstream bad(
      "scalparc-tree v1\n"
      "classes 2\n"
      "attr x cont\n"
      "nodes 3\n"
      "node 0 cont 0 2 0 1 1 0 0x1p+0 1 2\n"
      "node 1 leaf 1 1 0 1 0\n"
      "node 2 leaf 1 1 1 0 1 junk\n");  // trailing field on line 7
  try {
    (void)core::load_tree(bad);
    FAIL() << "load_tree accepted a malformed snapshot";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(line 7)"), std::string::npos)
        << e.what();
  }
}

// The loader's message for `text`, or "" when the text loads.
std::string load_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)core::load_tree(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

const std::string kOneLeafHeader =
    "scalparc-tree v1\n"
    "classes 2\n"
    "attr x cont\n";

TEST(TreeIo, RejectsNodeCountBeyondTheLinesLeft) {
  // Rejected at the count line, before the loader sizes anything by it.
  EXPECT_EQ(load_error(kOneLeafHeader + "nodes 200000000\n"),
            "tree_io: node count 200000000 exceeds the 0 line(s) left in the "
            "input (line 4)");
  EXPECT_EQ(load_error(kOneLeafHeader + "nodes 2\nnode 0 leaf 0 1 0 1 0\n"),
            "tree_io: node count 2 exceeds the 1 line(s) left in the input "
            "(line 4)");
  // A count equal to the lines left loads; a last line without '\n' counts.
  EXPECT_EQ(load_error(kOneLeafHeader + "nodes 1\nnode 0 leaf 0 1 0 1 0\n"), "");
  EXPECT_EQ(load_error(kOneLeafHeader + "nodes 1\nnode 0 leaf 0 1 0 1 0"), "");
}

TEST(TreeIo, RejectsTrailingFieldOnClassesLine) {
  EXPECT_EQ(load_error("scalparc-tree v1\n"
                       "classes 2 junk\n"
                       "attr x cont\n"
                       "nodes 1\n"
                       "node 0 leaf 0 1 0 1 0\n"),
            "tree_io: trailing field on classes line (line 2)");
}

TEST(TreeIo, RejectsNumbersEndingInsideAWord) {
  EXPECT_EQ(load_error("scalparc-tree v1\n"
                       "classes 2x\n"
                       "attr x cont\n"
                       "nodes 1\n"
                       "node 0 leaf 0 1 0 1 0\n"),
            "tree_io: bad classes line (line 2)");
  EXPECT_EQ(load_error(kOneLeafHeader + "nodes 1\nnode 0leaf 0 1 0 1 0\n"),
            "tree_io: bad node line (expected node 0) (line 5)");
  EXPECT_EQ(load_error(kOneLeafHeader + "nodes 1\nnode 0 leaf 0 1 0 1 0x\n"),
            "tree_io: bad class counts (line 5)");
  // A leading '+' still reads, as `std::istream >>` reads it.
  EXPECT_EQ(load_error("scalparc-tree v1\n"
                       "classes +2\n"
                       "attr x cont\n"
                       "nodes 1\n"
                       "node 0 leaf 0 1 0 1 0\n"),
            "");
}

TEST(TreeIo, ChildIdFuzzNeverCrashes) {
  // Sweep one child id of a real saved model through every interesting
  // value: each variant must either load as a structurally valid tree or
  // throw — never hang, crash, or load a graph with a cycle.
  const core::DecisionTree original = trained_tree(data::LabelFunction::kF3, 7);
  std::stringstream buffer;
  core::save_tree(original, buffer);
  const std::string text = buffer.str();
  // The first internal node's final field is a child id.
  const std::size_t line_start = text.find("\nnode 0 ");
  ASSERT_NE(line_start, std::string::npos);
  const std::size_t line_end = text.find('\n', line_start + 1);
  const std::size_t field_start = text.rfind(' ', line_end) + 1;
  int loaded_ok = 0;
  for (int child = -2; child <= original.num_nodes() + 2; ++child) {
    std::string mutated = text;
    mutated.replace(field_start, line_end - field_start,
                    std::to_string(child));
    std::stringstream in(mutated);
    try {
      const core::DecisionTree tree = core::load_tree(in);
      EXPECT_EQ(tree.num_nodes(), original.num_nodes());
      ++loaded_ok;
    } catch (const std::runtime_error&) {
      // Rejected is fine; silent acceptance of a bad id is not.
    }
  }
  // Exactly one value (the original child id) can satisfy the single-parent
  // audit; everything else must have thrown.
  EXPECT_EQ(loaded_ok, 1);
}

TEST(TreeIo, FileRoundTrip) {
  const core::DecisionTree original = trained_tree(data::LabelFunction::kF2, 7);
  const std::string path = ::testing::TempDir() + "/scalparc_tree_test.txt";
  core::save_tree_file(original, path);
  const core::DecisionTree loaded = core::load_tree_file(path);
  EXPECT_TRUE(original.same_structure(loaded));
  std::remove(path.c_str());
}

TEST(TreeIo, MissingFileThrows) {
  EXPECT_THROW((void)core::load_tree_file("/nonexistent/model.tree"),
               std::runtime_error);
}

// A complete binary tree of depth 16 (131,071 nodes), built without a fit:
// node i splits into 2i+1 and 2i+2, every fifth node on a categorical
// attribute and the others at an awkward continuous threshold.
core::DecisionTree complete_tree() {
  core::DecisionTree tree(
      Schema({Schema::continuous("x"), Schema::categorical("c", 4)}, 3));
  constexpr int kDepth = 16;
  for (int id = 0; id < (2 << kDepth) - 1; ++id) {
    core::TreeNode node;
    node.depth = std::bit_width(static_cast<unsigned>(id) + 1) - 1;
    node.class_counts = {id % 7, id % 5 + 1, id % 3};
    node.num_records =
        node.class_counts[0] + node.class_counts[1] + node.class_counts[2];
    node.majority_class = id % 3;
    node.is_leaf = node.depth == kDepth;
    if (!node.is_leaf) {
      node.split.num_children = 2;
      node.children = {2 * id + 1, 2 * id + 2};
      if (id % 5 == 4) {
        node.split.attribute = 1;
        node.split.kind = AttributeKind::kCategorical;
        node.split.value_to_child = {0, 1, -1, 1};
      } else {
        node.split.attribute = 0;
        node.split.threshold = id / 3.0 - 1e-9 * id;
      }
    }
    tree.add_node(std::move(node));
  }
  return tree;
}

TEST(TreeIo, LargeTreeSaveLoadSaveIsByteEqual) {
  const core::DecisionTree tree = complete_tree();
  ASSERT_GE(tree.num_nodes(), 100000);
  std::stringstream saved;
  core::save_tree(tree, saved);
  const core::DecisionTree loaded = core::load_tree(saved);
  EXPECT_TRUE(tree.same_structure(loaded));
  std::stringstream resaved;
  core::save_tree(loaded, resaved);
  EXPECT_EQ(resaved.str(), saved.str());

  const std::string path = ::testing::TempDir() + "/scalparc_large_tree.txt";
  core::save_tree_file(loaded, path);
  std::stringstream from_file;
  core::save_tree(core::load_tree_file(path), from_file);
  EXPECT_EQ(from_file.str(), saved.str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CSV fuzzing: random mutations of a valid file must either parse or throw.
// ---------------------------------------------------------------------------

TEST(CsvFuzz, MutatedFilesNeverCrash) {
  data::GeneratorConfig config;
  config.seed = 99;
  const data::QuestGenerator generator(config);
  std::stringstream original;
  data::write_csv(generator.generate(0, 30), original);
  const std::string base = original.str();

  util::Rng rng(4242);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.next_below(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.next_below(5));
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.next_below(95)));
          break;
      }
    }
    std::stringstream in(mutated);
    try {
      const data::Dataset d = data::read_csv(in);
      d.validate();
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // Both outcomes must occur (some mutations are benign, e.g. in a value),
  // and none may escape as a crash or non-std exception.
  EXPECT_GT(parsed + rejected, 0);
  EXPECT_GT(rejected, 0);
}

// The outcome of parse_csv on `text` in `ranges` ranges: the error message,
// or the dataset written back as CSV.
std::string range_outcome(const std::string& text, std::size_t ranges) {
  try {
    std::ostringstream out;
    data::write_csv(data::detail::parse_csv(text, ranges), out);
    return out.str();
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(CsvFuzz, MultiRangeParsesMatchOneRange) {
  // Mutations that add, join and split lines near the cuts: in 2, 3 and 5
  // ranges the reader must load exactly what one range loads, or fail with
  // the same message.
  data::GeneratorConfig config;
  config.seed = 5;
  std::ostringstream original;
  data::write_csv(QuestGenerator(config).generate(0, 200), original);
  const std::string base = original.str();
  const char* const pieces[] = {"\n", "\r\n", "\n\n", ",", "x", "1"};
  for (const std::uint64_t seed : {11, 12, 13}) {
    util::Rng rng(seed);
    for (int trial = 0; trial < 60; ++trial) {
      std::string mutated = base;
      const int edits = 1 + static_cast<int>(rng.next_below(4));
      for (int e = 0; e < edits; ++e) {
        const std::size_t pos = rng.next_below(mutated.size());
        switch (rng.next_below(3)) {
          case 0:
            mutated.insert(pos, pieces[rng.next_below(6)]);
            break;
          case 1:
            mutated.erase(pos, 1 + rng.next_below(3));
            break;
          default:
            mutated[pos] = static_cast<char>(32 + rng.next_below(95));
            break;
        }
      }
      const std::string expected = range_outcome(mutated, 1);
      for (const std::size_t ranges : {2, 3, 5}) {
        EXPECT_EQ(range_outcome(mutated, ranges), expected)
            << "seed " << seed << ", trial " << trial << ", " << ranges
            << " ranges";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-file fuzzing.
// ---------------------------------------------------------------------------

TEST(TreeIoFuzz, MutatedModelsNeverCrash) {
  data::GeneratorConfig config;
  config.seed = 7;
  const data::QuestGenerator generator(config);
  const core::DecisionTree tree =
      core::ScalParC::fit(generator.generate(0, 200), 2).tree;
  std::stringstream original;
  core::save_tree(tree, original);
  const std::string base = original.str();

  util::Rng rng(777);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(32 + rng.next_below(95));
    std::stringstream in(mutated);
    try {
      const core::DecisionTree loaded = core::load_tree(in);
      // If it parsed, it must still be a usable predictor.
      const data::Dataset probe = generator.generate(5000, 5);
      for (std::size_t row = 0; row < probe.num_records(); ++row) {
        const std::int32_t y = loaded.predict(probe, row);
        ASSERT_GE(y, 0);
        ASSERT_LT(y, 2);
      }
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Attribute lists
// ---------------------------------------------------------------------------

TEST(AttributeList, BuildContinuous) {
  const Dataset d = small_dataset();
  const auto list = data::build_continuous_list(d, 0, /*first_rid=*/100);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list[0].value, 1.5);
  EXPECT_EQ(list[0].rid, 100);
  EXPECT_EQ(list[0].cls, 1);
  EXPECT_EQ(list[1].rid, 101);
}

TEST(AttributeList, BuildCategorical) {
  const Dataset d = small_dataset();
  const auto list = data::build_categorical_list(d, 1, /*first_rid=*/0);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].value, 0);
  EXPECT_EQ(list[1].value, 2);
  EXPECT_EQ(list[1].cls, 0);
}

TEST(AttributeList, LessComparatorBreaksTiesByRid) {
  data::ContinuousEntry a{1.0, 5, 0, 0};
  data::ContinuousEntry b{1.0, 7, 0, 0};
  data::ContinuousEntry c{0.5, 9, 0, 0};
  data::ContinuousEntryLess less;
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));
  EXPECT_TRUE(less(c, a));
}

}  // namespace
}  // namespace scalparc
