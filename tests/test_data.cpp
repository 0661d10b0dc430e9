// Tests for the data layer: schema validation, columnar dataset, the Quest
// synthetic generator (determinism, distributions, label functions), CSV
// round-trips and attribute-list construction.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "data/attribute_list.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/schema.hpp"
#include "data/synthetic.hpp"

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
