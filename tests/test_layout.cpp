// Differential property suite for the columnar data plane. Each fast piece
// is checked against an independent reference: whole trees (clean and
// killed-and-resumed) against the serial SPRINT oracle, the incremental gini
// kernel against the recompute scanner and the subset split against a
// rebuild oracle. The column Presort's differential tests live in
// test_sort.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/count_matrix.hpp"
#include "core/gini.hpp"
#include "core/scalparc.hpp"
#include "core/split_finder.hpp"
#include "core/tree_io.hpp"
#include "data/attribute_list.hpp"
#include "data/synthetic.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "sprint/serial_sprint.hpp"

namespace scalparc {
namespace {

namespace fs = std::filesystem;

using core::DecisionTree;
using core::InductionControls;
using core::ScalParC;
using core::SplitCandidate;

const mp::CostModel kZero = mp::CostModel::zero();

std::string tree_bytes(const DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

// Mixed continuous + categorical workload (9 Quest attributes) so both list
// kinds and both split kinds are exercised.
data::Dataset make_mixed_training(std::uint64_t records, std::uint64_t seed = 11) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.function = data::LabelFunction::kF6;
  config.num_attributes = 9;
  config.label_noise = 0.05;
  return data::QuestGenerator(config).generate(0, records);
}

// Continuous-heavy workload matching the fault suite (deep enough trees for
// mid-run checkpoints).
data::Dataset make_deep_training(std::uint64_t records, std::uint64_t seed = 3) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.function = data::LabelFunction::kF2;
  config.num_attributes = 7;
  return data::QuestGenerator(config).generate(0, records);
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path((fs::temp_directory_path() /
              (stem + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++)))
                 .string()) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter_ = 0;
};

// ---------------------------------------------------------------------------
// Trees match the serial SPRINT oracle
// ---------------------------------------------------------------------------

TEST(LayoutDifferential, TreeByteIdenticalAcrossLayouts) {
  const data::Dataset training = make_deep_training(2000);
  const DecisionTree oracle = sprint::fit_serial_sprint(training);
  for (const int p : {1, 2, 4, 8}) {
    const DecisionTree tree = ScalParC::fit(training, p, {}, kZero).tree;
    EXPECT_TRUE(oracle.same_structure(tree)) << "p=" << p;
    EXPECT_EQ(tree_bytes(tree), tree_bytes(oracle)) << "p=" << p;
  }
}

TEST(LayoutDifferential, TreeByteIdenticalWithSubsetSplitsAndEntropy) {
  // Entropy has no O(1) sufficient statistic, so the incremental scanner's
  // fallback path and the subset split's incremental histograms are both on
  // trial here.
  const data::Dataset training = make_mixed_training(900, /*seed=*/4);
  InductionControls controls;
  controls.options.categorical_split = core::CategoricalSplit::kBinarySubset;
  controls.options.criterion = core::SplitCriterion::kEntropy;
  const DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);
  for (const int p : {1, 4}) {
    const DecisionTree tree = ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(oracle.same_structure(tree)) << "p=" << p;
  }
}

// A checkpoint restore rebuilds the columns from the on-disk entry
// sections; the resumed tree must still match the oracle.
TEST(LayoutDifferential, KillAndResumeUnderSoAMatchesAoSTree) {
  const data::Dataset training = make_deep_training(4000);
  InductionControls controls;
  controls.options.max_depth = 6;
  const DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);

  TempDir dir("scalparc_layout_kill");
  mp::FaultPlan plan;
  plan.parse("kill:r=1,level=2");
  mp::RunOptions options;
  options.fault_plan = &plan;
  controls.checkpoint.directory = dir.path;
  const core::RecoveryReport report = ScalParC::fit_with_recovery(
      training, 4, controls, core::RecoveryControls{}, kZero, options);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].resumed_level, 2);
  EXPECT_TRUE(oracle.same_structure(report.fit.tree));
}

// ---------------------------------------------------------------------------
// Impurity scanners: bitwise equality
// ---------------------------------------------------------------------------

TEST(ScannerDifferential, RecomputeAndIncrementalBitwiseIdentical) {
  std::mt19937 rng(17);
  for (const int c : {2, 3, 5}) {
    for (const auto criterion :
         {core::SplitCriterion::kGini, core::SplitCriterion::kEntropy}) {
      std::vector<std::int64_t> totals(static_cast<std::size_t>(c), 0);
      std::vector<std::int32_t> stream;
      std::uniform_int_distribution<int> class_of(0, c - 1);
      for (int i = 0; i < 500; ++i) {
        const int cls = class_of(rng);
        ++totals[static_cast<std::size_t>(cls)];
        stream.push_back(cls);
      }
      const std::vector<std::int64_t> zeros(static_cast<std::size_t>(c), 0);
      core::BinaryImpurityScanner recompute(totals, zeros, criterion);
      core::IncrementalImpurityScanner incremental(totals, zeros, criterion);
      EXPECT_EQ(recompute.current_impurity(), incremental.current_impurity());
      for (const std::int32_t cls : stream) {
        recompute.advance(cls);
        incremental.advance(cls);
        // Bitwise-equal doubles (infinity at the boundaries included).
        EXPECT_EQ(recompute.current_impurity(), incremental.current_impurity())
            << "c=" << c << " criterion=" << static_cast<int>(criterion);
      }
      EXPECT_EQ(recompute.below_total(), incremental.below_total());
    }
  }
}

TEST(ScannerDifferential, AdvanceRunMatchesRepeatedAdvance) {
  const std::vector<std::int64_t> totals = {40, 25, 35};
  const std::vector<std::int64_t> zeros = {0, 0, 0};
  core::IncrementalImpurityScanner by_run(totals, zeros);
  core::IncrementalImpurityScanner by_one(totals, zeros);
  const std::vector<std::pair<std::int32_t, std::int64_t>> runs = {
      {0, 7}, {2, 11}, {1, 1}, {0, 13}, {1, 24}, {2, 24}};
  for (const auto& [cls, count] : runs) {
    by_run.advance_run(cls, count);
    for (std::int64_t k = 0; k < count; ++k) by_one.advance(cls);
    EXPECT_EQ(by_run.current_impurity(), by_one.current_impurity());
    EXPECT_EQ(by_run.below_total(), by_one.below_total());
  }
}

// ---------------------------------------------------------------------------
// Columnar scan kernel vs the entry-walk oracle
// ---------------------------------------------------------------------------

TEST(ScanKernelDifferential, ColumnsKernelMatchesEntryScan) {
  std::mt19937 rng(23);
  for (const int c : {2, 4}) {  // 2 exercises the vectorized counting path
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 200 + trial * 17;
      std::uniform_int_distribution<int> value_of(0, 39);
      std::uniform_int_distribution<int> class_of(0, c - 1);
      std::vector<data::ContinuousEntry> entries(n);
      for (std::size_t i = 0; i < n; ++i) {
        entries[i].value = static_cast<double>(value_of(rng)) * 0.25;
        entries[i].rid = static_cast<std::int64_t>(i);
        entries[i].cls = class_of(rng);
      }
      std::sort(entries.begin(), entries.end(), data::ContinuousEntryLess{});
      const data::ContinuousColumns cols = data::columns_from_entries(entries);
      std::vector<std::int64_t> totals(static_cast<std::size_t>(c), 0);
      for (const auto& e : entries) ++totals[static_cast<std::size_t>(e.cls)];

      // Cut the list into a random FindSplitI-style fragment and scan it
      // with both kernels, seeded with the same prefix state.
      std::uniform_int_distribution<std::size_t> cut(0, n);
      std::size_t begin = cut(rng);
      std::size_t end = cut(rng);
      if (begin > end) std::swap(begin, end);
      std::vector<std::int64_t> below(static_cast<std::size_t>(c), 0);
      for (std::size_t i = 0; i < begin; ++i) {
        ++below[static_cast<std::size_t>(entries[i].cls)];
      }
      const bool has_prev = begin > 0;
      const double prev_value = has_prev ? entries[begin - 1].value : 0.0;

      SplitCandidate best_entry;
      core::BinaryImpurityScanner recompute(totals, below);
      const std::size_t work_entry = core::scan_continuous_segment(
          std::span<const data::ContinuousEntry>(entries.data() + begin,
                                                 end - begin),
          recompute, has_prev, prev_value, /*attribute=*/3, best_entry);

      SplitCandidate best_cols;
      core::IncrementalImpurityScanner incremental(totals, below);
      const std::size_t work_cols = core::scan_continuous_columns(
          cols, begin, end, incremental, has_prev, prev_value, /*attribute=*/3,
          best_cols);

      EXPECT_EQ(work_entry, work_cols);
      EXPECT_EQ(best_entry.gini, best_cols.gini) << "c=" << c;
      EXPECT_EQ(best_entry.attribute, best_cols.attribute);
      EXPECT_EQ(best_entry.kind, best_cols.kind);
      EXPECT_EQ(best_entry.threshold, best_cols.threshold);
      EXPECT_EQ(recompute.below_total(), incremental.below_total());
    }
  }
}

// ---------------------------------------------------------------------------
// Subset split: incremental histograms vs rebuild-from-scratch oracle
// ---------------------------------------------------------------------------

// The pre-optimization algorithm: greedy forward selection where every
// candidate subset's left/right histograms are rebuilt from the matrix
// (O(V^2*C) per round).
SplitCandidate subset_oracle(const core::CountMatrix& matrix,
                             std::int32_t attribute,
                             core::SplitCriterion criterion) {
  const int c = matrix.cols();
  const auto subset_impurity = [&](std::uint64_t subset) {
    std::vector<std::int64_t> left(static_cast<std::size_t>(c), 0);
    std::vector<std::int64_t> right(static_cast<std::size_t>(c), 0);
    std::int64_t nl = 0;
    std::int64_t nr = 0;
    for (int v = 0; v < matrix.rows(); ++v) {
      const bool in_left = (subset >> v) & 1u;
      for (int j = 0; j < c; ++j) {
        ((in_left ? left : right))[static_cast<std::size_t>(j)] += matrix.at(v, j);
      }
      (in_left ? nl : nr) += matrix.row_total(v);
    }
    if (nl == 0 || nr == 0) return std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(nl + nr);
    return (static_cast<double>(nl) / n) *
               core::impurity_of_counts(left, criterion) +
           (static_cast<double>(nr) / n) *
               core::impurity_of_counts(right, criterion);
  };

  SplitCandidate candidate;
  std::uint64_t subset = 0;
  double best_gini = std::numeric_limits<double>::infinity();
  std::uint64_t best_subset = 0;
  for (;;) {
    double round_best = std::numeric_limits<double>::infinity();
    int round_value = -1;
    for (int v = 0; v < matrix.rows(); ++v) {
      if ((subset >> v) & 1u) continue;
      if (matrix.row_total(v) == 0) continue;
      const double g = subset_impurity(subset | (std::uint64_t{1} << v));
      if (g < round_best) {
        round_best = g;
        round_value = v;
      }
    }
    if (round_value < 0) break;
    subset |= std::uint64_t{1} << round_value;
    if (round_best < best_gini) {
      best_gini = round_best;
      best_subset = subset;
    }
  }
  if (best_gini == std::numeric_limits<double>::infinity()) return candidate;
  candidate.gini = best_gini;
  candidate.attribute = attribute;
  candidate.kind = core::SplitKind::kCategoricalSubset;
  candidate.subset = best_subset;
  return candidate;
}

TEST(SubsetSplitDifferential, IncrementalGreedyMatchesRebuildOracle) {
  std::mt19937 rng(31);
  for (const int rows : {2, 5, 17}) {
    for (const int c : {2, 3}) {
      for (const auto criterion :
           {core::SplitCriterion::kGini, core::SplitCriterion::kEntropy}) {
        for (int trial = 0; trial < 10; ++trial) {
          core::CountMatrix matrix(rows, c);
          std::uniform_int_distribution<int> count_of(0, 9);
          for (int v = 0; v < rows; ++v) {
            if (trial % 3 == 0 && v % 4 == 1) continue;  // leave empty rows
            for (int j = 0; j < c; ++j) {
              for (int k = count_of(rng); k > 0; --k) matrix.increment(v, j);
            }
          }
          const SplitCandidate fast = core::best_categorical_split(
              matrix, 5, core::CategoricalSplit::kBinarySubset, criterion);
          const SplitCandidate slow = subset_oracle(matrix, 5, criterion);
          EXPECT_EQ(fast.gini, slow.gini)
              << "rows=" << rows << " c=" << c << " trial=" << trial;
          EXPECT_EQ(fast.subset, slow.subset);
          EXPECT_EQ(fast.kind, slow.kind);
          EXPECT_EQ(fast.attribute, slow.attribute);
        }
      }
    }
  }
}

}  // namespace
}  // namespace scalparc
