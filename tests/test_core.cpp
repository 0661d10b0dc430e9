// Unit tests for the core primitives: count matrices, gini, split
// candidates, categorical split search, splitter helpers, the decision-tree
// model, evaluation and MDL pruning.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/count_matrix.hpp"
#include "core/gini.hpp"
#include "core/predict.hpp"
#include "core/pruning.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "core/tree.hpp"
#include "data/synthetic.hpp"

namespace scalparc {
namespace {

using core::CountMatrix;
using core::SplitCandidate;
using core::SplitKind;
using data::AttributeKind;
using data::Schema;

// ---------------------------------------------------------------------------
// CountMatrix
// ---------------------------------------------------------------------------

TEST(CountMatrix, IncrementAndTotals) {
  CountMatrix m(3, 2);
  m.increment(0, 1);
  m.increment(0, 1);
  m.increment(2, 0);
  EXPECT_EQ(m.at(0, 1), 2);
  EXPECT_EQ(m.row_total(0), 2);
  EXPECT_EQ(m.row_total(1), 0);
  EXPECT_EQ(m.total(), 3);
}

TEST(CountMatrix, FlatRoundTrip) {
  CountMatrix m(2, 3);
  m.increment(1, 2);
  const CountMatrix n = CountMatrix::from_flat(2, 3, m.flat());
  EXPECT_TRUE(m == n);
}

TEST(CountMatrix, AddShapes) {
  CountMatrix a(2, 2);
  CountMatrix b(2, 2);
  a.increment(0, 0);
  b.increment(0, 0);
  a += b;
  EXPECT_EQ(a.at(0, 0), 2);
  CountMatrix c(3, 2);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(CountMatrix, BadShapeThrows) {
  EXPECT_THROW(CountMatrix(-1, 2), std::invalid_argument);
  EXPECT_THROW(CountMatrix(2, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Gini
// ---------------------------------------------------------------------------

TEST(Gini, PureIsZero) {
  const std::int64_t counts[] = {10, 0, 0};
  EXPECT_DOUBLE_EQ(core::gini_of_counts(counts), 0.0);
}

TEST(Gini, UniformTwoClassesIsHalf) {
  const std::int64_t counts[] = {5, 5};
  EXPECT_DOUBLE_EQ(core::gini_of_counts(counts), 0.5);
}

TEST(Gini, EmptyIsZero) {
  const std::int64_t counts[] = {0, 0};
  EXPECT_DOUBLE_EQ(core::gini_of_counts(counts), 0.0);
}

TEST(Gini, BoundedByOneMinusOneOverC) {
  // Property: gini of any histogram with c classes lies in [0, 1 - 1/c].
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int c = 2 + static_cast<int>(rng.next_below(5));
    std::vector<std::int64_t> counts(static_cast<std::size_t>(c));
    for (auto& v : counts) v = static_cast<std::int64_t>(rng.next_below(50));
    const double g = core::gini_of_counts(counts);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0 - 1.0 / c + 1e-12);
  }
}

TEST(Gini, SplitWeightsPartitions) {
  // Paper example shape: perfect split -> gini 0.
  CountMatrix m(2, 2);
  m.at(0, 0) = 4;
  m.at(1, 1) = 6;
  EXPECT_DOUBLE_EQ(core::gini_of_split(m), 0.0);
  // Totally mixed split of 50/50 data -> 0.5.
  CountMatrix u(2, 2);
  u.at(0, 0) = u.at(0, 1) = u.at(1, 0) = u.at(1, 1) = 5;
  EXPECT_DOUBLE_EQ(core::gini_of_split(u), 0.5);
}

TEST(GiniScanner, MatchesBruteForce) {
  // Scan [A A B B B] one record at a time; compare against gini_of_split of
  // the explicit 2xC matrices.
  const std::int64_t totals[] = {2, 3};
  const std::int64_t zeros[] = {0, 0};
  core::BinaryGiniScanner scanner(totals, zeros);
  const std::int32_t classes[] = {0, 0, 1, 1, 1};
  for (int i = 0; i < 5; ++i) {
    scanner.advance(classes[i]);
    CountMatrix m(2, 2);
    for (int k = 0; k < 5; ++k) {
      m.increment(k <= i ? 0 : 1, classes[k]);
    }
    if (i == 4) {
      EXPECT_TRUE(std::isinf(scanner.current_impurity()));  // empty upper side
    } else {
      EXPECT_NEAR(scanner.current_impurity(), core::gini_of_split(m), 1e-12);
    }
  }
}

TEST(GiniScanner, EmptyBelowIsInvalid) {
  const std::int64_t totals[] = {2, 3};
  const std::int64_t zeros[] = {0, 0};
  const core::BinaryGiniScanner scanner(totals, zeros);
  EXPECT_TRUE(std::isinf(scanner.current_impurity()));
}

TEST(GiniScanner, StartsFromParallelPrefix) {
  // below_start from "another processor": 1 record of class 0 already below.
  const std::int64_t totals[] = {2, 1};
  const std::int64_t below[] = {1, 0};
  core::BinaryGiniScanner scanner(totals, below);
  EXPECT_EQ(scanner.below_total(), 1);
  // Split: below {1,0}, above {1,1} -> (1/3)*0 + (2/3)*0.5.
  EXPECT_NEAR(scanner.current_impurity(), (2.0 / 3.0) * 0.5, 1e-12);
}

TEST(GiniScanner, RejectsInconsistentInput) {
  const std::int64_t totals[] = {1, 1};
  const std::int64_t too_many[] = {2, 0};
  EXPECT_THROW(core::BinaryGiniScanner(totals, too_many), std::invalid_argument);
  const std::int64_t mismatched[] = {0};
  EXPECT_THROW(core::BinaryGiniScanner(totals, mismatched), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Entropy criterion
// ---------------------------------------------------------------------------

TEST(Entropy, PureIsZero) {
  const std::int64_t counts[] = {10, 0};
  EXPECT_DOUBLE_EQ(core::entropy_of_counts(counts), 0.0);
}

TEST(Entropy, UniformTwoClassesIsOneBit) {
  const std::int64_t counts[] = {8, 8};
  EXPECT_DOUBLE_EQ(core::entropy_of_counts(counts), 1.0);
}

TEST(Entropy, UniformFourClassesIsTwoBits) {
  const std::int64_t counts[] = {3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(core::entropy_of_counts(counts), 2.0);
}

TEST(Entropy, BoundedByLog2C) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int c = 2 + static_cast<int>(rng.next_below(6));
    std::vector<std::int64_t> counts(static_cast<std::size_t>(c));
    for (auto& v : counts) v = static_cast<std::int64_t>(rng.next_below(40));
    const double h = core::entropy_of_counts(counts);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, std::log2(static_cast<double>(c)) + 1e-12);
  }
}

TEST(Entropy, ImpurityDispatch) {
  const std::int64_t counts[] = {4, 4};
  EXPECT_DOUBLE_EQ(core::impurity_of_counts(counts, core::SplitCriterion::kGini),
                   0.5);
  EXPECT_DOUBLE_EQ(
      core::impurity_of_counts(counts, core::SplitCriterion::kEntropy), 1.0);
}

TEST(EntropyScanner, MatchesBruteForceWeightedEntropy) {
  const std::int64_t totals[] = {2, 3};
  const std::int64_t zeros[] = {0, 0};
  core::BinaryImpurityScanner scanner(totals, zeros,
                                      core::SplitCriterion::kEntropy);
  const std::int32_t classes[] = {0, 0, 1, 1, 1};
  for (int i = 0; i < 4; ++i) {
    scanner.advance(classes[i]);
    CountMatrix m(2, 2);
    for (int k = 0; k < 5; ++k) m.increment(k <= i ? 0 : 1, classes[k]);
    EXPECT_NEAR(scanner.current_impurity(),
                core::impurity_of_split(m, core::SplitCriterion::kEntropy),
                1e-12);
  }
}

TEST(Entropy, CategoricalSplitUsesCriterion) {
  // A perfect 2-value split: impurity 0 under both criteria, but a mixed
  // one-value dominance case ranks differently in magnitude.
  CountMatrix m(2, 2);
  m.at(0, 0) = 6;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 6;
  const auto gini = core::best_categorical_split(
      m, 0, core::CategoricalSplit::kMultiWay, core::SplitCriterion::kGini);
  const auto entropy = core::best_categorical_split(
      m, 0, core::CategoricalSplit::kMultiWay, core::SplitCriterion::kEntropy);
  EXPECT_NEAR(gini.gini, 0.375, 1e-12);  // both partitions 1-(9+1)/16 = 0.375
  EXPECT_NEAR(entropy.gini, core::entropy_of_counts(std::vector<std::int64_t>{6, 2}),
              1e-12);
  EXPECT_GT(entropy.gini, gini.gini);  // entropy in bits > gini here
}

// ---------------------------------------------------------------------------
// SplitCandidate ordering
// ---------------------------------------------------------------------------

TEST(SplitCandidate, OrderedByGiniFirst) {
  SplitCandidate a;
  a.gini = 0.1;
  a.attribute = 5;
  SplitCandidate b;
  b.gini = 0.2;
  b.attribute = 0;
  EXPECT_TRUE(core::candidate_less(a, b));
  EXPECT_FALSE(core::candidate_less(b, a));
}

TEST(SplitCandidate, TiesBrokenByAttributeThenThreshold) {
  SplitCandidate a;
  a.gini = 0.1;
  a.attribute = 1;
  a.threshold = 5;
  SplitCandidate b = a;
  b.attribute = 2;
  EXPECT_TRUE(core::candidate_less(a, b));
  b = a;
  b.threshold = 6;
  EXPECT_TRUE(core::candidate_less(a, b));
}

TEST(SplitCandidate, InvalidComparesConsistently) {
  const SplitCandidate invalid_a;
  const SplitCandidate invalid_b;
  EXPECT_FALSE(core::candidate_less(invalid_a, invalid_b));
  SplitCandidate real;
  real.gini = 0.3;
  EXPECT_TRUE(core::candidate_less(real, invalid_a));
  const SplitCandidate winner = core::CandidateMinOp{}(invalid_a, real);
  EXPECT_TRUE(winner.valid());
}

// ---------------------------------------------------------------------------
// scan_continuous_segment
// ---------------------------------------------------------------------------

std::vector<data::ContinuousEntry> entries_of(
    std::initializer_list<std::pair<double, std::int32_t>> pairs) {
  std::vector<data::ContinuousEntry> out;
  std::int64_t rid = 0;
  for (const auto& [v, c] : pairs) {
    out.push_back(data::ContinuousEntry{v, rid++, c, 0});
  }
  return out;
}

TEST(ScanContinuous, FindsPerfectSplit) {
  const auto entries = entries_of({{1, 0}, {2, 0}, {3, 1}, {4, 1}});
  const std::int64_t totals[] = {2, 2};
  const std::int64_t zeros[] = {0, 0};
  core::BinaryGiniScanner scanner(totals, zeros);
  SplitCandidate best;
  core::scan_continuous_segment(entries, scanner, false, 0.0, 3, best);
  EXPECT_TRUE(best.valid());
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  EXPECT_DOUBLE_EQ(best.threshold, 3.0);  // condition is "A < 3"
  EXPECT_EQ(best.attribute, 3);
}

TEST(ScanContinuous, NoCandidateWhenAllValuesEqual) {
  const auto entries = entries_of({{5, 0}, {5, 1}, {5, 0}});
  const std::int64_t totals[] = {2, 1};
  const std::int64_t zeros[] = {0, 0};
  core::BinaryGiniScanner scanner(totals, zeros);
  SplitCandidate best;
  core::scan_continuous_segment(entries, scanner, false, 0.0, 0, best);
  EXPECT_FALSE(best.valid());
}

TEST(ScanContinuous, CrossRankBoundaryCandidate) {
  // This rank's fragment starts at value 10 but the previous rank ended at
  // value 5 with one class-0 record below: the boundary split "A < 10" must
  // be evaluated.
  const auto entries = entries_of({{10, 1}});
  const std::int64_t totals[] = {1, 1};
  const std::int64_t below[] = {1, 0};
  core::BinaryGiniScanner scanner(totals, below);
  SplitCandidate best;
  core::scan_continuous_segment(entries, scanner, true, 5.0, 0, best);
  EXPECT_TRUE(best.valid());
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  EXPECT_DOUBLE_EQ(best.threshold, 10.0);
}

TEST(ScanContinuous, EqualRunAcrossBoundaryIsNotACandidate) {
  const auto entries = entries_of({{5, 1}, {7, 0}});
  const std::int64_t totals[] = {1, 2};
  const std::int64_t below[] = {0, 1};
  core::BinaryGiniScanner scanner(totals, below);
  SplitCandidate best;
  // Previous rank also ended with value 5 -> "A < 5" would be evaluated
  // there, not here; only "A < 7" is a local candidate.
  core::scan_continuous_segment(entries, scanner, true, 5.0, 0, best);
  EXPECT_TRUE(best.valid());
  EXPECT_DOUBLE_EQ(best.threshold, 7.0);
}

// ---------------------------------------------------------------------------
// best_categorical_split
// ---------------------------------------------------------------------------

TEST(CategoricalSplit, MultiWayGini) {
  CountMatrix m(3, 2);
  m.at(0, 0) = 4;  // value 0: pure class 0
  m.at(1, 1) = 4;  // value 1: pure class 1
  m.at(2, 0) = 1;  // value 2: mixed
  m.at(2, 1) = 1;
  const SplitCandidate c =
      core::best_categorical_split(m, 2, core::CategoricalSplit::kMultiWay);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.kind, SplitKind::kCategoricalMultiWay);
  // gini = (2/10)*0.5 = 0.1
  EXPECT_NEAR(c.gini, 0.1, 1e-12);
}

TEST(CategoricalSplit, SingleValueIsNoSplit) {
  CountMatrix m(4, 2);
  m.at(2, 0) = 5;
  m.at(2, 1) = 5;
  EXPECT_FALSE(core::best_categorical_split(m, 0, core::CategoricalSplit::kMultiWay)
                   .valid());
  EXPECT_FALSE(core::best_categorical_split(m, 0, core::CategoricalSplit::kBinarySubset)
                   .valid());
}

TEST(CategoricalSplit, SubsetFindsPerfectPartition) {
  CountMatrix m(4, 2);
  m.at(0, 0) = 3;
  m.at(1, 1) = 2;
  m.at(2, 0) = 4;
  m.at(3, 1) = 1;
  const SplitCandidate c =
      core::best_categorical_split(m, 1, core::CategoricalSplit::kBinarySubset);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.kind, SplitKind::kCategoricalSubset);
  EXPECT_DOUBLE_EQ(c.gini, 0.0);
  // The winning subset separates {0,2} from {1,3} (or the complement).
  const bool v0 = (c.subset >> 0) & 1;
  EXPECT_EQ((c.subset >> 2) & 1, v0);
  EXPECT_NE((c.subset >> 1) & 1, v0);
}

TEST(CategoricalSplit, SubsetRejectsHugeCardinality) {
  CountMatrix m(65, 2);
  EXPECT_THROW(
      core::best_categorical_split(m, 0, core::CategoricalSplit::kBinarySubset),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// splitter helpers
// ---------------------------------------------------------------------------

TEST(Splitter, ContinuousAssignment) {
  const std::vector<double> values{1, 5, 9};
  std::vector<std::int32_t> out(3);
  core::assign_children_continuous(values, 5.0, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);  // 5 is not < 5
  EXPECT_EQ(out[2], 1);
}

TEST(Splitter, CategoricalAssignmentAndMissingValueThrows) {
  std::vector<std::int32_t> values{1, 0};
  const std::vector<std::int32_t> mapping{2, 0};
  std::vector<std::int32_t> out(2);
  core::assign_children_categorical(values, mapping, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 2);
  values[0] = 7;  // outside mapping
  EXPECT_THROW(core::assign_children_categorical(values, mapping, out),
               std::logic_error);
}

TEST(Splitter, ValueToChildMultiway) {
  CountMatrix m(4, 2);
  m.at(0, 0) = 1;
  m.at(2, 1) = 1;
  m.at(3, 0) = 1;
  const auto mapping = core::value_to_child_multiway(m);
  EXPECT_EQ(mapping, (std::vector<std::int32_t>{0, -1, 1, 2}));
  EXPECT_EQ(core::num_children_of(mapping), 3);
}

TEST(Splitter, ValueToChildSubset) {
  CountMatrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 1;
  m.at(2, 0) = 1;
  const auto mapping = core::value_to_child_subset(m, 0b101);
  EXPECT_EQ(mapping, (std::vector<std::int32_t>{0, 1, 0}));
}

// ---------------------------------------------------------------------------
// DecisionTree
// ---------------------------------------------------------------------------

core::DecisionTree tiny_tree() {
  Schema schema({Schema::continuous("x"), Schema::categorical("c", 3)}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = false;
  root.num_records = 10;
  root.class_counts = {6, 4};
  root.majority_class = 0;
  root.split.attribute = 0;
  root.split.kind = AttributeKind::kContinuous;
  root.split.threshold = 2.5;
  root.split.num_children = 2;
  tree.add_node(root);
  core::TreeNode left;
  left.is_leaf = true;
  left.majority_class = 0;
  left.num_records = 6;
  left.class_counts = {6, 0};
  left.depth = 1;
  core::TreeNode right;
  right.is_leaf = true;
  right.majority_class = 1;
  right.num_records = 4;
  right.class_counts = {0, 4};
  right.depth = 1;
  tree.node(0).children = {tree.add_node(left), tree.add_node(right)};
  return tree;
}

data::Dataset tiny_rows() {
  Schema schema({Schema::continuous("x"), Schema::categorical("c", 3)}, 2);
  data::Dataset d(schema);
  const double a[] = {1.0};
  const std::int32_t ca[] = {0};
  d.append(a, ca, 0);
  const double b[] = {3.0};
  const std::int32_t cb[] = {1};
  d.append(b, cb, 1);
  return d;
}

TEST(Tree, PredictFollowsThreshold) {
  const core::DecisionTree tree = tiny_tree();
  const data::Dataset rows = tiny_rows();
  EXPECT_EQ(tree.predict(rows, 0), 0);
  EXPECT_EQ(tree.predict(rows, 1), 1);
  EXPECT_DOUBLE_EQ(tree.accuracy(rows), 1.0);
}

TEST(Tree, CountsAndDepth) {
  const core::DecisionTree tree = tiny_tree();
  EXPECT_EQ(tree.num_nodes(), 3);
  EXPECT_EQ(tree.num_leaves(), 2);
  EXPECT_EQ(tree.depth(), 1);
}

TEST(Tree, UnseenCategoricalValueFallsBackToMajority) {
  Schema schema({Schema::categorical("c", 3)}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = false;
  root.majority_class = 1;
  root.split.attribute = 0;
  root.split.kind = AttributeKind::kCategorical;
  root.split.value_to_child = {0, 1, -1};  // value 2 unseen in training
  root.split.num_children = 2;
  tree.add_node(root);
  core::TreeNode l0;
  l0.majority_class = 0;
  core::TreeNode l1;
  l1.majority_class = 1;
  tree.node(0).children = {tree.add_node(l0), tree.add_node(l1)};

  data::Dataset rows(schema);
  const std::int32_t v2[] = {2};
  rows.append({}, v2, 1);
  EXPECT_EQ(tree.predict(rows, 0), 1);  // root majority
}

TEST(Tree, SameStructureDetectsDifferences) {
  const core::DecisionTree a = tiny_tree();
  core::DecisionTree b = tiny_tree();
  EXPECT_TRUE(a.same_structure(b));
  b.node(0).split.threshold = 9.9;
  EXPECT_FALSE(a.same_structure(b));
}

TEST(Tree, EmptyPredictThrows) {
  core::DecisionTree tree;
  EXPECT_THROW((void)tree.predict(tiny_rows(), 0), std::logic_error);
}

TEST(Tree, PrintContainsAttributeNames) {
  const std::string text = tiny_tree().to_string();
  EXPECT_NE(text.find("x < 2.5"), std::string::npos);
  EXPECT_NE(text.find("leaf"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ConfusionMatrix / evaluate
// ---------------------------------------------------------------------------

TEST(Confusion, Tallies) {
  core::ConfusionMatrix m(2);
  m.record(0, 0);
  m.record(0, 1);
  m.record(1, 1);
  m.record(1, 1);
  EXPECT_EQ(m.total(), 4);
  EXPECT_EQ(m.correct(), 3);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(m.recall(0), 0.5);
  EXPECT_DOUBLE_EQ(m.recall(1), 1.0);
}

TEST(Confusion, RejectsBadInputs) {
  EXPECT_THROW(core::ConfusionMatrix(1), std::invalid_argument);
  core::ConfusionMatrix m(2);
  EXPECT_THROW(m.record(2, 0), std::out_of_range);
}

TEST(Confusion, EvaluateOnDataset) {
  const auto matrix = core::evaluate(tiny_tree(), tiny_rows());
  EXPECT_EQ(matrix.total(), 2);
  EXPECT_DOUBLE_EQ(matrix.accuracy(), 1.0);
}

// ---------------------------------------------------------------------------
// MDL pruning
// ---------------------------------------------------------------------------

TEST(Pruning, CollapsesUselessSplit) {
  // Both children predict the same class as the parent majority; the split
  // fixes zero errors and must be pruned.
  Schema schema({Schema::continuous("x")}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = false;
  root.num_records = 100;
  root.class_counts = {100, 0};
  root.majority_class = 0;
  root.split.attribute = 0;
  root.split.kind = AttributeKind::kContinuous;
  root.split.threshold = 1.0;
  root.split.num_children = 2;
  tree.add_node(root);
  core::TreeNode a;
  a.num_records = 60;
  a.class_counts = {60, 0};
  a.majority_class = 0;
  a.depth = 1;
  core::TreeNode b;
  b.num_records = 40;
  b.class_counts = {40, 0};
  b.majority_class = 0;
  b.depth = 1;
  tree.node(0).children = {tree.add_node(a), tree.add_node(b)};

  const auto report = core::mdl_prune(tree);
  EXPECT_EQ(report.nodes_before, 3);
  EXPECT_EQ(report.nodes_after, 1);
  EXPECT_EQ(report.subtrees_collapsed, 1);
  EXPECT_TRUE(tree.node(tree.root()).is_leaf);
}

TEST(Pruning, KeepsUsefulSplit) {
  // A perfect split of 60/40 records: collapsing it would cost 40 errors,
  // far more than the split's description length.
  Schema schema({Schema::continuous("x")}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = false;
  root.num_records = 100;
  root.class_counts = {60, 40};
  root.majority_class = 0;
  root.split.attribute = 0;
  root.split.kind = AttributeKind::kContinuous;
  root.split.threshold = 2.5;
  root.split.num_children = 2;
  tree.add_node(root);
  core::TreeNode left;
  left.is_leaf = true;
  left.num_records = 60;
  left.class_counts = {60, 0};
  left.majority_class = 0;
  left.depth = 1;
  core::TreeNode right;
  right.is_leaf = true;
  right.num_records = 40;
  right.class_counts = {0, 40};
  right.majority_class = 1;
  right.depth = 1;
  tree.node(0).children = {tree.add_node(left), tree.add_node(right)};

  const auto report = core::mdl_prune(tree);
  EXPECT_EQ(report.nodes_after, 3);
  EXPECT_EQ(report.subtrees_collapsed, 0);
  EXPECT_FALSE(tree.node(tree.root()).is_leaf);
}

TEST(Pruning, Idempotent) {
  core::DecisionTree tree = tiny_tree();
  core::mdl_prune(tree);
  const auto second = core::mdl_prune(tree);
  EXPECT_EQ(second.subtrees_collapsed, 0);
}

TEST(Pruning, EmptyTreeIsNoop) {
  core::DecisionTree tree;
  const auto report = core::mdl_prune(tree);
  EXPECT_EQ(report.nodes_before, 0);
  EXPECT_EQ(report.nodes_after, 0);
}

}  // namespace
}  // namespace scalparc
