// Integration and property tests for distributed tree induction: processor-
// count invariance (the central correctness claim), agreement with the
// serial SPRINT oracle, option handling, degenerate inputs, and the tree
// invariants that per-level splitting must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "core/predict.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"
#include "sprint/parallel_sprint.hpp"
#include "sprint/serial_cart.hpp"
#include "sprint/serial_sprint.hpp"

namespace scalparc {
namespace {

using core::DecisionTree;
using core::InductionControls;
using core::ScalParC;
using data::GeneratorConfig;
using data::LabelFunction;
using data::QuestGenerator;
using data::Schema;

const mp::CostModel kZero = mp::CostModel::zero();

// Walks the tree checking structural invariants: children partition the
// parent's records and class histograms exactly; depths increase by one;
// class counts are non-negative and sum to num_records.
void check_tree_invariants(const DecisionTree& tree) {
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const core::TreeNode& node = tree.node(id);
    const std::int64_t histogram_total = std::accumulate(
        node.class_counts.begin(), node.class_counts.end(), std::int64_t{0});
    EXPECT_EQ(histogram_total, node.num_records) << "node " << id;
    for (const std::int64_t count : node.class_counts) {
      EXPECT_GE(count, 0) << "node " << id;
    }
    if (node.is_leaf) {
      EXPECT_TRUE(node.children.empty()) << "node " << id;
      continue;
    }
    EXPECT_EQ(static_cast<int>(node.children.size()), node.split.num_children)
        << "node " << id;
    EXPECT_GE(node.split.num_children, 2) << "node " << id;
    std::int64_t child_records = 0;
    std::vector<std::int64_t> child_histogram(node.class_counts.size(), 0);
    for (const int child_id : node.children) {
      const core::TreeNode& child = tree.node(child_id);
      EXPECT_EQ(child.depth, node.depth + 1) << "node " << id;
      EXPECT_GT(child.num_records, 0) << "child of node " << id;
      child_records += child.num_records;
      for (std::size_t j = 0; j < child_histogram.size(); ++j) {
        child_histogram[j] += child.class_counts[j];
      }
    }
    EXPECT_EQ(child_records, node.num_records) << "node " << id;
    EXPECT_EQ(child_histogram, node.class_counts) << "node " << id;
  }
}

// ---------------------------------------------------------------------------
// A hand-checkable case.
// ---------------------------------------------------------------------------

TEST(Induction, HandCheckableContinuousSplit) {
  // One attribute that perfectly separates the classes at x < 10.
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 6; ++i) {
    const double x[] = {static_cast<double>(i)};
    d.append(x, {}, 0);
  }
  for (int i = 0; i < 4; ++i) {
    const double x[] = {10.0 + i};
    d.append(x, {}, 1);
  }
  const auto report = ScalParC::fit(d, 1);
  EXPECT_EQ(report.tree.num_nodes(), 3);
  const core::TreeNode& root = report.tree.node(0);
  ASSERT_FALSE(root.is_leaf);
  EXPECT_EQ(root.split.attribute, 0);
  EXPECT_DOUBLE_EQ(root.split.threshold, 10.0);
  EXPECT_EQ(report.tree.node(root.children[0]).majority_class, 0);
  EXPECT_EQ(report.tree.node(root.children[1]).majority_class, 1);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
}

TEST(Induction, HandCheckableCategoricalMultiWay) {
  Schema schema({Schema::categorical("color", 4)}, 2);
  data::Dataset d(schema);
  // Values 0 and 2 are class 0; value 3 is class 1; value 1 unused.
  for (const auto& [v, cls] : std::initializer_list<std::pair<int, int>>{
           {0, 0}, {0, 0}, {2, 0}, {2, 0}, {3, 1}, {3, 1}}) {
    const std::int32_t code[] = {v};
    d.append({}, code, cls);
  }
  const auto report = ScalParC::fit(d, 1);
  const core::TreeNode& root = report.tree.node(0);
  ASSERT_FALSE(root.is_leaf);
  EXPECT_EQ(root.split.num_children, 3);  // one child per present value
  EXPECT_EQ(root.split.value_to_child,
            (std::vector<std::int32_t>{0, -1, 1, 2}));
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
  check_tree_invariants(report.tree);
}

// ---------------------------------------------------------------------------
// Processor-count invariance — the core claim.
// ---------------------------------------------------------------------------

struct PInvarianceCase {
  LabelFunction function;
  int num_attributes;
  double noise;
  const char* name;
};

// Without a PrintTo gtest prints the parameter's raw bytes, name pointer
// included, into the test names ctest discovers; they would change per run.
void PrintTo(const PInvarianceCase& c, std::ostream* os) { *os << c.name; }

class PInvariance : public ::testing::TestWithParam<PInvarianceCase> {};

INSTANTIATE_TEST_SUITE_P(
    Functions, PInvariance,
    ::testing::Values(PInvarianceCase{LabelFunction::kF1, 7, 0.0, "F1"},
                      PInvarianceCase{LabelFunction::kF2, 7, 0.0, "F2"},
                      PInvarianceCase{LabelFunction::kF3, 7, 0.0, "F3"},
                      PInvarianceCase{LabelFunction::kF5, 9, 0.0, "F5"},
                      PInvarianceCase{LabelFunction::kF6, 9, 0.05, "F6noise"},
                      PInvarianceCase{LabelFunction::kF7, 9, 0.05, "F7noise"}),
    [](const ::testing::TestParamInfo<PInvarianceCase>& info) {
      return info.param.name;
    });

TEST_P(PInvariance, TreeIdenticalForAllProcessorCounts) {
  const PInvarianceCase& params = GetParam();
  QuestGenerator generator(GeneratorConfig{.seed = 31,
                                           .function = params.function,
                                           .label_noise = params.noise,
                                           .num_attributes = params.num_attributes});
  const data::Dataset training = generator.generate(0, 600);
  InductionControls controls;
  controls.options.max_depth = 12;

  const DecisionTree reference =
      ScalParC::fit(training, 1, controls, kZero).tree;
  check_tree_invariants(reference);
  for (const int p : {2, 3, 4, 7, 8}) {
    const DecisionTree tree = ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(reference.same_structure(tree)) << "p=" << p;
  }
}

TEST_P(PInvariance, MatchesSerialSprintOracle) {
  const PInvarianceCase& params = GetParam();
  QuestGenerator generator(GeneratorConfig{.seed = 77,
                                           .function = params.function,
                                           .label_noise = params.noise,
                                           .num_attributes = params.num_attributes});
  const data::Dataset training = generator.generate(0, 400);
  InductionControls controls;
  controls.options.max_depth = 12;
  const DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);
  for (const int p : {1, 3, 4}) {
    const DecisionTree tree = ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(oracle.same_structure(tree)) << "p=" << p;
  }
}

TEST_P(PInvariance, ReplicatedHashStrategyGivesSameTree) {
  const PInvarianceCase& params = GetParam();
  QuestGenerator generator(GeneratorConfig{.seed = 99,
                                           .function = params.function,
                                           .label_noise = params.noise,
                                           .num_attributes = params.num_attributes});
  const data::Dataset training = generator.generate(0, 300);
  InductionControls controls;
  controls.options.max_depth = 10;
  const DecisionTree scalparc = ScalParC::fit(training, 4, controls, kZero).tree;
  const DecisionTree sprint_tree =
      sprint::fit_parallel_sprint(training, 4, controls, kZero).tree;
  EXPECT_TRUE(scalparc.same_structure(sprint_tree));
}

TEST(Induction, BinarySubsetModeInvariantAcrossP) {
  QuestGenerator generator(GeneratorConfig{.seed = 13,
                                           .function = LabelFunction::kF3,
                                           .num_attributes = 7});
  const data::Dataset training = generator.generate(0, 500);
  InductionControls controls;
  controls.options.max_depth = 10;
  controls.options.categorical_split = core::CategoricalSplit::kBinarySubset;
  const DecisionTree reference = ScalParC::fit(training, 1, controls, kZero).tree;
  check_tree_invariants(reference);
  for (const int p : {2, 5, 8}) {
    const DecisionTree tree = ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(reference.same_structure(tree)) << "p=" << p;
  }
  // Every categorical split in subset mode must be binary.
  for (int id = 0; id < reference.num_nodes(); ++id) {
    const core::TreeNode& node = reference.node(id);
    if (!node.is_leaf && node.split.kind == data::AttributeKind::kCategorical) {
      EXPECT_EQ(node.split.num_children, 2);
    }
  }
}

TEST(Induction, EntropyCriterionInvariantAcrossPAndMatchesOracle) {
  QuestGenerator generator(GeneratorConfig{.seed = 23,
                                           .function = LabelFunction::kF2,
                                           .num_attributes = 7});
  const data::Dataset training = generator.generate(0, 400);
  InductionControls controls;
  controls.options.max_depth = 10;
  controls.options.criterion = core::SplitCriterion::kEntropy;
  const DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);
  for (const int p : {1, 4, 7}) {
    const DecisionTree tree = ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(oracle.same_structure(tree)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(oracle.accuracy(training), 1.0);
}

TEST(Induction, EntropyAndGiniCanDisagreeButBothLearn) {
  QuestGenerator generator(GeneratorConfig{.seed = 29,
                                           .function = LabelFunction::kF6,
                                           .num_attributes = 9});
  const data::Dataset training = generator.generate(0, 600);
  InductionControls gini;
  InductionControls entropy;
  entropy.options.criterion = core::SplitCriterion::kEntropy;
  const DecisionTree a = ScalParC::fit(training, 2, gini).tree;
  const DecisionTree b = ScalParC::fit(training, 2, entropy).tree;
  EXPECT_DOUBLE_EQ(a.accuracy(training), 1.0);
  EXPECT_DOUBLE_EQ(b.accuracy(training), 1.0);
}

TEST(Induction, CategoricalReductionModesAgree) {
  QuestGenerator generator(GeneratorConfig{.seed = 19,
                                           .function = LabelFunction::kF3,
                                           .num_attributes = 9});
  const data::Dataset training = generator.generate(0, 400);
  InductionControls coordinator;
  coordinator.options.categorical_reduction = core::CategoricalReduction::kCoordinator;
  InductionControls allranks;
  allranks.options.categorical_reduction = core::CategoricalReduction::kAllRanks;
  for (const int p : {1, 3, 6}) {
    const DecisionTree a = ScalParC::fit(training, p, coordinator, kZero).tree;
    const DecisionTree b = ScalParC::fit(training, p, allranks, kZero).tree;
    EXPECT_TRUE(a.same_structure(b)) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Learning quality.
// ---------------------------------------------------------------------------

TEST(Induction, NoiseFreeTrainingIsMemorizedPerfectly) {
  QuestGenerator generator(GeneratorConfig{.seed = 5, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 800);
  const auto report = ScalParC::fit(training, 3);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(training), 1.0);
  check_tree_invariants(report.tree);
}

TEST(Induction, HoldoutAccuracyIsHighOnLearnableFunctions) {
  for (const LabelFunction f : {LabelFunction::kF1, LabelFunction::kF2}) {
    QuestGenerator generator(GeneratorConfig{.seed = 8, .function = f});
    const auto report = ScalParC::fit_generated(generator, 4000, 4);
    const double acc =
        core::holdout_accuracy(report.tree, generator, 1000000, 2000);
    EXPECT_GT(acc, 0.95) << "function " << static_cast<int>(f);
  }
}

TEST(Induction, FitGeneratedMatchesFitOnMaterializedData) {
  QuestGenerator generator(GeneratorConfig{.seed = 42, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 500);
  const DecisionTree a = ScalParC::fit(training, 3).tree;
  const DecisionTree b = ScalParC::fit_generated(generator, 500, 3).tree;
  EXPECT_TRUE(a.same_structure(b));
}

TEST(Induction, CartBaselineAgreesOnAccuracy) {
  QuestGenerator generator(GeneratorConfig{.seed = 3, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 400);
  sprint::CartStats cart_stats;
  const DecisionTree cart =
      sprint::fit_serial_cart(training, core::InductionOptions{}, &cart_stats);
  const DecisionTree scalparc = ScalParC::fit(training, 2).tree;
  EXPECT_DOUBLE_EQ(cart.accuracy(training), 1.0);
  EXPECT_DOUBLE_EQ(scalparc.accuracy(training), 1.0);
  EXPECT_GT(cart_stats.sorted_elements, training.num_records());
}

// ---------------------------------------------------------------------------
// Degenerate inputs and options.
// ---------------------------------------------------------------------------

TEST(Induction, EmptyTrainingSetThrows) {
  Schema schema({Schema::continuous("x")}, 2);
  const data::Dataset empty(schema);
  EXPECT_THROW((void)ScalParC::fit(empty, 2), std::invalid_argument);
}

TEST(Induction, SingleRecordIsALeaf) {
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  const double x[] = {1.0};
  d.append(x, {}, 1);
  const auto report = ScalParC::fit(d, 2);
  EXPECT_EQ(report.tree.num_nodes(), 1);
  EXPECT_TRUE(report.tree.node(0).is_leaf);
  EXPECT_EQ(report.tree.node(0).majority_class, 1);
}

TEST(Induction, PureDataIsASingleLeaf) {
  QuestGenerator generator(GeneratorConfig{.seed = 1, .function = LabelFunction::kF1});
  data::Dataset d(generator.schema());
  // Copy records but force one label.
  const data::Dataset raw = generator.generate(0, 50);
  for (std::size_t row = 0; row < raw.num_records(); ++row) {
    std::vector<double> cont;
    std::vector<std::int32_t> cat;
    for (int a = 0; a < raw.schema().num_attributes(); ++a) {
      if (raw.schema().attribute(a).kind == data::AttributeKind::kContinuous) {
        cont.push_back(raw.continuous_value(a, row));
      } else {
        cat.push_back(raw.categorical_value(a, row));
      }
    }
    d.append(cont, cat, 1);
  }
  const auto report = ScalParC::fit(d, 3);
  EXPECT_EQ(report.tree.num_nodes(), 1);
  EXPECT_TRUE(report.tree.node(0).is_leaf);
}

TEST(Induction, IdenticalAttributeValuesWithMixedLabelsIsALeaf) {
  Schema schema({Schema::continuous("x"), Schema::categorical("c", 3)}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 10; ++i) {
    const double x[] = {7.5};
    const std::int32_t v[] = {1};
    d.append(x, v, i % 2);
  }
  const auto report = ScalParC::fit(d, 2);
  EXPECT_EQ(report.tree.num_nodes(), 1);
  EXPECT_TRUE(report.tree.node(0).is_leaf);
  EXPECT_EQ(report.tree.node(0).majority_class, 0);  // tie -> smallest class
}

TEST(Induction, MaxDepthZeroForcesRootLeaf) {
  QuestGenerator generator(GeneratorConfig{.seed = 2});
  const data::Dataset training = generator.generate(0, 100);
  InductionControls controls;
  controls.options.max_depth = 0;
  const auto report = ScalParC::fit(training, 2, controls);
  EXPECT_EQ(report.tree.num_nodes(), 1);
}

TEST(Induction, MaxDepthBindsExactly) {
  QuestGenerator generator(GeneratorConfig{.seed = 2, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 500);
  InductionControls controls;
  controls.options.max_depth = 3;
  const auto report = ScalParC::fit(training, 3, controls);
  EXPECT_LE(report.tree.depth(), 3);
  check_tree_invariants(report.tree);
}

TEST(Induction, MinSplitRecordsStopsSmallNodes) {
  QuestGenerator generator(GeneratorConfig{.seed = 2, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 500);
  InductionControls controls;
  controls.options.min_split_records = 100;
  const auto report = ScalParC::fit(training, 2, controls);
  for (int id = 0; id < report.tree.num_nodes(); ++id) {
    const core::TreeNode& node = report.tree.node(id);
    if (!node.is_leaf) {
      EXPECT_GE(node.num_records, 100);
    }
  }
}

TEST(Induction, BadOptionsThrow) {
  QuestGenerator generator(GeneratorConfig{.seed = 2});
  const data::Dataset training = generator.generate(0, 10);
  InductionControls controls;
  controls.options.min_split_records = 1;
  EXPECT_THROW((void)ScalParC::fit(training, 1, controls), std::invalid_argument);
  controls = {};
  controls.options.max_depth = -1;
  EXPECT_THROW((void)ScalParC::fit(training, 1, controls), std::invalid_argument);
}

TEST(Induction, MoreRanksThanRecords) {
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 3; ++i) {
    const double x[] = {static_cast<double>(i)};
    d.append(x, {}, i == 0 ? 0 : 1);
  }
  const auto report = ScalParC::fit(d, 6);  // 6 ranks, 3 records
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
  const DecisionTree serial = ScalParC::fit(d, 1).tree;
  EXPECT_TRUE(serial.same_structure(report.tree));
}

TEST(Induction, SmallUpdateBlockStillCorrect) {
  QuestGenerator generator(GeneratorConfig{.seed = 4, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 300);
  InductionControls controls;
  controls.options.node_table_update_block = 7;  // force many rounds
  const DecisionTree blocked = ScalParC::fit(training, 4, controls, kZero).tree;
  const DecisionTree reference = ScalParC::fit(training, 1).tree;
  EXPECT_TRUE(reference.same_structure(blocked));
}

TEST(Induction, MinGiniImprovementPrunesMarginalSplits) {
  QuestGenerator generator(GeneratorConfig{.seed = 6,
                                           .function = LabelFunction::kF2,
                                           .label_noise = 0.1});
  const data::Dataset training = generator.generate(0, 400);
  InductionControls strict;
  strict.options.min_gini_improvement = 0.05;
  const auto lax_report = ScalParC::fit(training, 2);
  const auto strict_report = ScalParC::fit(training, 2, strict);
  EXPECT_LT(strict_report.tree.num_nodes(), lax_report.tree.num_nodes());
}

// ---------------------------------------------------------------------------
// Statistics and scalability properties.
// ---------------------------------------------------------------------------

TEST(Induction, LevelStatsAreCollectedOnDemand) {
  QuestGenerator generator(GeneratorConfig{.seed = 3, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 400);
  InductionControls controls;
  controls.collect_level_stats = true;
  const auto report = ScalParC::fit(training, 2, controls);
  EXPECT_GT(report.stats.levels, 0);
  ASSERT_EQ(report.stats.per_level.size(),
            static_cast<std::size_t>(report.stats.levels));
  EXPECT_EQ(report.stats.per_level.front().active_nodes, 1);
  EXPECT_EQ(report.stats.per_level.front().active_records, 400);
  for (const auto& level : report.stats.per_level) {
    EXPECT_GT(level.max_bytes_sent_per_rank, 0u);
  }
}

TEST(Induction, ScalParCUsesLessNodeTableMemoryThanReplicated) {
  QuestGenerator generator(GeneratorConfig{.seed = 10, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 1024);
  constexpr int kRanks = 4;
  const auto scalparc = ScalParC::fit(training, kRanks);
  const auto replicated = sprint::fit_parallel_sprint(training, kRanks);
  std::size_t scalparc_table = 0;
  std::size_t replicated_table = 0;
  for (const auto& r : scalparc.run.ranks) {
    scalparc_table = std::max(
        scalparc_table, r.meter.peak_bytes(util::MemCategory::kNodeTable));
  }
  for (const auto& r : replicated.run.ranks) {
    replicated_table = std::max(
        replicated_table, r.meter.peak_bytes(util::MemCategory::kNodeTable));
  }
  // O(N/p) vs O(N): with p=4 the replicated table must be ~4x larger.
  EXPECT_LT(scalparc_table * 2, replicated_table);
}

TEST(Induction, ReplicatedStrategySendsMoreBytesPerRank) {
  QuestGenerator generator(GeneratorConfig{.seed = 10, .function = LabelFunction::kF2});
  const data::Dataset training = generator.generate(0, 2048);
  constexpr int kRanks = 8;
  const auto scalparc = ScalParC::fit(training, kRanks);
  const auto replicated = sprint::fit_parallel_sprint(training, kRanks);
  EXPECT_LT(scalparc.run.max_bytes_sent_per_rank() * 2,
            replicated.run.max_bytes_sent_per_rank() * 3);
}

TEST(Induction, MismatchedRankArgumentsAreRejected) {
  QuestGenerator generator(GeneratorConfig{.seed = 2});
  EXPECT_THROW(
      mp::run_ranks(3, kZero,
                    [&](mp::Comm& comm) {
                      const data::Dataset block = generator.generate(
                          static_cast<std::uint64_t>(comm.rank()) * 10, 10);
                      // Rank 2 disagrees on the global total.
                      const std::uint64_t total = comm.rank() == 2 ? 31 : 30;
                      (void)core::induce_tree_distributed(
                          comm, block, comm.rank() * 10, total, {});
                    }),
      std::invalid_argument);
}

TEST(Induction, MismatchedOptionsAreRejected) {
  QuestGenerator generator(GeneratorConfig{.seed = 2});
  EXPECT_THROW(
      mp::run_ranks(2, kZero,
                    [&](mp::Comm& comm) {
                      const data::Dataset block = generator.generate(
                          static_cast<std::uint64_t>(comm.rank()) * 10, 10);
                      core::InductionControls controls;
                      controls.options.max_depth = comm.rank() == 0 ? 8 : 9;
                      (void)core::induce_tree_distributed(
                          comm, block, comm.rank() * 10, 20, controls);
                    }),
      std::invalid_argument);
}

TEST(Induction, PhaseTimingsAccountedUnderRealCostModel) {
  QuestGenerator generator(GeneratorConfig{.seed = 3, .function = LabelFunction::kF2});
  const auto report = core::ScalParC::fit_generated(
      generator, 2000, 4, core::InductionControls{}, mp::CostModel::cray_t3d());
  EXPECT_GT(report.stats.findsplit_seconds, 0.0);
  EXPECT_GT(report.stats.performsplit_seconds, 0.0);
  // presort + findsplit + performsplit should cover (almost) the whole fit.
  const double accounted = report.stats.presort_seconds +
                           report.stats.findsplit_seconds +
                           report.stats.performsplit_seconds;
  EXPECT_LE(accounted, report.stats.total_seconds * 1.001);
  EXPECT_GT(accounted, report.stats.total_seconds * 0.9);
}

// ---------------------------------------------------------------------------
// Collective fusion: every level's split-determination collectives travel in
// O(1) packed CollectiveBatch rounds. The trees are checked against the
// serial SPRINT oracle, the round count against an absolute bound.
// ---------------------------------------------------------------------------

std::string tree_bytes(const DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

TEST(CollectiveFusion, FusedTreeByteIdenticalToUnfused) {
  // Mixed data: 9 Quest attributes = 6 continuous + 3 categorical. Both
  // reductions: the coordinators' batched mapping broadcast, and kAllRanks'
  // local mapping build. The trees must match serial SPRINT and each other
  // byte for byte at every p.
  GeneratorConfig config;
  config.seed = 11;
  config.function = LabelFunction::kF6;
  config.num_attributes = 9;
  config.label_noise = 0.05;
  const data::Dataset training = QuestGenerator(config).generate(0, 1200);
  const DecisionTree oracle = sprint::fit_serial_sprint(training);

  for (const auto reduction : {core::CategoricalReduction::kCoordinator,
                               core::CategoricalReduction::kAllRanks}) {
    for (const int p : {1, 2, 3, 4, 8}) {
      InductionControls controls;
      controls.options.categorical_reduction = reduction;
      const DecisionTree tree = ScalParC::fit(training, p, controls).tree;
      EXPECT_TRUE(oracle.same_structure(tree))
          << "p=" << p << " reduction=" << static_cast<int>(reduction);
      EXPECT_EQ(tree_bytes(tree), tree_bytes(oracle)) << "p=" << p;
    }
  }
}

TEST(CollectiveFusion, FusedTreeByteIdenticalWithBinarySubsetSplits) {
  GeneratorConfig config;
  config.seed = 4;
  config.function = LabelFunction::kF7;
  config.num_attributes = 9;
  const data::Dataset training = QuestGenerator(config).generate(0, 900);
  InductionControls controls;
  controls.options.categorical_split = core::CategoricalSplit::kBinarySubset;
  const DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);
  const DecisionTree tree = ScalParC::fit(training, 4, controls).tree;
  EXPECT_TRUE(oracle.same_structure(tree));
  EXPECT_EQ(tree_bytes(tree), tree_bytes(oracle));
}

// The point of the fusion: per-level collective rounds are O(1) in the
// number of attribute lists, where one collective per list would grow with
// the attribute count.
TEST(CollectiveFusion, FusedCollectiveCallsConstantInAttributeCount) {
  const auto max_calls_per_level = [](int attributes) {
    GeneratorConfig config;
    config.seed = 7;
    config.function = LabelFunction::kF1;  // depends on age only
    config.num_attributes = attributes;
    InductionControls controls;
    controls.options.max_depth = 4;
    controls.collect_level_stats = true;
    const auto report =
        ScalParC::fit(QuestGenerator(config).generate(0, 800), 4, controls);
    std::int64_t max_calls = 0;
    for (const core::LevelStats& level : report.stats.per_level) {
      max_calls = std::max(max_calls, level.collective_calls);
    }
    return max_calls;
  };

  // 3 attributes = 3 continuous lists; 9 = 6 continuous + 3 categorical.
  const std::int64_t small = max_calls_per_level(3);
  const std::int64_t large = max_calls_per_level(9);

  // Adding six lists adds at most the categorical round and the
  // winner-mapping broadcast, never one collective per list.
  EXPECT_LE(large, small + 2);
  EXPECT_LE(large, 16);
}

TEST(Induction, PresortTimePrecordedUnderRealCostModel) {
  QuestGenerator generator(GeneratorConfig{.seed = 3, .function = LabelFunction::kF2});
  const auto report = ScalParC::fit_generated(generator, 1000, 4,
                                              InductionControls{},
                                              mp::CostModel::cray_t3d());
  EXPECT_GT(report.stats.presort_seconds, 0.0);
  EXPECT_GT(report.stats.total_seconds, report.stats.presort_seconds);
  EXPECT_GT(report.run.modeled_seconds, 0.0);
}

}  // namespace
}  // namespace scalparc
