// Compiled flat-tree inference suite (`ctest -L predict`): differential
// equivalence against the recursive DecisionTree walk (the oracle), the
// unseen-categorical and out-of-range fallbacks, degenerate tree shapes,
// batch edge cases, hot-swap under concurrent scoring, the predict.*
// telemetry family, and the per-class precision/recall/f1 extensions of
// ConfusionMatrix.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/compiled_tree.hpp"
#include "core/predict.hpp"
#include "core/scalparc.hpp"
#include "core/tree.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "mp/collectives.hpp"
#include "mp/runtime.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

core::DecisionTree quest_tree(data::LabelFunction function, int records = 500,
                              int ranks = 2) {
  data::GeneratorConfig config;
  config.seed = 23;
  config.function = function;
  const data::QuestGenerator generator(config);
  return core::ScalParC::fit(generator.generate(0, records), ranks).tree;
}

data::Dataset quest_holdout(data::LabelFunction function, std::size_t count) {
  data::GeneratorConfig config;
  config.seed = 23;
  config.function = function;
  const data::QuestGenerator generator(config);
  return generator.generate(500000, count);
}

// A single-leaf tree that predicts `label` for every record.
core::DecisionTree constant_tree(const data::Schema& schema,
                                 std::int32_t label) {
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = true;
  root.majority_class = label;
  root.num_records = 1;
  root.class_counts.assign(static_cast<std::size_t>(schema.num_classes()), 0);
  root.class_counts[static_cast<std::size_t>(label)] = 1;
  tree.add_node(root);
  return tree;
}

// ---------------------------------------------------------------------------
// Differential equivalence: compiled == recursive, row for row
// ---------------------------------------------------------------------------

class CompiledDifferential
    : public ::testing::TestWithParam<data::LabelFunction> {};

INSTANTIATE_TEST_SUITE_P(QuestFunctions, CompiledDifferential,
                         ::testing::Values(data::LabelFunction::kF1,
                                           data::LabelFunction::kF2,
                                           data::LabelFunction::kF3,
                                           data::LabelFunction::kF5,
                                           data::LabelFunction::kF6,
                                           data::LabelFunction::kF7));

TEST_P(CompiledDifferential, MatchesRecursiveOnHoldout) {
  const core::DecisionTree tree = quest_tree(GetParam());
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout = quest_holdout(GetParam(), 1500);
  const std::vector<std::int32_t> batch = compiled.predict_all(holdout);
  ASSERT_EQ(batch.size(), holdout.num_records());
  for (std::size_t row = 0; row < holdout.num_records(); ++row) {
    ASSERT_EQ(batch[row], tree.predict(holdout, row)) << "row " << row;
    // The single-row flat walk must agree too.
    ASSERT_EQ(compiled.predict(holdout, row), batch[row]) << "row " << row;
  }
}

TEST(CompiledTree, CompileRecordsShapeMetadata) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF6);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  EXPECT_EQ(compiled.source_nodes(), tree.num_nodes());
  // Every categorical split synthesizes exactly one fallback leaf.
  EXPECT_GE(compiled.num_nodes(), tree.num_nodes());
  EXPECT_GT(compiled.depth(), 0);
  EXPECT_GT(compiled.payload_bytes(), 0u);
  EXPECT_FALSE(compiled.empty());
}

TEST(CompiledTree, ChunkBoundaryIsSeamless) {
  // Batches straddling the internal kChunk row grouping must not perturb
  // results: compare a one-call whole-dataset batch against predict row by
  // row on a holdout larger than kChunk.
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF2);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout =
      quest_holdout(data::LabelFunction::kF2, core::CompiledTree::kChunk + 137);
  const std::vector<std::int32_t> batch = compiled.predict_all(holdout);
  for (std::size_t row = 0; row < holdout.num_records(); ++row) {
    ASSERT_EQ(batch[row], tree.predict(holdout, row)) << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// Categorical fallbacks and awkward values
// ---------------------------------------------------------------------------

// A root categorical split over cardinality 4 where codes 2 and 3 were
// unseen during training (value_to_child slot -1), children are constant
// leaves 0 / 1, and the root majority is class 1.
core::DecisionTree unseen_value_tree() {
  data::Schema schema({data::Schema::categorical("color", 4)}, 2);
  core::DecisionTree tree(schema);
  core::TreeNode root;
  root.is_leaf = false;
  root.num_records = 10;
  root.majority_class = 1;
  root.class_counts = {4, 6};
  root.split.attribute = 0;
  root.split.kind = data::AttributeKind::kCategorical;
  root.split.num_children = 2;
  root.split.value_to_child = {0, 1, -1, -1};
  tree.add_node(root);
  core::TreeNode leaf0;
  leaf0.is_leaf = true;
  leaf0.depth = 1;
  leaf0.majority_class = 0;
  leaf0.num_records = 4;
  leaf0.class_counts = {4, 0};
  core::TreeNode leaf1 = leaf0;
  leaf1.majority_class = 1;
  leaf1.class_counts = {0, 6};
  leaf1.num_records = 6;
  tree.node(0).children = {tree.add_node(leaf0), tree.add_node(leaf1)};
  return tree;
}

TEST(CompiledTree, UnseenCategoricalValueFallsBackToMajority) {
  const core::DecisionTree tree = unseen_value_tree();
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  data::Dataset rows(tree.schema());
  for (const std::int32_t code : {0, 1, 2, 3}) {
    rows.append({}, std::span<const std::int32_t>(&code, 1), 0);
  }
  const std::vector<std::int32_t> got = compiled.predict_all(rows);
  // Seen codes route to their leaves; unseen codes take the root majority.
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 1);
  for (std::size_t row = 0; row < rows.num_records(); ++row) {
    EXPECT_EQ(got[row], tree.predict(rows, row)) << "row " << row;
  }
}

TEST(CompiledTree, OutOfRangeCategoricalCodeFallsBackToMajority) {
  // Codes outside [0, cardinality) — negative or past the declared domain —
  // must take the same majority fallback as the recursive walk, not index
  // out of the arena.
  const core::DecisionTree tree = unseen_value_tree();
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  data::Dataset rows(tree.schema());
  for (const std::int32_t code : {-1, -7, 4, 99}) {
    rows.append({}, std::span<const std::int32_t>(&code, 1), 0);
  }
  const std::vector<std::int32_t> got = compiled.predict_all(rows);
  for (std::size_t row = 0; row < rows.num_records(); ++row) {
    EXPECT_EQ(got[row], 1) << "row " << row;
    EXPECT_EQ(got[row], tree.predict(rows, row)) << "row " << row;
  }
}

TEST(CompiledTree, NanContinuousValueMatchesRecursive) {
  // NaN compares false against any threshold, so both walks must send it to
  // the >= child at every continuous split.
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF2);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  data::Dataset holdout = quest_holdout(data::LabelFunction::kF2, 8);
  data::Dataset rows(tree.schema());
  const int num_cont = tree.schema().num_continuous();
  const int num_cat = tree.schema().num_categorical();
  std::vector<double> cont(static_cast<std::size_t>(num_cont),
                           std::numeric_limits<double>::quiet_NaN());
  std::vector<std::int32_t> cat(static_cast<std::size_t>(num_cat), 0);
  rows.append(cont, cat, 0);
  EXPECT_EQ(compiled.predict(rows, 0), tree.predict(rows, 0));
  EXPECT_EQ(compiled.predict_all(rows)[0], tree.predict(rows, 0));
}

// ---------------------------------------------------------------------------
// Degenerate tree shapes and batch edges
// ---------------------------------------------------------------------------

TEST(CompiledTree, DeepDegenerateChainMatchesRecursive) {
  // A left-leaning chain 60 levels deep: every internal node splits x at a
  // descending threshold, the right child is a leaf. The batch evaluator
  // must sweep the full depth without losing rows parked early on leaves.
  constexpr int kDepth = 60;
  data::Schema schema({data::Schema::continuous("x")}, 2);
  core::DecisionTree tree(schema);
  for (int level = 0; level < kDepth; ++level) {
    core::TreeNode node;
    node.is_leaf = false;
    node.depth = level;
    node.num_records = 2;
    node.class_counts = {1, 1};
    node.majority_class = level % 2;
    node.split.attribute = 0;
    node.split.kind = data::AttributeKind::kContinuous;
    node.split.threshold = static_cast<double>(kDepth - level);
    node.split.num_children = 2;
    tree.add_node(node);
  }
  core::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.num_records = 1;
  leaf.class_counts = {1, 0};
  for (int level = 0; level < kDepth; ++level) {
    core::TreeNode below = leaf;
    below.depth = level + 1;
    below.majority_class = 0;
    core::TreeNode above = leaf;
    above.depth = level + 1;
    above.majority_class = 1;
    above.class_counts = {0, 1};
    const int below_id =
        level + 1 < kDepth ? -1 : tree.add_node(below);  // chain continues
    const int above_id = tree.add_node(above);
    tree.node(level).children = {below_id < 0 ? level + 1 : below_id, above_id};
  }
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  EXPECT_EQ(compiled.depth(), kDepth);
  data::Dataset rows(schema);
  for (double x = -1.0; x < static_cast<double>(kDepth) + 2.0; x += 0.5) {
    rows.append(std::span<const double>(&x, 1), {}, 0);
  }
  const std::vector<std::int32_t> got = compiled.predict_all(rows);
  for (std::size_t row = 0; row < rows.num_records(); ++row) {
    ASSERT_EQ(got[row], tree.predict(rows, row)) << "row " << row;
  }
}

TEST(CompiledTree, SingleLeafTreePredictsItsMajority) {
  data::Schema schema({data::Schema::continuous("x")}, 3);
  const core::DecisionTree tree = constant_tree(schema, 2);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  EXPECT_EQ(compiled.depth(), 0);
  data::Dataset rows(schema);
  for (const double x : {-1.0, 0.0, 7.5}) {
    rows.append(std::span<const double>(&x, 1), {}, 0);
  }
  for (const std::int32_t label : compiled.predict_all(rows)) {
    EXPECT_EQ(label, 2);
  }
}

TEST(CompiledTree, EmptyBatchIsANoOp) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF1);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout = quest_holdout(data::LabelFunction::kF1, 16);
  std::vector<std::int32_t> out;
  EXPECT_NO_THROW(compiled.predict_batch(holdout, 5, 5, out));
  EXPECT_NO_THROW(compiled.predict_batch(holdout, 0, 0, out));
}

TEST(CompiledTree, SingleRecordBatch) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF1);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout = quest_holdout(data::LabelFunction::kF1, 16);
  std::int32_t label = -1;
  compiled.predict_batch(holdout, 7, 8, std::span<std::int32_t>(&label, 1));
  EXPECT_EQ(label, tree.predict(holdout, 7));
}

TEST(CompiledTree, RejectsBadBatchArguments) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF1);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout = quest_holdout(data::LabelFunction::kF1, 16);
  std::vector<std::int32_t> out(4);
  // Range beyond the dataset.
  EXPECT_THROW(compiled.predict_batch(holdout, 14, 18, out),
               std::out_of_range);
  // Inverted range.
  EXPECT_THROW(compiled.predict_batch(holdout, 8, 4, out), std::out_of_range);
  // Output span sized wrong for the range.
  EXPECT_THROW(compiled.predict_batch(holdout, 0, 3, out),
               std::invalid_argument);
  // An empty (default-constructed) model cannot score anything.
  const core::CompiledTree empty;
  EXPECT_THROW(empty.predict_batch(holdout, 0, 4, out), std::logic_error);
}

TEST(CompiledTree, RefusesToCompileEmptyTree) {
  data::Schema schema({data::Schema::continuous("x")}, 2);
  const core::DecisionTree tree(schema);
  EXPECT_THROW((void)core::CompiledTree::compile(tree), std::logic_error);
}

// ---------------------------------------------------------------------------
// Hot swap
// ---------------------------------------------------------------------------

TEST(ModelHandle, SwapPublishesNewModelAndCounts) {
  data::Schema schema({data::Schema::continuous("x")}, 2);
  core::ModelHandle handle(std::make_shared<const core::CompiledTree>(
      core::CompiledTree::compile(constant_tree(schema, 0))));
  EXPECT_EQ(handle.swaps(), 0u);
  const auto before = handle.get();
  handle.swap(std::make_shared<const core::CompiledTree>(
      core::CompiledTree::compile(constant_tree(schema, 1))));
  EXPECT_EQ(handle.swaps(), 1u);
  data::Dataset rows(schema);
  const double x = 0.0;
  rows.append(std::span<const double>(&x, 1), {}, 0);
  // The old snapshot keeps scoring with the old model; fresh readers see
  // the new one.
  EXPECT_EQ(before->predict(rows, 0), 0);
  EXPECT_EQ(handle.get()->predict(rows, 0), 1);
}

TEST(ModelHandle, SwapUnderConcurrentBatchesNeverTearsABatch) {
  // Scorers hammer the handle while the main thread flips between a
  // constant-0 and a constant-1 model. Each batch snapshots the model once,
  // so every batch must come back homogeneous — a mixed batch means a swap
  // tore through an in-flight evaluation.
  data::Schema schema({data::Schema::continuous("x")}, 2);
  auto model0 = std::make_shared<const core::CompiledTree>(
      core::CompiledTree::compile(constant_tree(schema, 0)));
  auto model1 = std::make_shared<const core::CompiledTree>(
      core::CompiledTree::compile(constant_tree(schema, 1)));
  core::ModelHandle handle(model0);

  data::Dataset rows(schema);
  for (int i = 0; i < 256; ++i) {
    const double x = static_cast<double>(i);
    rows.append(std::span<const double>(&x, 1), {}, 0);
  }

  constexpr int kScorers = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<std::int64_t> batches{0};
  std::array<std::atomic<std::int64_t>, kScorers> scored{};
  std::vector<std::thread> scorers;
  for (int t = 0; t < kScorers; ++t) {
    scorers.emplace_back([&, t] {
      std::vector<std::int32_t> out(rows.num_records());
      while (!stop.load(std::memory_order_relaxed)) {
        const auto model = handle.get();
        model->predict_batch(rows, 0, rows.num_records(), out);
        for (const std::int32_t label : out) {
          if (label != out[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
        scored[static_cast<std::size_t>(t)].fetch_add(1);
      }
    });
  }
  // The flips must overlap scoring: they start once every scorer has scored
  // a batch, and the scorers stop once each has scored another after them.
  const auto wait_until_each_scored_past =
      [&](const std::array<std::int64_t, kScorers>& floor) {
        for (int t = 0; t < kScorers; ++t) {
          while (scored[static_cast<std::size_t>(t)].load() <=
                 floor[static_cast<std::size_t>(t)]) {
            std::this_thread::yield();
          }
        }
      };
  wait_until_each_scored_past({});
  for (int flip = 0; flip < 200; ++flip) {
    handle.swap(flip % 2 == 0 ? model1 : model0);
    std::this_thread::yield();
  }
  std::array<std::int64_t, kScorers> after_flips{};
  for (int t = 0; t < kScorers; ++t) {
    after_flips[static_cast<std::size_t>(t)] =
        scored[static_cast<std::size_t>(t)].load();
  }
  wait_until_each_scored_past(after_flips);
  stop.store(true);
  for (std::thread& scorer : scorers) scorer.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(batches.load(), 0);
  EXPECT_EQ(handle.swaps(), 200u);
}

// ---------------------------------------------------------------------------
// predict.* telemetry
// ---------------------------------------------------------------------------

TEST(PredictMetrics, BatchesRecordsAndSwapsAreCounted) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF2);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout = quest_holdout(data::LabelFunction::kF2, 300);
  const mp::RunResult run = mp::run_ranks(1, kZero, [&](mp::Comm&) {
    std::vector<std::int32_t> out(100);
    for (std::size_t pos = 0; pos < 300; pos += 100) {
      compiled.predict_batch(holdout, pos, pos + 100, out);
    }
    core::ModelHandle handle(
        std::make_shared<const core::CompiledTree>(compiled));
    handle.swap(std::make_shared<const core::CompiledTree>(compiled));
  });
  EXPECT_EQ(run.metrics.value("predict.batches"), 3.0);
  EXPECT_EQ(run.metrics.value("predict.records"), 300.0);
  EXPECT_EQ(run.metrics.value("predict.swaps"), 1.0);
}

// ---------------------------------------------------------------------------
// Evaluation plumbing: compiled evaluate / distributed / holdout
// ---------------------------------------------------------------------------

TEST(Evaluate, CompiledMatchesRecursiveCellForCell) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF6);
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const data::Dataset holdout = quest_holdout(data::LabelFunction::kF6, 2000);
  const core::ConfusionMatrix recursive = core::evaluate(tree, holdout);
  const core::ConfusionMatrix batched = core::evaluate(compiled, holdout);
  ASSERT_EQ(recursive.total(), batched.total());
  for (std::int32_t a = 0; a < 2; ++a) {
    for (std::int32_t p = 0; p < 2; ++p) {
      EXPECT_EQ(recursive.at(a, p), batched.at(a, p));
    }
  }
}

TEST(Evaluate, DistributedMatchesSerialIncludingEmptyBlocks) {
  const core::DecisionTree tree = quest_tree(data::LabelFunction::kF2);
  const data::Dataset holdout = quest_holdout(data::LabelFunction::kF2, 900);
  const core::ConfusionMatrix serial = core::evaluate(tree, holdout);
  // 4 ranks over 900 rows; rank 3's block is intentionally empty.
  mp::run_ranks(4, kZero, [&](mp::Comm& comm) {
    const std::size_t lo = comm.rank() < 3
                               ? static_cast<std::size_t>(comm.rank()) * 300
                               : holdout.num_records();
    const std::size_t hi = comm.rank() < 3 ? lo + 300 : holdout.num_records();
    data::Dataset block(tree.schema());
    std::vector<double> cont(
        static_cast<std::size_t>(tree.schema().num_continuous()));
    std::vector<std::int32_t> cat(
        static_cast<std::size_t>(tree.schema().num_categorical()));
    for (std::size_t row = lo; row < hi; ++row) {
      int c = 0;
      int g = 0;
      for (int a = 0; a < tree.schema().num_attributes(); ++a) {
        if (tree.schema().attribute(a).kind ==
            data::AttributeKind::kContinuous) {
          cont[static_cast<std::size_t>(c++)] =
              holdout.continuous_value(a, row);
        } else {
          cat[static_cast<std::size_t>(g++)] =
              holdout.categorical_value(a, row);
        }
      }
      block.append(cont, cat, holdout.label(row));
    }
    const core::ConfusionMatrix global =
        core::evaluate_distributed(comm, tree, block);
    // Every rank holds the global tally.
    ASSERT_EQ(global.total(), serial.total());
    for (std::int32_t a = 0; a < 2; ++a) {
      for (std::int32_t p = 0; p < 2; ++p) {
        ASSERT_EQ(global.at(a, p), serial.at(a, p));
      }
    }
  });
}

TEST(Evaluate, HoldoutAccuracyMatchesPerRowOracle) {
  data::GeneratorConfig config;
  config.seed = 23;
  config.function = data::LabelFunction::kF2;
  const data::QuestGenerator generator(config);
  const core::DecisionTree tree =
      core::ScalParC::fit(generator.generate(0, 500), 2).tree;
  const double batched = core::holdout_accuracy(tree, generator, 700000, 1200);
  const data::Dataset holdout = generator.generate(700000, 1200);
  std::size_t correct = 0;
  for (std::size_t row = 0; row < holdout.num_records(); ++row) {
    correct += tree.predict(holdout, row) == holdout.label(row);
  }
  EXPECT_DOUBLE_EQ(batched, static_cast<double>(correct) / 1200.0);
}

// ---------------------------------------------------------------------------
// ConfusionMatrix: precision / recall / f1
// ---------------------------------------------------------------------------

TEST(ConfusionMatrix, PrecisionRecallF1) {
  core::ConfusionMatrix m(2);
  // actual 0: 8 right, 2 called 1; actual 1: 3 called 0, 7 right.
  for (int i = 0; i < 8; ++i) m.record(0, 0);
  for (int i = 0; i < 2; ++i) m.record(0, 1);
  for (int i = 0; i < 3; ++i) m.record(1, 0);
  for (int i = 0; i < 7; ++i) m.record(1, 1);
  EXPECT_DOUBLE_EQ(m.recall(0), 0.8);
  EXPECT_DOUBLE_EQ(m.recall(1), 0.7);
  EXPECT_DOUBLE_EQ(m.precision(0), 8.0 / 11.0);
  EXPECT_DOUBLE_EQ(m.precision(1), 7.0 / 9.0);
  const double p0 = 8.0 / 11.0;
  EXPECT_DOUBLE_EQ(m.f1(0), 2.0 * p0 * 0.8 / (p0 + 0.8));
  const double p1 = 7.0 / 9.0;
  EXPECT_DOUBLE_EQ(m.f1(1), 2.0 * p1 * 0.7 / (p1 + 0.7));
}

TEST(ConfusionMatrix, PrecisionAndF1DegenerateCases) {
  core::ConfusionMatrix m(3);
  // Class 2 never occurs and is never predicted: all three scores are 0,
  // not NaN.
  m.record(0, 0);
  m.record(1, 0);
  EXPECT_DOUBLE_EQ(m.precision(2), 0.0);
  EXPECT_DOUBLE_EQ(m.recall(2), 0.0);
  EXPECT_DOUBLE_EQ(m.f1(2), 0.0);
  // Class 1 occurs but is never predicted: precision 0, recall 0, f1 0.
  EXPECT_DOUBLE_EQ(m.precision(1), 0.0);
  EXPECT_DOUBLE_EQ(m.f1(1), 0.0);
  // Class 0 is over-predicted: perfect recall, diluted precision.
  EXPECT_DOUBLE_EQ(m.recall(0), 1.0);
  EXPECT_DOUBLE_EQ(m.precision(0), 0.5);
}

}  // namespace
}  // namespace scalparc
