// Tests for the decision-tree model persistence extension (core/tree_io).
#include <gtest/gtest.h>

#include <sstream>

#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"

namespace scalparc {
namespace {

// ---------------------------------------------------------------------------
// Tree persistence
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

}  // namespace
}  // namespace scalparc
