// Histogram-quantized split finding (SplitMode::kHistogram / kVoting):
// binner determinism properties, histogram split evaluation against
// hand-checkable data, processor-count invariance of histogram-mode trees,
// voting-mode determinism and degeneracies, the owner-rank merge's traffic
// bound, and checkpoint interop — kill + resume under histogram mode,
// cross-mode resume in both directions, and shrink recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/histogram.hpp"
#include "core/scalparc.hpp"
#include "core/split_finder.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"

namespace scalparc {
namespace {

namespace fs = std::filesystem;

using core::InductionControls;
using core::ScalParC;
using core::SplitMode;
using core::ValueRange;
using data::GeneratorConfig;
using data::LabelFunction;
using data::QuestGenerator;
using data::Schema;

const mp::CostModel kZero = mp::CostModel::zero();

std::string tree_bytes(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

data::Dataset make_training(std::uint64_t records, std::uint64_t seed = 3,
                            LabelFunction function = LabelFunction::kF2) {
  GeneratorConfig config;
  config.seed = seed;
  config.function = function;
  config.num_attributes = 7;
  return QuestGenerator(config).generate(0, records);
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

void check_tree_invariants(const core::DecisionTree& tree) {
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const core::TreeNode& node = tree.node(id);
    const std::int64_t histogram_total = std::accumulate(
        node.class_counts.begin(), node.class_counts.end(), std::int64_t{0});
    EXPECT_EQ(histogram_total, node.num_records) << "node " << id;
    if (node.is_leaf) {
      EXPECT_TRUE(node.children.empty()) << "node " << id;
      continue;
    }
    EXPECT_EQ(static_cast<int>(node.children.size()), node.split.num_children)
        << "node " << id;
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

InductionControls histogram_controls(int bins = 64, int depth = 12) {
  InductionControls controls;
  controls.options.max_depth = depth;
  controls.options.split_mode = SplitMode::kHistogram;
  controls.options.hist_bins = bins;
  return controls;
}

// ---------------------------------------------------------------------------
// Binner properties
// ---------------------------------------------------------------------------

TEST(HistogramBinner, DeterministicMonotoneAndClamped) {
  const ValueRange range{.lo = -4.0, .hi = 12.0};
  const int bins = 16;
  EXPECT_EQ(core::histogram_bin_of(range.lo, range, bins), 0);
  EXPECT_EQ(core::histogram_bin_of(range.hi, range, bins), bins - 1);
  int prev = 0;
  std::mt19937_64 rng(7);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) {
    values.push_back(std::uniform_real_distribution<double>(range.lo,
                                                            range.hi)(rng));
  }
  std::sort(values.begin(), values.end());
  for (const double v : values) {
    const int b = core::histogram_bin_of(v, range, bins);
    EXPECT_GE(b, prev) << v;  // monotone in v
    EXPECT_GE(b, 0);
    EXPECT_LT(b, bins);
    // Identical doubles must land in identical bins (same expression, no
    // environment dependence) — the cross-rank determinism contract.
    EXPECT_EQ(b, core::histogram_bin_of(v, range, bins));
    prev = b;
  }
}

TEST(HistogramBinner, DegenerateAndExtremeRanges) {
  const int bins = 8;
  // Single-valued node: everything in bin 0.
  const ValueRange flat{.lo = 5.0, .hi = 5.0};
  EXPECT_EQ(core::histogram_bin_of(5.0, flat, bins), 0);
  // Empty range (identity element of RangeOp) never sees values, but the
  // binner must still be total.
  EXPECT_EQ(core::histogram_bin_of(0.0, ValueRange{}, bins), 0);
  // Huge magnitudes do not overflow the bin index.
  const double big = std::numeric_limits<double>::max() / 4;
  const ValueRange wide{.lo = -big, .hi = big};
  EXPECT_EQ(core::histogram_bin_of(-big, wide, bins), 0);
  EXPECT_EQ(core::histogram_bin_of(big, wide, bins), bins - 1);
  EXPECT_EQ(core::histogram_bin_of(0.0, wide, bins), bins / 2);
}

TEST(HistogramBinner, RangeOpMergesLikeMinMax) {
  core::RangeOp op;
  const ValueRange a{.lo = 1.0, .hi = 3.0};
  const ValueRange b{.lo = -2.0, .hi = 2.0};
  const ValueRange merged = op(a, b);
  EXPECT_EQ(merged.lo, -2.0);
  EXPECT_EQ(merged.hi, 3.0);
  // Identity on either side.
  EXPECT_EQ(op(a, ValueRange{}).lo, a.lo);
  EXPECT_EQ(op(ValueRange{}, a).hi, a.hi);
  EXPECT_TRUE(ValueRange{}.empty());
  EXPECT_FALSE(merged.empty());
}

TEST(HistogramAccumulate, CountsSumToRecordsAndMinsAreReal) {
  std::mt19937_64 rng(41);
  const int bins = 32;
  const int classes = 3;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 500);
    std::vector<double> values(static_cast<std::size_t>(n));
    std::vector<std::int32_t> cls(static_cast<std::size_t>(n));
    ValueRange range;
    for (int i = 0; i < n; ++i) {
      // Mix duplicates and extremes in.
      const int shape = static_cast<int>(rng() % 4);
      double v = std::uniform_real_distribution<double>(-1e3, 1e3)(rng);
      if (shape == 0) v = 42.0;
      if (shape == 1) v = -1e9;
      values[static_cast<std::size_t>(i)] = v;
      cls[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(rng() % 3);
      range.lo = std::min(range.lo, v);
      range.hi = std::max(range.hi, v);
    }
    std::vector<std::int64_t> counts(
        static_cast<std::size_t>(bins * classes), 0);
    std::vector<double> bin_min(static_cast<std::size_t>(bins),
                                std::numeric_limits<double>::infinity());
    core::histogram_accumulate(values, cls, range, bins, classes, counts,
                               bin_min);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
              n);
    for (int b = 0; b < bins; ++b) {
      std::int64_t in_bin = 0;
      for (int j = 0; j < classes; ++j) {
        in_bin += counts[static_cast<std::size_t>(b * classes + j)];
      }
      if (in_bin == 0) {
        EXPECT_TRUE(std::isinf(bin_min[static_cast<std::size_t>(b)]));
        continue;
      }
      // The recorded minimum is an actual data value of that bin.
      const double lo = bin_min[static_cast<std::size_t>(b)];
      EXPECT_EQ(core::histogram_bin_of(lo, range, bins), b);
      EXPECT_NE(std::find(values.begin(), values.end(), lo), values.end());
    }
  }
}

TEST(HistogramSplit, SeparatedClustersSplitAtClusterBoundary) {
  // Class 0 clustered near 0, class 1 near 100: the best histogram split
  // must separate them perfectly, with a threshold that is a real data
  // value of the upper cluster (the bin-min technique).
  const int bins = 16;
  const int classes = 2;
  std::vector<double> values;
  std::vector<std::int32_t> cls;
  for (int i = 0; i < 20; ++i) {
    values.push_back(static_cast<double>(i) * 0.1);
    cls.push_back(0);
    values.push_back(100.0 + static_cast<double>(i) * 0.1);
    cls.push_back(1);
  }
  ValueRange range;
  for (const double v : values) {
    range.lo = std::min(range.lo, v);
    range.hi = std::max(range.hi, v);
  }
  std::vector<std::int64_t> counts(static_cast<std::size_t>(bins * classes),
                                   0);
  std::vector<double> bin_min(static_cast<std::size_t>(bins),
                              std::numeric_limits<double>::infinity());
  core::histogram_accumulate(values, cls, range, bins, classes, counts,
                             bin_min);
  const std::vector<std::int64_t> totals = {20, 20};
  core::SplitCandidate best;
  core::best_histogram_split(counts, bin_min, totals, bins,
                             core::SplitCriterion::kGini, 0, best);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.attribute, 0);
  EXPECT_DOUBLE_EQ(best.gini, 0.0);  // perfect separation
  EXPECT_DOUBLE_EQ(best.threshold, 100.0);  // min of the upper cluster's bin
}

// ---------------------------------------------------------------------------
// Histogram-mode induction
// ---------------------------------------------------------------------------

TEST(HistogramInduction, TreeIdenticalForAllProcessorCounts) {
  const data::Dataset training = make_training(600, 31);
  const InductionControls controls = histogram_controls();
  const core::FitReport reference = ScalParC::fit(training, 1, controls, kZero);
  EXPECT_EQ(reference.stats.split_mode, SplitMode::kHistogram);
  check_tree_invariants(reference.tree);
  const std::string expected = tree_bytes(reference.tree);
  for (const int p : {2, 4, 8}) {
    EXPECT_EQ(tree_bytes(ScalParC::fit(training, p, controls, kZero).tree),
              expected)
        << "p=" << p;
  }
}

TEST(HistogramInduction, DuplicateHeavyDataInvariantAcrossP) {
  // Quantize every continuous value onto a tiny grid so bins and records
  // collide heavily; determinism must survive ties.
  data::Dataset raw = make_training(500, 9);
  data::Dataset training(raw.schema());
  std::vector<double> cont;
  std::vector<std::int32_t> cat;
  for (std::size_t r = 0; r < raw.num_records(); ++r) {
    cont.clear();
    cat.clear();
    for (int a = 0; a < raw.schema().num_attributes(); ++a) {
      if (raw.schema().attribute(a).kind == data::AttributeKind::kContinuous) {
        cont.push_back(std::floor(raw.continuous_column(a)[r] / 5000.0));
      } else {
        cat.push_back(raw.categorical_column(a)[r]);
      }
    }
    training.append(cont, cat, raw.labels()[r]);
  }
  const InductionControls controls = histogram_controls(16, 8);
  const std::string expected =
      tree_bytes(ScalParC::fit(training, 1, controls, kZero).tree);
  for (const int p : {3, 8}) {
    EXPECT_EQ(tree_bytes(ScalParC::fit(training, p, controls, kZero).tree),
              expected)
        << "p=" << p;
  }
}

TEST(HistogramInduction, CategoricalOnlyDataMatchesExactEngine) {
  // With no continuous attributes there is nothing to quantize: count
  // matrices are exact in both engines, so the trees must agree.
  Schema schema({Schema::categorical("a", 5), Schema::categorical("b", 3)}, 2);
  data::Dataset training(schema);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 400; ++i) {
    const std::int32_t a = static_cast<std::int32_t>(rng() % 5);
    const std::int32_t b = static_cast<std::int32_t>(rng() % 3);
    const std::int32_t code[] = {a, b};
    const int cls = (a >= 3) != (b == 1) ? 1 : 0;
    training.append({}, code, cls);
  }
  InductionControls exact;
  exact.options.max_depth = 8;
  InductionControls hist = exact;
  hist.options.split_mode = SplitMode::kHistogram;
  const std::string expected =
      tree_bytes(ScalParC::fit(training, 4, exact, kZero).tree);
  EXPECT_EQ(tree_bytes(ScalParC::fit(training, 4, hist, kZero).tree),
            expected);
}

TEST(HistogramInduction, FineBinsOnGridDataMatchesExactEngine) {
  // Integer-valued continuous data with fewer distinct values than bins:
  // every distinct value gets its own bin, bin minima enumerate exactly the
  // candidate thresholds the exact engine scans, so the trees coincide.
  Schema schema({Schema::continuous("x"), Schema::continuous("y")}, 2);
  data::Dataset training(schema);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 300; ++i) {
    const double x = static_cast<double>(rng() % 12);
    const double y = static_cast<double>(rng() % 12);
    const double row[] = {x, y};
    const int cls = x + 2 * y > 16 ? 1 : 0;
    training.append(row, {}, cls);
  }
  InductionControls exact;
  exact.options.max_depth = 10;
  InductionControls hist = exact;
  hist.options.split_mode = SplitMode::kHistogram;
  hist.options.hist_bins = 256;
  const std::string expected =
      tree_bytes(ScalParC::fit(training, 3, exact, kZero).tree);
  EXPECT_EQ(tree_bytes(ScalParC::fit(training, 3, hist, kZero).tree),
            expected);
}

TEST(HistogramInduction, AccuracyCloseToExact) {
  const data::Dataset training = make_training(1500, 5);
  InductionControls exact;
  exact.options.max_depth = 10;
  const double exact_acc =
      ScalParC::fit(training, 4, exact, kZero).tree.accuracy(training);
  const double hist_acc =
      ScalParC::fit(training, 4, histogram_controls(64, 10), kZero)
          .tree.accuracy(training);
  EXPECT_GE(hist_acc, exact_acc - 0.05);
}

TEST(HistogramInduction, RejectsBadOptions) {
  const data::Dataset training = make_training(100);
  InductionControls controls = histogram_controls();
  controls.options.hist_bins = 1;
  EXPECT_THROW(ScalParC::fit(training, 2, controls, kZero),
               std::invalid_argument);
  InductionControls voting;
  voting.options.split_mode = SplitMode::kVoting;
  voting.options.top_k = 0;
  EXPECT_THROW(ScalParC::fit(training, 2, voting, kZero),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Voting mode
// ---------------------------------------------------------------------------

TEST(VotingInduction, DeterministicAtFixedWorldSize) {
  const data::Dataset training = make_training(800, 21);
  InductionControls controls = histogram_controls(32, 10);
  controls.options.split_mode = SplitMode::kVoting;
  controls.options.top_k = 2;
  const core::FitReport first = ScalParC::fit(training, 4, controls, kZero);
  EXPECT_EQ(first.stats.split_mode, SplitMode::kVoting);
  check_tree_invariants(first.tree);
  const core::FitReport second = ScalParC::fit(training, 4, controls, kZero);
  EXPECT_EQ(tree_bytes(first.tree), tree_bytes(second.tree));
}

TEST(VotingInduction, FullTopKEqualsHistogramMode) {
  // With top_k >= the attribute count every attribute is elected, so
  // voting degenerates to histogram mode exactly.
  const data::Dataset training = make_training(600, 13);
  InductionControls hist = histogram_controls(32, 10);
  InductionControls voting = hist;
  voting.options.split_mode = SplitMode::kVoting;
  voting.options.top_k = training.schema().num_attributes();
  for (const int p : {1, 4}) {
    EXPECT_EQ(tree_bytes(ScalParC::fit(training, p, voting, kZero).tree),
              tree_bytes(ScalParC::fit(training, p, hist, kZero).tree))
        << "p=" << p;
  }
}

TEST(VotingInduction, AccuracyCloseToExact) {
  const data::Dataset training = make_training(1500, 37);
  InductionControls exact;
  exact.options.max_depth = 10;
  const double exact_acc =
      ScalParC::fit(training, 4, exact, kZero).tree.accuracy(training);
  InductionControls voting = histogram_controls(64, 10);
  voting.options.split_mode = SplitMode::kVoting;
  voting.options.top_k = 2;
  const double voting_acc =
      ScalParC::fit(training, 4, voting, kZero).tree.accuracy(training);
  EXPECT_GE(voting_acc, exact_acc - 0.08);
}

// ---------------------------------------------------------------------------
// Merge traffic
// ---------------------------------------------------------------------------

TEST(HistogramMerge, BusiestRankSendsLessThanItsPackedHistograms) {
  // Each merged histogram has one owner rank, so a rank sends every peer
  // only that peer's chunk: the busiest rank sends less than the histograms
  // it packs. A replicated merge (a reduce to one rank, then a broadcast)
  // makes some rank send about log2(p) times them. comm.histogram_bytes
  // sums every rank's packed payload.
  const data::Dataset training = make_training(2000);
  for (const SplitMode mode : {SplitMode::kHistogram, SplitMode::kVoting}) {
    InductionControls controls = histogram_controls(64, 12);
    controls.options.split_mode = mode;
    controls.options.top_k = 2;
    for (const int p : {3, 4}) {
      const core::FitReport report =
          ScalParC::fit(training, p, controls, kZero);
      const double packed_per_rank =
          report.run.metrics.value("comm.histogram_bytes") / p;
      ASSERT_GT(packed_per_rank, 0.0);
      EXPECT_LT(static_cast<double>(report.run.max_bytes_sent_per_rank()),
                packed_per_rank)
          << "mode " << static_cast<int>(mode) << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint interop
// ---------------------------------------------------------------------------

TEST(HistogramRecovery, KillAndResumeReproducesCleanTree) {
  const data::Dataset training = make_training(3000, 3);
  InductionControls controls = histogram_controls(64, 6);
  const core::FitReport clean = ScalParC::fit(training, 4, controls, kZero);
  ASSERT_GE(clean.stats.levels, 4);
  const std::string expected = tree_bytes(clean.tree);

  TempDir dir("scalparc_hist_kill");
  mp::FaultPlan plan;
  plan.parse("kill:r=2,level=3");
  mp::RunOptions options;
  options.fault_plan = &plan;
  InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  const core::RecoveryReport report = ScalParC::fit_with_recovery(
      training, 4, ckpt, core::RecoveryControls{}, kZero, options);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].failed_rank, 2);
  EXPECT_EQ(report.events[0].resumed_level, 3);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

TEST(HistogramRecovery, ShrinkRecoveryReproducesCleanTree) {
  // Histogram-mode trees are world-size invariant, so even continuing with
  // fewer ranks after the shrink must reproduce the clean tree exactly.
  const data::Dataset training = make_training(2500, 3);
  InductionControls controls = histogram_controls(64, 6);
  const std::string expected =
      tree_bytes(ScalParC::fit(training, 4, controls, kZero).tree);

  TempDir dir("scalparc_hist_shrink");
  mp::FaultPlan plan;
  plan.parse("kill:r=1,level=2");
  mp::RunOptions options;
  options.fault_plan = &plan;
  InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kShrink;
  const core::RecoveryReport report = ScalParC::fit_with_recovery(
      training, 4, ckpt, recovery, kZero, options);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.events[0].ranks_after, 3);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

TEST(CrossModeResume, ExactCheckpointResumesUnderHistogram) {
  const data::Dataset training = make_training(2000, 3);
  InductionControls exact;
  exact.options.max_depth = 6;
  TempDir dir("scalparc_cross_eh");
  InductionControls ckpt = exact;
  ckpt.checkpoint.directory = dir.path;
  mp::FaultPlan plan;
  plan.parse("kill:r=1,level=3");
  mp::RunOptions options;
  options.fault_plan = &plan;
  EXPECT_THROW(ScalParC::fit(training, 4, ckpt, kZero, options),
               mp::InjectedFault);

  // Same fingerprint (split mode excluded), different engine: the resume
  // must load the exact engine's checkpoint and finish under histogram
  // quantization.
  InductionControls resume = ckpt;
  resume.options.split_mode = SplitMode::kHistogram;
  resume.options.hist_bins = 64;
  const core::FitReport resumed =
      ScalParC::resume_from_checkpoint(training, 4, resume, kZero);
  EXPECT_EQ(resumed.stats.split_mode, SplitMode::kHistogram);
  EXPECT_GE(resumed.stats.levels, 3);
  check_tree_invariants(resumed.tree);
  EXPECT_GE(resumed.tree.accuracy(training), 0.7);
}

TEST(CrossModeResume, HistogramCheckpointResumesUnderExact) {
  const data::Dataset training = make_training(2000, 3);
  InductionControls hist = histogram_controls(64, 6);
  TempDir dir("scalparc_cross_he");
  InductionControls ckpt = hist;
  ckpt.checkpoint.directory = dir.path;
  mp::FaultPlan plan;
  plan.parse("kill:r=3,level=3");
  mp::RunOptions options;
  options.fault_plan = &plan;
  EXPECT_THROW(ScalParC::fit(training, 4, ckpt, kZero, options),
               mp::InjectedFault);

  InductionControls resume = ckpt;
  resume.options.split_mode = SplitMode::kExact;
  const core::FitReport resumed =
      ScalParC::resume_from_checkpoint(training, 4, resume, kZero);
  EXPECT_EQ(resumed.stats.split_mode, SplitMode::kExact);
  EXPECT_GE(resumed.stats.levels, 3);
  check_tree_invariants(resumed.tree);
  EXPECT_GE(resumed.tree.accuracy(training), 0.7);
}

TEST(CrossModeResume, SameModeExplicitResumeIsByteIdentical) {
  const data::Dataset training = make_training(2000, 3);
  InductionControls controls = histogram_controls(64, 6);
  const std::string expected =
      tree_bytes(ScalParC::fit(training, 4, controls, kZero).tree);

  TempDir dir("scalparc_hist_resume");
  InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  mp::FaultPlan plan;
  plan.parse("kill:r=0,level=2");
  mp::RunOptions options;
  options.fault_plan = &plan;
  EXPECT_THROW(ScalParC::fit(training, 4, ckpt, kZero, options),
               mp::InjectedFault);
  const core::FitReport resumed =
      ScalParC::resume_from_checkpoint(training, 4, ckpt, kZero);
  EXPECT_EQ(tree_bytes(resumed.tree), expected);
}

}  // namespace
}  // namespace scalparc
