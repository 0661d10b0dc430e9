// Robustness: damaged checkpoints must throw (never crash or silently
// mis-parse), non-finite inputs are rejected, adversarial data shapes train
// correctly, and the full option matrix preserves processor-count
// invariance. The CSV and tree-file readers are fuzzed in test_data.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/attribute_list.hpp"
#include "data/synthetic.hpp"
#include "sprint/serial_sprint.hpp"
#include "util/crc32.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

using data::Schema;

const mp::CostModel kZero = mp::CostModel::zero();

// ---------------------------------------------------------------------------
// Non-finite values
// ---------------------------------------------------------------------------

TEST(NonFinite, ValidateRejectsNaN) {
  data::Dataset d(Schema({Schema::continuous("x")}, 2));
  const double nan_value[] = {std::numeric_limits<double>::quiet_NaN()};
  d.append(nan_value, {}, 0);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(NonFinite, ValidateRejectsInfinity) {
  data::Dataset d(Schema({Schema::continuous("x")}, 2));
  const double inf_value[] = {std::numeric_limits<double>::infinity()};
  d.append(inf_value, {}, 0);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Adversarial data shapes.
// ---------------------------------------------------------------------------

TEST(Adversarial, AlternatingClassesOnSortedValues) {
  // Worst case for the split scan: every adjacent pair flips class, so every
  // position is a candidate and gains are tiny but the tree must still
  // separate all records.
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 64; ++i) {
    const double x[] = {static_cast<double>(i)};
    d.append(x, {}, i % 2);
  }
  const auto report = core::ScalParC::fit(d, 4);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
  const core::DecisionTree serial = core::ScalParC::fit(d, 1).tree;
  EXPECT_TRUE(serial.same_structure(report.tree));
}

TEST(Adversarial, MassiveDuplicateRuns) {
  // 90% of records share one attribute value; candidates exist only at the
  // two run boundaries.
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  for (int i = 0; i < 200; ++i) {
    const double x[] = {i < 180 ? 5.0 : static_cast<double>(i)};
    d.append(x, {}, i < 180 ? 0 : 1);
  }
  const auto report = core::ScalParC::fit(d, 5);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
  EXPECT_EQ(report.tree.num_nodes(), 3);  // one split suffices
}

TEST(Adversarial, ExtremeMagnitudes) {
  Schema schema({Schema::continuous("x")}, 2);
  data::Dataset d(schema);
  const double values[] = {-1e300, -1e-300, 0.0, 1e-300, 1e300, 1e299};
  for (int i = 0; i < 6; ++i) {
    const double x[] = {values[i]};
    d.append(x, {}, i < 3 ? 0 : 1);
  }
  const auto report = core::ScalParC::fit(d, 3);
  EXPECT_DOUBLE_EQ(report.tree.accuracy(d), 1.0);
}

TEST(Adversarial, SingleClassAmongMany) {
  // 5 declared classes but only class 3 occurs: root must be a pure leaf.
  Schema schema({Schema::continuous("x")}, 5);
  data::Dataset d(schema);
  for (int i = 0; i < 20; ++i) {
    const double x[] = {static_cast<double>(i)};
    d.append(x, {}, 3);
  }
  const auto report = core::ScalParC::fit(d, 2);
  EXPECT_EQ(report.tree.num_nodes(), 1);
  EXPECT_EQ(report.tree.node(0).majority_class, 3);
}

TEST(Adversarial, SkewedBlockSizesAcrossRanks) {
  // fit() gives contiguous equal blocks; emulate extreme skew by calling
  // fit_rank directly with all data on one rank.
  data::GeneratorConfig config;
  config.seed = 15;
  const data::QuestGenerator generator(config);
  const data::Dataset all = generator.generate(0, 200);
  std::vector<core::InductionResult> results(3);
  mp::run_ranks(3, kZero, [&](mp::Comm& comm) {
    const data::Dataset block =
        comm.rank() == 1 ? all : data::Dataset(generator.schema());
    const std::int64_t first_rid = comm.rank() <= 1 ? 0 : 200;
    results[static_cast<std::size_t>(comm.rank())] =
        core::ScalParC::fit_rank(comm, block, first_rid, 200, {});
  });
  const core::DecisionTree reference = core::ScalParC::fit(all, 1).tree;
  for (const auto& result : results) {
    EXPECT_TRUE(reference.same_structure(result.tree));
  }
}

// ---------------------------------------------------------------------------
// Full option-matrix invariance sweep.
// ---------------------------------------------------------------------------

struct OptionCase {
  core::SplitCriterion criterion;
  core::CategoricalSplit categorical;
  core::SplittingStrategy strategy;
  core::CategoricalReduction reduction;
  const char* name;
};

// Prints the case name instead of raw bytes (see PrintTo in test_induction.cpp).
void PrintTo(const OptionCase& c, std::ostream* os) { *os << c.name; }

class OptionMatrix : public ::testing::TestWithParam<OptionCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllCombos, OptionMatrix,
    ::testing::Values(
        OptionCase{core::SplitCriterion::kGini, core::CategoricalSplit::kMultiWay,
                   core::SplittingStrategy::kDistributedHash,
                   core::CategoricalReduction::kCoordinator, "gini_multi_dist_coord"},
        OptionCase{core::SplitCriterion::kGini, core::CategoricalSplit::kMultiWay,
                   core::SplittingStrategy::kReplicatedHash,
                   core::CategoricalReduction::kAllRanks, "gini_multi_repl_all"},
        OptionCase{core::SplitCriterion::kGini, core::CategoricalSplit::kBinarySubset,
                   core::SplittingStrategy::kDistributedHash,
                   core::CategoricalReduction::kAllRanks, "gini_subset_dist_all"},
        OptionCase{core::SplitCriterion::kEntropy, core::CategoricalSplit::kMultiWay,
                   core::SplittingStrategy::kDistributedHash,
                   core::CategoricalReduction::kCoordinator, "entropy_multi_dist_coord"},
        OptionCase{core::SplitCriterion::kEntropy, core::CategoricalSplit::kBinarySubset,
                   core::SplittingStrategy::kReplicatedHash,
                   core::CategoricalReduction::kCoordinator, "entropy_subset_repl_coord"},
        OptionCase{core::SplitCriterion::kEntropy, core::CategoricalSplit::kBinarySubset,
                   core::SplittingStrategy::kDistributedHash,
                   core::CategoricalReduction::kAllRanks, "entropy_subset_dist_all"}),
    [](const ::testing::TestParamInfo<OptionCase>& info) {
      return info.param.name;
    });

TEST_P(OptionMatrix, PInvarianceAndOracleAgreement) {
  const OptionCase& params = GetParam();
  data::GeneratorConfig config;
  config.seed = 67;
  config.function = data::LabelFunction::kF3;  // splits on a categorical
  config.num_attributes = 9;
  config.label_noise = 0.03;
  const data::QuestGenerator generator(config);
  const data::Dataset training = generator.generate(0, 350);

  core::InductionControls controls;
  controls.options.max_depth = 8;
  controls.options.criterion = params.criterion;
  controls.options.categorical_split = params.categorical;
  controls.options.categorical_reduction = params.reduction;
  controls.strategy = params.strategy;

  const core::DecisionTree serial =
      sprint::fit_serial_sprint(training, controls.options);
  for (const int p : {1, 3, 6}) {
    const core::DecisionTree tree =
        core::ScalParC::fit(training, p, controls, kZero).tree;
    EXPECT_TRUE(serial.same_structure(tree)) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Damaged checkpoints: truncation, bit flips and parameter mismatches must
// all surface as CheckpointError — never a crash or a silently wrong tree.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string slurp_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void dump_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string tree_text(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

// Shared fixture state: one checkpointed training run, damaged per-test.
// Every case runs once per split mode: the exact and histogram engines each
// write the checkpoint and restore it, and must classify damage alike.
class CheckpointDamage : public ::testing::Test {
 protected:
  void TearDown() override { remove_checkpoint(); }

  // Runs `check` once per split mode, each time against a fresh checkpointed
  // fit by that mode's engine.
  void for_each_mode(const std::function<void()>& check,
                     std::initializer_list<core::SplitMode> modes = {
                         core::SplitMode::kExact,
                         core::SplitMode::kHistogram}) {
    for (const core::SplitMode mode : modes) {
      SCOPED_TRACE(mode == core::SplitMode::kExact ? "exact" : "histogram");
      write_checkpoint(mode);
      check();
      remove_checkpoint();
    }
  }

  core::FitReport resume() {
    return core::ScalParC::resume_from_checkpoint(training_, 2, controls_);
  }

  std::string root_;
  std::string latest_;
  data::Dataset training_{data::Schema({data::Schema::continuous("x")}, 2)};
  core::InductionControls controls_;
  std::string expected_;

 private:
  void write_checkpoint(core::SplitMode mode) {
    root_ = (fs::temp_directory_path() /
             ("scalparc_ckpt_damage_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_id_++)))
                .string();
    data::GeneratorConfig config;
    config.seed = 11;
    training_ = data::QuestGenerator(config).generate(0, 800);
    controls_ = core::InductionControls{};
    controls_.options.max_depth = 4;
    controls_.options.split_mode = mode;
    controls_.checkpoint.directory = root_;
    expected_ =
        tree_text(core::ScalParC::fit(training_, 2, controls_).tree);
    latest_ = core::checkpoint_level_dir(
        root_, *core::checkpoint_latest_level(root_));
  }

  void remove_checkpoint() {
    std::error_code ec;
    if (!root_.empty()) fs::remove_all(root_, ec);
  }

  static inline int next_id_ = 0;
};

TEST_F(CheckpointDamage, IntactCheckpointResumesToIdenticalTree) {
  for_each_mode([&] { EXPECT_EQ(tree_text(resume().tree), expected_); });
}

TEST_F(CheckpointDamage, TruncatedManifestRejected) {
  // A manifest missing its 'end' marker is truncated: the reader must throw
  // and the level scan must stop treating that level as complete. Truncating
  // every level's manifest leaves nothing to resume from.
  for_each_mode([&] {
    const int old_latest = *core::checkpoint_latest_level(root_);
    for (int level = 0; level <= old_latest; ++level) {
      const fs::path manifest =
          fs::path(core::checkpoint_level_dir(root_, level)) / "MANIFEST";
      std::string bytes = slurp_file(manifest);
      ASSERT_NE(bytes.find("end\n"), std::string::npos);
      dump_file(manifest, bytes.substr(0, bytes.rfind("end")));
    }
    EXPECT_THROW(core::checkpoint_read_manifest(latest_),
                 core::CheckpointError);
    EXPECT_FALSE(core::checkpoint_latest_level(root_).has_value());
    EXPECT_THROW(resume(), core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, TruncatedSectionFileRejected) {
  for_each_mode([&] {
    const fs::path section = fs::path(latest_) / "rank0_cont0.bin";
    const std::string bytes = slurp_file(section);
    ASSERT_GT(bytes.size(), 16u);
    dump_file(section, bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(resume(), core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, BitFlippedSectionFileRejected) {
  for_each_mode([&] {
    const fs::path section = fs::path(latest_) / "rank1_cont0.bin";
    std::string bytes = slurp_file(section);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 3] ^= 0x10;  // same size, different content
    dump_file(section, bytes);
    EXPECT_THROW(resume(), core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, BitFlippedTreeFileRejected) {
  for_each_mode([&] {
    const fs::path tree_file = fs::path(latest_) / "tree.txt";
    std::string bytes = slurp_file(tree_file);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x04;
    dump_file(tree_file, bytes);
    EXPECT_THROW(resume(), core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, BitFlippedActiveSetRejected) {
  for_each_mode([&] {
    const fs::path active = fs::path(latest_) / "active.bin";
    std::string bytes = slurp_file(active);
    ASSERT_FALSE(bytes.empty());
    bytes[0] ^= 0x01;
    dump_file(active, bytes);
    EXPECT_THROW(resume(), core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, MismatchedOptionsRejected) {
  for_each_mode([&] {
    controls_.options.max_depth = 9;  // changes the fingerprint
    EXPECT_THROW(resume(), core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, MismatchedRankCountRejected) {
  for_each_mode([&] {
    EXPECT_THROW(
        core::ScalParC::resume_from_checkpoint(training_, 4, controls_),
        core::CheckpointError);
  });
}

TEST_F(CheckpointDamage, DamagedLatestLevelFallsBackToEarlierOne) {
  // Destroy the newest level's manifest; the resume scan must skip it and
  // restore the next-newest complete checkpoint, still reproducing the tree.
  for_each_mode([&] {
    const int damaged = *core::checkpoint_latest_level(root_);
    ASSERT_GT(damaged, 0);
    dump_file(fs::path(latest_) / "MANIFEST", "scalparc-ckpt v1\nlevel ");
    ASSERT_EQ(*core::checkpoint_latest_level(root_), damaged - 1);
    EXPECT_EQ(tree_text(resume().tree), expected_);
  });
}

// Segment offsets that disagree with their section but carry a valid CRC:
// the damage passes every byte-level check, so the restore's own
// consistency check must classify it as corruption. Recovery then drops the
// damaged level and completes from the one before it, instead of retrying
// the same level until its retries run out.
// Rewrites rank 0's section `name` in checkpoint level `dir` through
// `edit` and re-stamps its CRC, so only the restore's own checks can
// notice.
void edit_section(const std::string& dir, const std::string& name,
                  const std::function<void(std::string&)>& edit) {
  const fs::path path = fs::path(dir) / ("rank0_" + name + ".bin");
  std::string bytes = slurp_file(path);
  edit(bytes);
  dump_file(path, bytes);
  std::vector<core::detail::SectionInfo> sections =
      core::detail::read_rank_manifest(dir, 0);
  for (core::detail::SectionInfo& section : sections) {
    if (section.name == name) {
      section.crc = util::crc32(bytes.data(), bytes.size());
    }
  }
  core::detail::write_rank_manifest(dir, 0, sections);
}

TEST_F(CheckpointDamage, InconsistentOffsetsWithValidCrcAreCorrupt) {
  for_each_mode([&] {
    edit_section(latest_, "cont0_off", [](std::string& bytes) {
      ASSERT_GE(bytes.size(), sizeof(std::uint64_t));
      std::uint64_t last = 0;
      std::memcpy(&last, bytes.data() + bytes.size() - sizeof(last),
                  sizeof(last));
      ++last;
      std::memcpy(bytes.data() + bytes.size() - sizeof(last), &last,
                  sizeof(last));
    });

    EXPECT_THROW(resume(), core::CheckpointCorruptError);
    core::InductionControls elastic = controls_;
    elastic.checkpoint.allow_repartition = true;
    EXPECT_THROW(core::ScalParC::resume_from_checkpoint(training_, 3, elastic),
                 core::CheckpointCorruptError);

    core::InductionControls resuming = controls_;
    resuming.checkpoint.resume = true;
    const core::RecoveryReport report = core::ScalParC::fit_with_recovery(
        training_, 2, resuming, core::RecoveryControls{});
    EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(tree_text(report.fit.tree), expected_);
  });
}

// Replaces the line of text file `path` that starts with `key` and a space.
void replace_line(const fs::path& path, const std::string& key,
                  const std::string& line) {
  std::string text = slurp_file(path);
  const std::size_t begin = text.find("\n" + key + " ");
  ASSERT_NE(begin, std::string::npos) << key;
  const std::size_t end = text.find('\n', begin + 1);
  text.replace(begin + 1, end - begin - 1, line);
  dump_file(path, text);
}

// Counts a manifest gives but the files cannot hold. 2^61 records of 24
// bytes (a continuous entry) or 8 bytes (an active-set value) wrap to 0,
// so a product check would match an empty file; 2^61 section lines would
// size a vector before the first one is read. Each must be classified as
// corruption before anything is allocated from it, and recovery must then
// drop the damaged level instead of retrying it until its retries run out.
TEST_F(CheckpointDamage, HugeCountsAreCorrupt) {
  const std::string huge = std::to_string(std::uint64_t{1} << 61);
  const auto expect_corrupt_then_recovered = [&] {
    EXPECT_THROW(resume(), core::CheckpointCorruptError);
    core::InductionControls resuming = controls_;
    resuming.checkpoint.resume = true;
    const core::RecoveryReport report = core::ScalParC::fit_with_recovery(
        training_, 2, resuming, core::RecoveryControls{});
    EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(tree_text(report.fit.tree), expected_);
  };
  for_each_mode([&] {
    SCOPED_TRACE("section records");
    dump_file(fs::path(latest_) / "rank0_cont0.bin", "");
    replace_line(fs::path(latest_) / "rank0.manifest", "section cont0",
                 "section cont0 " + huge + " 0 0");
    expect_corrupt_then_recovered();
  });
  for_each_mode([&] {
    SCOPED_TRACE("active set");
    dump_file(fs::path(latest_) / "active.bin", "");
    replace_line(fs::path(latest_) / "MANIFEST", "active",
                 "active " + huge + " 0");
    expect_corrupt_then_recovered();
  });
  for_each_mode([&] {
    SCOPED_TRACE("section lines");
    replace_line(fs::path(latest_) / "rank0.manifest", "sections",
                 "sections " + huge);
    expect_corrupt_then_recovered();
  });
}

// A record id outside the training set with a valid CRC. The histogram
// engine routes every restored record to the rank owning it, so the id must
// be checked before it picks a destination. (The exact engine keeps the id
// in its lists until the node table checks it.)
TEST_F(CheckpointDamage, OutOfRangeRidWithValidCrcIsCorrupt) {
  for_each_mode(
      [&] {
        edit_section(latest_, "cont0", [](std::string& bytes) {
          data::ContinuousEntry entry;
          ASSERT_GE(bytes.size(), sizeof(entry));
          std::memcpy(&entry, bytes.data(), sizeof(entry));
          entry.rid += 1 << 20;
          std::memcpy(bytes.data(), &entry, sizeof(entry));
        });
        EXPECT_THROW(resume(), core::CheckpointCorruptError);
      },
      {core::SplitMode::kHistogram});
}

// Fuzz: flip one random byte anywhere in the newest checkpoint; a resume
// must either reject the damage with CheckpointError or — when the flip
// lands in a file the restore path does not read — still produce the exact
// fault-free tree. A wrong tree or any other escape fails the test.
TEST_F(CheckpointDamage, ByteFlipFuzzNeverSilentlyWrong) {
  for_each_mode([&] {
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(latest_)) {
      if (entry.is_regular_file() && entry.file_size() > 0) {
        files.push_back(entry.path());
      }
    }
    ASSERT_FALSE(files.empty());
    util::Rng rng(20240806);
    int rejected = 0;
    for (int trial = 0; trial < 60; ++trial) {
      const fs::path& target = files[rng.next_below(files.size())];
      const std::string original = slurp_file(target);
      std::string mutated = original;
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<char>(1 << rng.next_below(8));
      dump_file(target, mutated);
      try {
        EXPECT_EQ(tree_text(resume().tree), expected_) << target;
      } catch (const core::CheckpointError&) {
        ++rejected;
      }
      dump_file(target, original);
    }
    EXPECT_GT(rejected, 0);
  });
}

}  // namespace
}  // namespace scalparc
