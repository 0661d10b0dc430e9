// Golden-corpus regression suite for both induction engines. A fixed table
// of small in-repo datasets and option variants (exact, histogram and voting
// split modes, plus resumes of one mode's checkpoint under the other) has
// its trees (save_tree text) committed under golden/ at the repository root,
// together with the per-file CRC32 digests of one checkpointed fit per
// engine. Every fixture is refitted at its check processor counts and
// byte-compared with its committed tree, and the checkpointed fits are
// rewritten and their digests compared — a stable, file-based reference that
// costs no production code and pins the on-disk checkpoint format, so a
// checkpoint written by an earlier build still resumes under this one.
//
// The corpus is written by the disabled test at the bottom; regenerate it
// only when a tree or checkpoint change is intended, with one command line:
//
//   ./build/tests/test_golden --gtest_also_run_disabled_tests
//       --gtest_filter='GoldenCorpus.DISABLED_WriteCorpus'
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/gaussian.hpp"
#include "data/synthetic.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "util/crc32.hpp"

#ifndef SCALPARC_GOLDEN_DIR
#error "SCALPARC_GOLDEN_DIR must name the committed corpus directory"
#endif

namespace scalparc {
namespace {

namespace fs = std::filesystem;

using core::InductionControls;
using core::ScalParC;
using data::Schema;

const mp::CostModel kZero = mp::CostModel::zero();
const fs::path kGoldenDir = SCALPARC_GOLDEN_DIR;

// The committed trees were written at p = 2; exact and histogram trees are
// processor-count invariant, so every other count must reproduce them byte
// for byte.
constexpr int kWriterRanks = 2;

// The fixture whose checkpoint files are digested: both list kinds, nine
// levels.
constexpr const char* kCheckpointFixture = "quest_f2_mixed";
constexpr const char* kHistogramCheckpointFixture = "quest_f2_mixed_histogram";

// The digested fits and the files holding their digests.
const std::pair<const char*, const char*> kDigests[] = {
    {kCheckpointFixture, "checkpoint.crc32"},
    {kHistogramCheckpointFixture, "checkpoint_histogram.crc32"},
};

// A cross-mode fixture resumes from the checkpoint of this level, the
// writer's last.
constexpr int kResumeLevel = 3;

struct Fixture {
  std::string name;
  std::function<data::Dataset()> make;
  InductionControls controls;
  // Stem of the committed tree file. A variant whose options must not
  // change the tree (kAllRanks, kReplicatedHash, a small update block)
  // shares its base fixture's file.
  std::string tree;
  // Processor counts the tree is refitted and compared at. Voting mode
  // promises determinism only at a fixed p, so its fixtures check p = 2.
  std::vector<int> check_ranks = {1, 3, 4};
  // Cross-mode resume: a p = 2 fit under these controls checkpoints every
  // level up to kResumeLevel, and `controls` (the other split mode) resumes
  // from it.
  std::optional<InductionControls> checkpoint_from;
};

data::Dataset quest(data::LabelFunction function, int attributes,
                    std::size_t records, double noise, std::uint64_t seed) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.function = function;
  config.num_attributes = attributes;
  config.label_noise = noise;
  return data::QuestGenerator(config).generate(0, records);
}

// Two continuous attributes on a 6 x 5 grid (every value repeats hundreds of
// times) plus a categorical one, three classes, every 17th label flipped.
data::Dataset duplicate_grid() {
  data::Dataset d(Schema({Schema::continuous("x"), Schema::continuous("y"),
                          Schema::categorical("colour", 4)},
                         3));
  for (int i = 0; i < 2000; ++i) {
    const double x = 0.5 * static_cast<double>((i * 7) % 6);
    const double y = static_cast<double>((i * 13) % 5);
    const std::int32_t colour = (i / 3) % 4;
    std::int32_t label = x + y > 4.0 ? (colour == 1 ? 2 : 1) : 0;
    if (i % 17 == 0) label = (label + 1) % 3;
    const double cont[] = {x, y};
    const std::int32_t cat[] = {colour};
    d.append(cont, cat, label);
  }
  return d;
}

// Every record in one class: the root is a leaf.
data::Dataset pure() {
  data::Dataset d(
      Schema({Schema::continuous("x"), Schema::categorical("c", 3)}, 2));
  for (int i = 0; i < 400; ++i) {
    const double cont[] = {static_cast<double>(i % 37)};
    const std::int32_t cat[] = {i % 3};
    d.append(cont, cat, 1);
  }
  return d;
}

// Five records: at p = 4 most ranks hold a single record.
data::Dataset tiny() {
  data::Dataset d(
      Schema({Schema::continuous("x"), Schema::categorical("c", 2)}, 2));
  const double xs[] = {3.0, 1.0, 4.0, 1.0, 5.0};
  const std::int32_t cs[] = {0, 1, 1, 0, 1};
  const std::int32_t labels[] = {0, 1, 1, 0, 1};
  for (int i = 0; i < 5; ++i) {
    d.append(std::span<const double>(&xs[i], 1),
             std::span<const std::int32_t>(&cs[i], 1), labels[i]);
  }
  return d;
}

InductionControls histogram_controls() {
  InductionControls controls;
  controls.options.split_mode = core::SplitMode::kHistogram;
  controls.options.hist_bins = 64;
  return controls;
}

std::vector<Fixture> fixtures() {
  using data::LabelFunction;
  const auto f2 = [] { return quest(LabelFunction::kF2, 7, 1000, 0.02, 3); };
  const auto f6 = [] { return quest(LabelFunction::kF6, 9, 800, 0.0, 11); };
  const auto f7 = [] { return quest(LabelFunction::kF7, 9, 900, 0.0, 4); };

  std::vector<Fixture> out;
  const auto add = [&out](std::string name,
                          std::function<data::Dataset()> make,
                          const std::function<void(InductionControls&)>&
                              configure = nullptr,
                          std::string tree = "") {
    Fixture fixture;
    fixture.tree = tree.empty() ? name : std::move(tree);
    fixture.name = std::move(name);
    fixture.make = std::move(make);
    if (configure) configure(fixture.controls);
    out.push_back(std::move(fixture));
  };

  // Dataset shapes under the default (paper) options.
  add("quest_f2_continuous",
      [] { return quest(LabelFunction::kF2, 3, 2000, 0.02, 7); });
  add(kCheckpointFixture, f2);
  add("quest_f6_mixed", f6);
  add("quest_f7_mixed", f7);
  add("gaussian_multiclass", [] {
    data::GaussianConfig config;
    config.seed = 5;
    config.num_classes = 4;
    config.num_continuous = 4;
    config.num_categorical = 2;
    config.categorical_cardinality = 5;
    config.separation = 1.5;
    return data::GaussianGenerator(config).generate(0, 1500);
  });
  add("duplicate_grid", duplicate_grid);
  add("pure", pure);
  add("tiny", tiny);
  add("max_depth_0", f2,
      [](InductionControls& c) { c.options.max_depth = 0; });

  // Option variants.
  add("f7_subset_entropy", f7, [](InductionControls& c) {
    c.options.categorical_split = core::CategoricalSplit::kBinarySubset;
    c.options.criterion = core::SplitCriterion::kEntropy;
  });
  add("f2_min_gini_improvement", f2,
      [](InductionControls& c) { c.options.min_gini_improvement = 0.01; });
  add(
      "f6_all_ranks", f6,
      [](InductionControls& c) {
        c.options.categorical_reduction = core::CategoricalReduction::kAllRanks;
      },
      "quest_f6_mixed");
  add(
      "f6_replicated_hash", f6,
      [](InductionControls& c) {
        c.strategy = core::SplittingStrategy::kReplicatedHash;
      },
      "quest_f6_mixed");
  add(
      "f2_update_block_7", f2,
      [](InductionControls& c) { c.options.node_table_update_block = 7; },
      kCheckpointFixture);

  // Histogram and voting split modes.
  const auto histogram = [](InductionControls& c) { c = histogram_controls(); };
  add(kHistogramCheckpointFixture, f2, histogram);
  add("quest_f7_mixed_histogram", f7, histogram);
  add("duplicate_grid_histogram", duplicate_grid, histogram);
  add("f7_subset_entropy_histogram", f7, [](InductionControls& c) {
    c = histogram_controls();
    c.options.categorical_split = core::CategoricalSplit::kBinarySubset;
    c.options.criterion = core::SplitCriterion::kEntropy;
  });
  add("quest_f7_mixed_voting", f7, [](InductionControls& c) {
    c = histogram_controls();
    c.options.split_mode = core::SplitMode::kVoting;
    c.options.top_k = 2;
  });
  out.back().check_ranks = {kWriterRanks};

  // Resumes across split modes.
  add("resume_exact_as_histogram", f2, histogram);
  out.back().checkpoint_from = InductionControls{};
  add("resume_histogram_as_exact", f2);
  out.back().checkpoint_from = histogram_controls();
  return out;
}

std::string tree_bytes(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path tree_file(const Fixture& fixture) {
  return kGoldenDir / (fixture.tree + ".tree");
}

struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("scalparc_golden_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter_ = 0;
};

const Fixture& fixture_named(const std::vector<Fixture>& all,
                             const std::string& name) {
  for (const Fixture& fixture : all) {
    if (fixture.name == name) return fixture;
  }
  throw std::logic_error("fixture '" + name + "' missing from the table");
}

// Writes a cross-mode fixture's checkpoint: a p = 2 fit under
// fixture.checkpoint_from, stopped by an injected rank kill right after it
// commits the checkpoint of kResumeLevel.
void write_resume_checkpoint(const Fixture& fixture, const fs::path& dir) {
  InductionControls writer = *fixture.checkpoint_from;
  writer.checkpoint.directory = dir.string();
  mp::FaultPlan stop;
  stop.parse("kill:r=0,level=" + std::to_string(kResumeLevel));
  mp::RunOptions options;
  options.fault_plan = &stop;
  try {
    (void)ScalParC::fit(fixture.make(), kWriterRanks, writer, kZero, options);
  } catch (const mp::InjectedFault&) {
  }
  if (core::checkpoint_latest_level(dir.string()) != kResumeLevel) {
    throw std::logic_error(fixture.name +
                           ": no checkpoint of the resume level");
  }
}

// Fits `fixture` at p ranks. A cross-mode fixture resumes from a copy of
// `checkpoint`, written by write_resume_checkpoint.
core::DecisionTree fit_fixture(const Fixture& fixture, int p,
                               const fs::path& checkpoint = {}) {
  if (!fixture.checkpoint_from) {
    return ScalParC::fit(fixture.make(), p, fixture.controls, kZero).tree;
  }
  TempDir dir;
  fs::copy(checkpoint, dir.path, fs::copy_options::recursive);
  InductionControls resume = fixture.controls;
  resume.checkpoint.directory = dir.path.string();
  resume.checkpoint.allow_repartition = true;
  return ScalParC::resume_from_checkpoint(fixture.make(), p, resume, kZero)
      .tree;
}

// Fits the checkpoint fixture at p = 2 with a checkpoint at every level and
// returns one line per written file, sorted by path:
// "<crc32 hex> <bytes> <path relative to the checkpoint root>".
std::string checkpoint_digests(const Fixture& fixture) {
  TempDir dir;
  InductionControls controls = fixture.controls;
  controls.checkpoint.directory = dir.path.string();
  (void)ScalParC::fit(fixture.make(), kWriterRanks, controls, kZero);
  std::map<std::string, std::string> lines;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (!entry.is_regular_file()) continue;
    const std::string bytes = read_file(entry.path());
    const std::string path =
        fs::relative(entry.path(), dir.path).generic_string();
    std::ostringstream line;
    line << std::hex << std::setw(8) << std::setfill('0')
         << util::crc32(bytes.data(), bytes.size()) << std::dec << ' '
         << bytes.size() << ' ' << path << '\n';
    lines[path] = line.str();
  }
  std::string out;
  for (const auto& [path, line] : lines) out += line;
  return out;
}

TEST(GoldenCorpus, TreesMatchCommittedFilesAtEveryRankCount) {
  for (const Fixture& fixture : fixtures()) {
    const std::string expected = read_file(tree_file(fixture));
    ASSERT_FALSE(expected.empty()) << tree_file(fixture) << " is missing";
    TempDir checkpoint;
    if (fixture.checkpoint_from) {
      write_resume_checkpoint(fixture, checkpoint.path);
    }
    for (const int p : fixture.check_ranks) {
      EXPECT_EQ(tree_bytes(fit_fixture(fixture, p, checkpoint.path)), expected)
          << fixture.name << " p=" << p;
    }
  }
}

TEST(GoldenCorpus, CheckpointDigestsMatchCommittedFile) {
  const std::vector<Fixture> all = fixtures();
  for (const auto& [name, file] : kDigests) {
    const std::string expected = read_file(kGoldenDir / file);
    ASSERT_FALSE(expected.empty()) << kGoldenDir / file << " is missing";
    EXPECT_EQ(checkpoint_digests(fixture_named(all, name)), expected) << file;
  }
}

// Writes the corpus: each base fixture's tree (variants sharing a file are
// checked against it, not written) and the checkpoint digests. Disabled so
// a normal run only ever reads the corpus.
TEST(GoldenCorpus, DISABLED_WriteCorpus) {
  fs::create_directories(kGoldenDir);
  const std::vector<Fixture> all = fixtures();
  for (const Fixture& fixture : all) {
    if (fixture.tree != fixture.name) continue;
    TempDir checkpoint;
    if (fixture.checkpoint_from) {
      write_resume_checkpoint(fixture, checkpoint.path);
    }
    std::ofstream out(tree_file(fixture), std::ios::binary);
    out << tree_bytes(fit_fixture(fixture, kWriterRanks, checkpoint.path));
    ASSERT_TRUE(out.good()) << tree_file(fixture);
  }
  for (const auto& [name, file] : kDigests) {
    std::ofstream out(kGoldenDir / file, std::ios::binary);
    out << checkpoint_digests(fixture_named(all, name));
    ASSERT_TRUE(out.good()) << kGoldenDir / file;
  }
}

}  // namespace
}  // namespace scalparc
