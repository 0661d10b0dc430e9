// Internals of the level driver (level_driver.cpp) and the two induction
// engines it runs: the exact ScalParC engine over sorted attribute lists
// (induction.cpp) and the histogram-quantized PV-Tree engine over a
// horizontal record partition (histogram_induction.cpp).
//
// The driver owns the breadth-first level loop and everything that does not
// depend on how an engine lays out its records: option and resume checks,
// the SPMD fingerprint, the root node, the checkpoint manifest/tree/active
// set and the write protocol, the closing min-allreduce of FindSplit II, the
// split decision, the child class-count round, tree growth, level stats and
// telemetry, and the categorical value -> child mapping round. An engine
// supplies only the per-record work, through the InductionEngine interface
// below, a fixed number of calls per level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/induction.hpp"
#include "core/split_finder.hpp"
#include "data/dataset.hpp"
#include "data/schema.hpp"
#include "mp/comm.hpp"
#include "util/trace.hpp"

namespace scalparc::core::internal {

struct ActiveNode {
  int tree_id = -1;
  int depth = 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> class_totals;
};

// Phase span carrying both clocks: wall time from the TraceScope itself and
// the modeled virtual clock sampled at construction/destruction. The phase
// spans tile every vtime-advancing statement of the induction, so a trace's
// per-rank vtime deltas sum to InductionStats::total_seconds.
class PhaseSpan {
 public:
  PhaseSpan(mp::Comm& comm, const char* name, int level = -1,
            std::int64_t nodes = -1, std::int64_t records = -1)
      : comm_(comm), scope_(name, level, nodes, records) {
    scope_.set_begin_vtime(comm.vtime());
    // Every phase boundary advances this rank's gray-failure progress
    // watermark (no-op unless health monitoring is on): the spans are SPMD,
    // so the Hub can compare watermarks across ranks to tell slow from
    // stuck.
    comm.publish_watermark(level);
  }
  ~PhaseSpan() { scope_.set_end_vtime(comm_.vtime()); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  void set_bytes(std::int64_t bytes) { scope_.set_bytes(bytes); }

 private:
  mp::Comm& comm_;
  util::TraceScope scope_;
};

// One level of the loop as the driver hands it to an engine. The split
// decision fills in phase order: the engine's find_splits writes this
// rank's candidates into `best`, the driver min-reduces them, sets
// `will_split`, fills `value_to_child` from the engine's merged categorical
// matrices and sets `kid_offset`: node i's (child, class) counts fill
// [kid_offset[i], kid_offset[i + 1]).
class Level {
 public:
  Level(mp::Comm& comm, int index, const std::vector<ActiveNode>& active);

  // Closes the open phase span and opens `name`, stamped with this level's
  // index and its node and record counts.
  void phase(const char* name);
  // Bytes attributed to the open span.
  void set_bytes(std::int64_t bytes) { span_->set_bytes(bytes); }
  void close() { span_.reset(); }

  const int index;
  const std::vector<ActiveNode>& active;
  const std::size_t m;       // active nodes
  std::int64_t records = 0;  // records under them, over all ranks
  std::vector<SplitCandidate> best;
  std::vector<bool> will_split;
  std::vector<std::vector<std::int32_t>> value_to_child;
  std::vector<std::size_t> kid_offset;

 private:
  mp::Comm& comm_;
  std::optional<PhaseSpan> span_;
};

// The next level's frontier after the driver grew the tree.
struct LevelGrowth {
  std::vector<ActiveNode> next_active;
  // child_slot_target[i][slot]: index into next_active, or -1 if the child
  // became a leaf.
  std::vector<std::vector<int>> child_slot_target;
};

// What an engine supplies: the steps that depend on its record layout.
// Every call is collective.
class InductionEngine {
 public:
  virtual ~InductionEngine() = default;

  // Setup of a fresh run: the local state of the root level (every record
  // under active node 0) from this rank's block of the training set.
  virtual void build(const data::Dataset& local_block,
                     std::int64_t first_rid) = 0;
  // Setup of a resume: the local state of the checkpointed level, whose
  // `num_active` active nodes the driver has already restored. Integrity
  // failures throw CheckpointCorruptError.
  virtual void restore(const std::string& level_dir,
                       const CheckpointManifest& manifest,
                       std::size_t num_active) = 0;
  // This rank's attribute-list sections of the level about to run (the
  // shared on-disk format, so either engine restores them).
  virtual void write_checkpoint(CheckpointRankWriter& writer,
                                std::size_t num_active) = 0;

  // FindSplit I and II up to this rank's best candidate per active node.
  virtual void find_splits(Level& level) = 0;
  // For node i, which splits on the categorical attribute of level.best[i]:
  // the rank holding its merged count matrix of that attribute after
  // find_splits, or -1 when every rank holds it.
  virtual int categorical_holder(const Level& level, std::size_t i) const = 0;
  // That matrix, on a rank that holds it.
  virtual CountMatrix categorical_matrix(const Level& level,
                                         std::size_t i) const = 0;
  // PerformSplit I: assigns a child to every local record of a splitting
  // node and counts them by (node, child, class) into `kid_counts` (zeroed,
  // laid out by level.kid_offset).
  virtual void perform_split_i(Level& level,
                               std::span<std::int64_t> kid_counts) = 0;
  // PerformSplit II, after the tree has grown: regroups the local state by
  // the next level's active nodes.
  virtual void perform_split_ii(Level& level, const LevelGrowth& growth) = 0;

  // Engine-only run totals for the bound metrics sink.
  virtual void absorb_metrics(mp::MetricsSnapshot& /*sink*/) const {}
};

// Engine-only option checks throw std::invalid_argument here.
std::unique_ptr<InductionEngine> make_exact_engine(
    mp::Comm& comm, const data::Schema& schema, std::uint64_t total_records,
    const InductionControls& controls);
std::unique_ptr<InductionEngine> make_histogram_engine(
    mp::Comm& comm, const data::Schema& schema, std::uint64_t total_records,
    const InductionControls& controls);

}  // namespace scalparc::core::internal
