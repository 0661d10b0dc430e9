// Internals shared by the two induction engines: the exact ScalParC engine
// over sorted attribute lists (induction.cpp) and the histogram-quantized
// PV-Tree engine over a horizontal record partition
// (histogram_induction.cpp). Both produce the same tree/checkpoint
// artifacts, so the frontier bookkeeping, the SPMD/checkpoint fingerprint
// and the per-level tree growth live here and cannot drift apart.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/options.hpp"
#include "core/split_finder.hpp"
#include "core/tree.hpp"
#include "data/schema.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "util/trace.hpp"

namespace scalparc::core::internal {

struct ActiveNode {
  int tree_id = -1;
  int depth = 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> class_totals;
};

inline std::int32_t majority_class(std::span<const std::int64_t> counts) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < counts.size(); ++j) {
    if (counts[j] > counts[best]) best = j;
  }
  return static_cast<std::int32_t>(best);
}

inline bool is_pure(std::span<const std::int64_t> counts) {
  int non_zero = 0;
  for (const std::int64_t c : counts) non_zero += c > 0;
  return non_zero <= 1;
}

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

// SPMD argument-consistency / checkpoint-compatibility fingerprint (FNV-1a
// over total, schema and the tree-shaping options). The split-mode trio
// (split_mode/hist_bins/top_k) is deliberately excluded: every mode
// consumes and produces the same checkpoint format, so a checkpoint written
// under one mode resumes under any other.
inline std::uint64_t induction_fingerprint(const data::Schema& schema,
                                           std::uint64_t total_records,
                                           const InductionOptions& options,
                                           SplittingStrategy strategy) {
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  const auto mix = [&fp](std::uint64_t v) {
    fp = (fp ^ v) * 0x100000001b3ULL;
  };
  mix(total_records);
  mix(static_cast<std::uint64_t>(schema.num_classes()));
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const data::AttributeInfo& info = schema.attribute(a);
    mix(static_cast<std::uint64_t>(info.kind));
    mix(static_cast<std::uint64_t>(info.cardinality));
    for (const char ch : info.name) mix(static_cast<std::uint64_t>(ch));
  }
  mix(static_cast<std::uint64_t>(options.max_depth));
  mix(static_cast<std::uint64_t>(options.min_split_records));
  mix(static_cast<std::uint64_t>(options.criterion));
  mix(static_cast<std::uint64_t>(options.categorical_split));
  mix(static_cast<std::uint64_t>(options.categorical_reduction));
  mix(static_cast<std::uint64_t>(strategy));
  return fp;
}

// A mismatch would otherwise corrupt results silently (e.g. misaligned
// count-matrix reductions), so every engine compares fingerprints up front.
inline void verify_spmd_fingerprint(mp::Comm& comm, std::uint64_t fp) {
  const std::uint64_t lo = mp::allreduce_value(comm, fp, mp::MinOp{});
  const std::uint64_t hi = mp::allreduce_value(comm, fp, mp::MaxOp{});
  if (lo != hi) {
    throw std::invalid_argument(
        "induce_tree_distributed: ranks disagree on schema/options/total");
  }
}

struct LevelGrowth {
  std::vector<ActiveNode> next_active;
  // child_slot_target[i][slot]: index into next_active, or -1 if the child
  // became a leaf.
  std::vector<std::vector<int>> child_slot_target;
};

// Creates the children of every splitting node in the tree (identically on
// every rank — all inputs are global) and builds the next level's active
// set. Shared verbatim by both engines so the splittability rule and child
// ordering cannot diverge.
inline LevelGrowth grow_tree_level(
    DecisionTree& tree, const std::vector<ActiveNode>& active,
    const std::vector<SplitCandidate>& best,
    const std::vector<bool>& will_split, const std::vector<int>& num_children,
    const std::vector<std::vector<std::int32_t>>& value_to_child,
    const std::vector<std::size_t>& kid_offset,
    std::span<const std::int64_t> global_kid_counts, int c,
    const InductionOptions& options) {
  const std::size_t m = active.size();
  LevelGrowth out;
  out.child_slot_target.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    TreeNode& node = tree.node(active[i].tree_id);
    if (!will_split[i]) continue;  // node stays a leaf
    node.is_leaf = false;
    node.split.attribute = best[i].attribute;
    node.split.num_children = num_children[i];
    if (best[i].kind == SplitKind::kContinuous) {
      node.split.kind = data::AttributeKind::kContinuous;
      node.split.threshold = best[i].threshold;
    } else {
      node.split.kind = data::AttributeKind::kCategorical;
      node.split.value_to_child = value_to_child[i];
    }
    out.child_slot_target[i].assign(static_cast<std::size_t>(num_children[i]),
                                    -1);
    for (int slot = 0; slot < num_children[i]; ++slot) {
      const std::span<const std::int64_t> counts =
          global_kid_counts.subspan(
              kid_offset[i] +
                  static_cast<std::size_t>(slot) * static_cast<std::size_t>(c),
              static_cast<std::size_t>(c));
      TreeNode child;
      child.is_leaf = true;
      child.class_counts.assign(counts.begin(), counts.end());
      child.num_records =
          std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
      child.majority_class = majority_class(counts);
      child.depth = active[i].depth + 1;
      const int child_id = tree.add_node(std::move(child));
      tree.node(active[i].tree_id).children.push_back(child_id);
      const TreeNode& stored = tree.node(child_id);
      const bool splittable = !is_pure(stored.class_counts) &&
                              stored.num_records >= options.min_split_records &&
                              stored.depth < options.max_depth;
      if (splittable) {
        ActiveNode next;
        next.tree_id = child_id;
        next.depth = stored.depth;
        next.total = stored.num_records;
        next.class_totals = stored.class_counts;
        out.child_slot_target[i][static_cast<std::size_t>(slot)] =
            static_cast<int>(out.next_active.size());
        out.next_active.push_back(std::move(next));
      }
    }
  }
  return out;
}

}  // namespace scalparc::core::internal
