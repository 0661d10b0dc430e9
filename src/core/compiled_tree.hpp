// Compiled flat-tree inference engine.
//
// The fit path produces a `DecisionTree` of heap-allocated `TreeNode`s —
// fine for induction, where every node is visited once per level, but wrong
// for serving: a per-row recursive walk chases a pointer (plus two
// bounds-checked `std::vector` indirections) per depth step, so the memory
// system sees a dependent random access chain per record.
//
// `CompiledTree` lowers a trained tree into fixed-width SoA node arrays laid
// out breadth-first (siblings adjacent, children of one node contiguous), so
// a batch of records descends through a cache-linear table:
//
//   attr_[n]        column slot whose value this node tests
//   threshold_[n]   continuous split point (+inf for leaves)
//   child_base_[n]  flat id of the first child (leaves: self)
//   label_[n]       majority class (the prediction if evaluation stops here)
//
// Categorical `value_to_child` tables live in a side arena of *absolute*
// flat node ids (`cat_arena_`), one extra slot per table for the
// unseen-value fallback, which points at a synthesized fallback leaf
// carrying the node's majority class. Leaves are *absorbing*: their
// threshold is +inf and they test a dedicated all-zeros scratch lane, so
// `0 < +inf` self-loops them without any per-row "done?" branch.
//
// Evaluation is batched: all in-flight rows advance one depth step per
// sweep with the branchless update
//
//   next = child_base[n] + (value < threshold[n] ? 0 : 1)
//
// (categorical nodes index their arena table instead). After `depth()`
// sweeps every row sits on a leaf and the labels are gathered in one pass —
// the same linear-scan / no-pointer-chase technique as the gini scan
// kernel. Results are row-for-row identical to
// `DecisionTree::predict`, including the unseen-categorical fallback;
// tests/test_predict.cpp keeps the recursive walk as the differential
// oracle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/tree.hpp"
#include "data/dataset.hpp"
#include "data/schema.hpp"

namespace scalparc::core {

class CompiledTree {
 public:
  // Rows in flight per sweep: bounds the working set (cursor array + zero
  // lane) so a batch of any size streams through the cache.
  static constexpr std::size_t kChunk = 1024;

  CompiledTree() = default;

  // Lowers `tree` (which must be non-empty) into the flat form. The source
  // tree is not retained.
  static CompiledTree compile(const DecisionTree& tree);

  const data::Schema& schema() const { return schema_; }
  bool empty() const { return attr_.empty(); }
  // Flat node count: source nodes plus one synthesized fallback leaf per
  // categorical split.
  int num_nodes() const { return static_cast<int>(attr_.size()); }
  int source_nodes() const { return source_nodes_; }
  // Depth sweeps a batch executes (max leaf depth in the flat layout).
  int depth() const { return depth_; }
  // True when no internal node splits on a categorical attribute: the batch
  // evaluator runs its fully branchless continuous kernel.
  bool all_continuous() const { return all_continuous_; }
  std::size_t payload_bytes() const;

  // Predicts rows [begin, end) of `dataset` (same schema as the model) into
  // `out` (size end - begin). Record batch telemetry goes to the calling
  // thread's metrics sink when one is bound: predict.batches /
  // predict.records counters and the predict.depth histogram.
  void predict_batch(const data::Dataset& dataset, std::size_t begin,
                     std::size_t end, std::span<std::int32_t> out) const;

  // Convenience: all rows of `dataset`.
  std::vector<std::int32_t> predict_all(const data::Dataset& dataset) const;

  // Single-row evaluation over the flat arrays (no batch state); identical
  // to DecisionTree::predict on the source tree.
  std::int32_t predict(const data::Dataset& dataset, std::size_t row) const;

 private:
  void advance_continuous(std::span<std::int32_t> cur,
                          std::span<const double* const> cont,
                          std::size_t rows) const;
  void advance_mixed(std::span<std::int32_t> cur,
                     std::span<const double* const> cont,
                     std::span<const std::int32_t* const> cat,
                     std::size_t rows) const;

  data::Schema schema_;
  int depth_ = 0;
  int source_nodes_ = 0;
  bool all_continuous_ = true;

  // Fixed-width SoA node records (breadth-first ids).
  std::vector<std::int32_t> attr_;        // eval-table column slot
  std::vector<double> threshold_;         // +inf for leaves / categorical
  std::vector<std::int32_t> child_base_;  // first child id; self for leaves
  std::vector<std::int32_t> label_;       // majority class
  std::vector<std::int8_t> is_cat_;       // 1: categorical split
  std::vector<std::int32_t> cat_offset_;  // arena offset (-1 otherwise)
  std::vector<std::int32_t> cat_card_;    // table width (sans fallback slot)

  // Side arena: per categorical node, cardinality+1 absolute flat node ids;
  // slot [cardinality] (and every value unseen during training) routes to
  // the node's fallback leaf.
  std::vector<std::int32_t> cat_arena_;
};

// Hot-swappable handle to the model a scoring loop serves. Readers take a
// shared_ptr snapshot per batch (`get`), so an atomic `swap` to a newly
// trained snapshot never invalidates an in-flight batch: rows being scored
// finish on the old model, the next batch picks up the new one, and the old
// compiled tree is freed when its last in-flight batch drops the reference.
class ModelHandle {
 public:
  ModelHandle() = default;
  explicit ModelHandle(std::shared_ptr<const CompiledTree> model)
      : model_(std::move(model)) {}

  std::shared_ptr<const CompiledTree> get() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return model_;
  }

  // Atomically publishes `next`; bumps the swap counter and, when a metrics
  // sink is bound, the predict.swaps counter.
  void swap(std::shared_ptr<const CompiledTree> next);

  std::uint64_t swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const CompiledTree> model_;
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace scalparc::core
