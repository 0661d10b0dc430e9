// The exact ScalParC engine (§4): globally sorted attribute lists, a
// parallel prefix per continuous list, coordinator-reduced categorical
// count matrices and a distributed node table for the splitting phase. The
// level loop around it is core/level_driver.cpp.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/elastic_restore.hpp"
#include "core/gini.hpp"
#include "core/induction_internal.hpp"
#include "core/node_table.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "data/attribute_list.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"

namespace scalparc::core {

namespace {

using data::AttributeKind;
using data::CategoricalColumns;
using data::CategoricalEntry;
using data::ContinuousColumns;
using data::ContinuousEntry;
using internal::Level;

// Element for the boundary exscan in FindSplitII: the last attribute value
// of a node's segment on each rank; combine keeps the rightmost non-empty.
struct Boundary {
  double value = 0.0;
  std::uint8_t has = 0;
};

struct RightmostOp {
  Boundary operator()(const Boundary& left, const Boundary& right) const {
    return right.has != 0 ? right : left;
  }
};

// `cols` holds the local fragment of one attribute list as separate
// value/rid/class columns. `cols_next` is the regroup double-buffer:
// PerformSplitII writes the next level's grouping into it and swaps, so its
// vectors' capacity is reused and steady-state levels allocate nothing.
template <typename Columns, typename SectionEntry>
struct ListFragment {
  using Entry = SectionEntry;  // checkpoint section element
  int attribute = -1;
  Columns cols;
  Columns cols_next;
  std::vector<std::size_t> offsets;  // per-active-node segment bounds
  std::vector<std::int32_t> child;   // per-entry child slot (split phases)
  util::ScopedAllocation mem;
};

using ContList = ListFragment<ContinuousColumns, ContinuousEntry>;

struct CatList : ListFragment<CategoricalColumns, CategoricalEntry> {
  std::int32_t cardinality = 0;
  int coordinator = 0;  // rank that reduces/owns this attribute's matrices
};

// Wire element of the replicated rid -> child mapping (the SPRINT baseline,
// SplittingStrategy::kReplicatedHash).
struct ReplicatedUpdate {
  std::int64_t rid = 0;
  std::int32_t child = 0;
  std::int32_t pad = 0;
};

class ExactEngine final : public internal::InductionEngine {
 public:
  ExactEngine(mp::Comm& comm, const data::Schema& schema,
              std::uint64_t total_records, const InductionControls& controls)
      : comm_(comm),
        controls_(controls),
        options_(controls.options),
        total_records_(total_records),
        c_(static_cast<std::size_t>(schema.num_classes())),
        replicated_(controls.strategy == SplittingStrategy::kReplicatedHash),
        batch_(comm) {
    if (options_.node_table_update_block < 0) {
      throw std::invalid_argument(
          "induce_tree_distributed: node_table_update_block must be >= 0");
    }
    for (int a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).kind == AttributeKind::kContinuous) {
        ContList list;
        list.attribute = a;
        cont_lists_.push_back(std::move(list));
      } else {
        CatList list;
        list.attribute = a;
        list.cardinality = schema.attribute(a).cardinality;
        list.coordinator = a % comm.size();
        cat_lists_.push_back(std::move(list));
      }
    }
  }

  void build(const data::Dataset& local_block,
             std::int64_t first_rid) override {
    // Presort: sample sort every continuous list, then shift back to equal
    // fragments so per-rank load stays balanced.
    const std::vector<std::size_t> equal_sizes =
        sort::equal_partition_sizes(total_records_, comm_.size());
    for (ContList& list : cont_lists_) {
      list.cols = sort::sample_sort_columns(
          comm_, data::build_continuous_columns(local_block, list.attribute,
                                                first_rid));
      list.cols =
          sort::rebalance_columns(comm_, std::move(list.cols), equal_sizes);
      meter(list);
      list.offsets = {0, list.cols.size()};
    }
    for (CatList& list : cat_lists_) {
      list.cols = data::build_categorical_columns(local_block, list.attribute,
                                                  first_rid);
      meter(list);
      list.offsets = {0, list.cols.size()};
    }
    start_levels();
  }

  void restore(const std::string& level_dir,
               const CheckpointManifest& manifest,
               std::size_t num_active) override {
    // Same world: every rank reloads its own partitions. Shrink/grow or
    // weighted: repartition every list written by manifest.ranks ranks
    // across the current world, preserving each node's globally sorted
    // segment (see core/elastic_restore.hpp; uniform or absent weights give
    // the canonical tiling). The node table is rebuilt for the current world
    // every run, so its shard moves implicitly.
    std::optional<CheckpointRankReader> reader;
    if (manifest.ranks == comm_.size() && !controls_.checkpoint.weighted()) {
      reader.emplace(level_dir, comm_.rank());
    }
    for_each_list([&](auto& list, const std::string& tag) {
      using Entry = typename std::decay_t<decltype(list)>::Entry;
      RestoredList<Entry> restored =
          reader ? read_list_section<Entry>(*reader, tag, num_active)
                 : elastic_restore_list<Entry>(
                       comm_, level_dir, manifest.ranks, tag, num_active,
                       controls_.checkpoint.rank_weights);
      // Checkpoint sections are entry arrays (the on-disk format); convert
      // to columns on the way in.
      list.offsets = std::move(restored.offsets);
      list.cols =
          data::columns_from_entries(std::span<const Entry>(restored.entries));
      meter(list);
    });
    start_levels();
  }

  void write_checkpoint(CheckpointRankWriter& writer,
                        std::size_t /*num_active*/) override {
    // Checkpoint sections are entry arrays (the on-disk format); the
    // columns are widened into scratch buffers at write time.
    for_each_list([&](const auto& list, const std::string& tag) {
      using Entry = typename std::decay_t<decltype(list)>::Entry;
      std::vector<Entry>& entries = std::get<std::vector<Entry>>(ckpt_entries_);
      data::entries_from_columns(list.cols, entries);
      writer.write_section<Entry>(tag, entries);
      ckpt_offsets_scratch_.assign(list.offsets.begin(), list.offsets.end());
      writer.write_section<std::uint64_t>(tag + "_off", ckpt_offsets_scratch_);
    });
  }

  void find_splits(Level& level) override;
  int categorical_holder(const Level& level, std::size_t i) const override {
    return options_.categorical_reduction == CategoricalReduction::kAllRanks
               ? -1
               : cat_lists_[cat_index_of(level.best[i].attribute)].coordinator;
  }
  CountMatrix categorical_matrix(const Level& level,
                                 std::size_t i) const override {
    return matrix_of(cat_index_of(level.best[i].attribute), i);
  }
  void perform_split_i(Level& level,
                       std::span<std::int64_t> kid_counts) override;
  void perform_split_ii(Level& level,
                        const internal::LevelGrowth& growth) override;

 private:
  // Calls f(list, checkpoint tag) for every list: continuous ones first,
  // then categorical, each in schema order.
  template <typename F>
  void for_each_list(F&& f) {
    for (std::size_t li = 0; li < cont_lists_.size(); ++li) {
      f(cont_lists_[li], "cont" + std::to_string(li));
    }
    for (std::size_t li = 0; li < cat_lists_.size(); ++li) {
      f(cat_lists_[li], "cat" + std::to_string(li));
    }
  }

  std::size_t cat_index_of(int attribute) const {
    for (std::size_t li = 0; li < cat_lists_.size(); ++li) {
      if (cat_lists_[li].attribute == attribute) return li;
    }
    throw std::logic_error("induction: no categorical list for attribute " +
                           std::to_string(attribute));
  }

  // Node i's global count matrix of categorical list li, read in place from
  // the level's merged segment on a rank holding it: the attribute's
  // coordinator or, with kAllRanks, every rank.
  CountMatrix matrix_of(std::size_t li, std::size_t i) const {
    const CatList& list = cat_lists_[li];
    const auto card = static_cast<std::size_t>(list.cardinality);
    return CountMatrix::from_flat(
        list.cardinality, static_cast<int>(c_),
        batch_.view<std::int64_t>(cat_segs_[li])
            .subspan(i * card * c_, card * c_));
  }

  template <typename List>
  void meter(List& list) {
    list.mem = util::ScopedAllocation(comm_.meter(),
                                      util::MemCategory::kAttributeLists,
                                      list.cols.size_bytes());
  }

  // Splitting-phase state, sized once the lists exist. ScalParC keeps the
  // rid -> child mapping in a distributed node table (O(N/p) per rank); the
  // SPRINT baseline replicates the full mapping on every rank (O(N) per
  // rank).
  void start_levels() {
    if (replicated_) {
      replicated_child_.assign(total_records_, -1);
      replicated_epoch_of_.assign(total_records_, 0);
      replicated_mem_ = util::ScopedAllocation(
          comm_.meter(), util::MemCategory::kNodeTable,
          total_records_ * (sizeof(std::int32_t) + sizeof(std::uint32_t)));
    } else {
      node_table_.emplace(comm_, total_records_);
    }
    const auto p = static_cast<std::uint64_t>(comm_.size());
    update_block_ =
        options_.node_table_update_block == 0
            ? static_cast<std::int64_t>((total_records_ + p - 1) / p)
            : options_.node_table_update_block;
    enquiry_begin_.resize(cont_lists_.size() + cat_lists_.size() + 1);
    cont_count_segs_.resize(cont_lists_.size());
    cont_boundary_segs_.resize(cont_lists_.size());
    cat_segs_.resize(cat_lists_.size());
  }

  // Scatters this level's rid -> child assignments.
  void publish_assignments(std::span<const std::int64_t> rids,
                           std::span<const std::int32_t> children) {
    if (!replicated_) {
      node_table_->begin_level();
      node_table_->update(rids, children, update_block_);
      return;
    }
    ++replicated_epoch_;
    std::vector<ReplicatedUpdate> local(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      local[i] = ReplicatedUpdate{rids[i], children[i], 0};
    }
    const std::vector<ReplicatedUpdate> all = mp::allgatherv_concat(
        comm_, std::span<const ReplicatedUpdate>(local));
    for (const ReplicatedUpdate& u : all) {
      replicated_child_[static_cast<std::size_t>(u.rid)] = u.child;
      replicated_epoch_of_[static_cast<std::size_t>(u.rid)] = replicated_epoch_;
    }
    comm_.add_work(static_cast<double>(local.size() + all.size()));
  }

  // Writes the child slot of rids[i] to children[i].
  void lookup_assignments(std::span<const std::int64_t> rids,
                          std::span<std::int32_t> children) {
    if (!replicated_) {
      node_table_->enquire(rids, children);
      return;
    }
    for (std::size_t i = 0; i < rids.size(); ++i) {
      const auto rid = static_cast<std::size_t>(rids[i]);
      if (replicated_epoch_of_[rid] != replicated_epoch_) {
        throw std::logic_error(
            "induction: record was not assigned a child this level");
      }
      children[i] = replicated_child_[rid];
    }
    comm_.add_work(static_cast<double>(rids.size()));
  }

  mp::Comm& comm_;
  const InductionControls& controls_;
  const InductionOptions& options_;
  const std::uint64_t total_records_;
  const std::size_t c_;
  const bool replicated_;  // SPRINT's replicated mapping, not the node table
  std::vector<ContList> cont_lists_;
  std::vector<CatList> cat_lists_;

  std::optional<NodeTable> node_table_;
  std::vector<std::int32_t> replicated_child_;
  std::vector<std::uint32_t> replicated_epoch_of_;
  std::uint32_t replicated_epoch_ = 0;
  util::ScopedAllocation replicated_mem_;
  std::int64_t update_block_ = 0;

  // Per-level working storage, hoisted out of the level loop so capacity is
  // reused across levels instead of reallocated (the sizes shrink with the
  // active record count, so the first level's allocation usually suffices).
  mp::CollectiveBatch batch_;
  std::vector<std::int64_t> update_rids_;
  std::vector<std::int32_t> update_children_;
  std::vector<std::int64_t> enquiry_scratch_;
  std::vector<std::int32_t> answers_;
  std::vector<std::size_t> enquiry_begin_;
  std::vector<std::uint64_t> ckpt_offsets_scratch_;
  std::tuple<std::vector<ContinuousEntry>, std::vector<CategoricalEntry>>
      ckpt_entries_;
  // PerformSplitII's regroup: the next level's segment bounds of one list
  // (swapped with the list's `offsets`) and the placement cursors.
  std::vector<std::size_t> offsets_next_;
  std::vector<std::size_t> cursors_;
  // Fused-round segment directories (sized by list count, fixed per run).
  std::vector<std::size_t> cont_count_segs_;
  std::vector<std::size_t> cont_boundary_segs_;
  std::vector<std::size_t> cat_segs_;
};

void ExactEngine::find_splits(Level& level) {
  const std::size_t m = level.m;
  const std::size_t c = c_;
  std::vector<SplitCandidate>& best = level.best;

  // Local class counts per (node, class) for one continuous list, into its
  // zeroed segment. The loop touches only the class column (4B/record).
  const auto count_continuous = [&](const ContList& list,
                                    std::span<std::int64_t> local_counts) {
    const std::int32_t* const cls = list.cols.cls.data();
    for (std::size_t i = 0; i < m; ++i) {
      std::int64_t* const row = local_counts.data() + i * c;
      for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
           ++idx) {
        ++row[static_cast<std::size_t>(cls[idx])];
      }
    }
    comm_.add_work(static_cast<double>(list.cols.size()));
  };
  // Boundary values: the last attribute value of each node's segment on
  // any earlier rank, into its empty-filled segment.
  const auto boundaries_of = [&](const ContList& list,
                                 std::span<Boundary> boundary) {
    for (std::size_t i = 0; i < m; ++i) {
      if (list.offsets[i + 1] == list.offsets[i]) continue;
      boundary[i] = Boundary{list.cols.values[list.offsets[i + 1] - 1], 1};
    }
  };
  const auto scan_cont_list = [&](const ContList& list,
                                  std::span<const std::int64_t> below_start,
                                  std::span<const Boundary> prev) {
    for (std::size_t i = 0; i < m; ++i) {
      const auto below = below_start.subspan(i * c, c);
      IncrementalImpurityScanner scanner(level.active[i].class_totals, below,
                                         options_.criterion);
      const std::size_t work = scan_continuous_columns(
          list.cols, list.offsets[i], list.offsets[i + 1], scanner,
          prev[i].has != 0, prev[i].value,
          static_cast<std::int32_t>(list.attribute), best[i]);
      comm_.add_work(static_cast<double>(work));
    }
  };

  {
    // One packed exscan carries every continuous list's count matrices AND
    // boundary elements: 2A collectives fuse into 1.
    level.phase("findsplit_i");
    batch_.reset();
    for (std::size_t li = 0; li < cont_lists_.size(); ++li) {
      cont_count_segs_[li] =
          batch_.place<std::int64_t>(m * c, mp::SumOp{}, std::int64_t{0});
      cont_boundary_segs_[li] =
          batch_.place<Boundary>(m, RightmostOp{}, Boundary{});
    }
    for (std::size_t li = 0; li < cont_lists_.size(); ++li) {
      count_continuous(cont_lists_[li],
                       batch_.segment<std::int64_t>(cont_count_segs_[li]));
      boundaries_of(cont_lists_[li],
                    batch_.segment<Boundary>(cont_boundary_segs_[li]));
    }
    level.set_bytes(static_cast<std::int64_t>(batch_.packed_bytes()));
    util::ScopedAllocation counts_mem(comm_.meter(),
                                      util::MemCategory::kCountMatrices,
                                      2 * batch_.packed_bytes());
    batch_.exscan();
    level.phase("findsplit_ii");
    for (std::size_t li = 0; li < cont_lists_.size(); ++li) {
      scan_cont_list(cont_lists_[li],
                     batch_.view<std::int64_t>(cont_count_segs_[li]),
                     batch_.view<Boundary>(cont_boundary_segs_[li]));
    }
  }

  const bool all_ranks =
      options_.categorical_reduction == CategoricalReduction::kAllRanks;
  // Local count matrices of one categorical list, into its zeroed segment.
  const auto count_categorical = [&](const CatList& list,
                                     std::span<std::int64_t> local_counts) {
    const std::size_t card = static_cast<std::size_t>(list.cardinality);
    const std::int32_t* const values = list.cols.values.data();
    const std::int32_t* const cls = list.cols.cls.data();
    for (std::size_t i = 0; i < m; ++i) {
      std::int64_t* const block = local_counts.data() + i * card * c;
      for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
           ++idx) {
        ++block[static_cast<std::size_t>(values[idx]) * c +
                static_cast<std::size_t>(cls[idx])];
      }
    }
    comm_.add_work(static_cast<double>(list.cols.size()));
  };
  // Evaluates categorical list li's candidates from its merged matrices
  // (callable only where they live: coordinator or, with kAllRanks,
  // everywhere).
  const auto eval_categorical = [&](std::size_t li) {
    for (std::size_t i = 0; i < m; ++i) {
      const SplitCandidate candidate = best_categorical_split(
          matrix_of(li, i), static_cast<std::int32_t>(cat_lists_[li].attribute),
          options_.categorical_split, options_.criterion);
      if (candidate_less(candidate, best[i])) best[i] = candidate;
    }
  };

  // One packed round makes every categorical list's count matrices global:
  // A collectives fuse into 1 (reduce_rooted carries each matrix to its own
  // coordinator; allreduce replicates them all).
  level.phase("findsplit_i");
  batch_.reset();
  for (std::size_t li = 0; li < cat_lists_.size(); ++li) {
    const CatList& list = cat_lists_[li];
    cat_segs_[li] = batch_.place<std::int64_t>(
        m * static_cast<std::size_t>(list.cardinality) * c, mp::SumOp{},
        std::int64_t{0},
        all_ranks ? mp::CollectiveBatch::kFlat : list.coordinator);
  }
  for (std::size_t li = 0; li < cat_lists_.size(); ++li) {
    count_categorical(cat_lists_[li],
                      batch_.segment<std::int64_t>(cat_segs_[li]));
  }
  level.set_bytes(static_cast<std::int64_t>(batch_.packed_bytes()));
  util::ScopedAllocation counts_mem(comm_.meter(),
                                    util::MemCategory::kCountMatrices,
                                    batch_.packed_bytes());
  if (all_ranks) {
    batch_.allreduce();
  } else {
    batch_.reduce_rooted();
  }
  level.phase("findsplit_ii");
  for (std::size_t li = 0; li < cat_lists_.size(); ++li) {
    if (all_ranks || comm_.rank() == cat_lists_[li].coordinator) {
      eval_categorical(li);
    }
  }
}

void ExactEngine::perform_split_i(Level& level,
                                  std::span<std::int64_t> kid_counts) {
  // Assign child slots on the splitting attributes' own lists, collect the
  // node-table updates, and count (node, child, class) locally.
  update_rids_.clear();
  update_children_.clear();
  // Records the assigned slots of one node's segment [off, off + len):
  // node-table updates plus local (node, child, class) counts.
  const auto collect_assigned = [&](const auto& list, std::size_t i,
                                    std::size_t off, std::size_t len) {
    for (std::size_t k = off; k < off + len; ++k) {
      update_rids_.push_back(list.cols.rids[k]);
      update_children_.push_back(list.child[k]);
      ++kid_counts[level.kid_offset[i] +
                   static_cast<std::size_t>(list.child[k]) * c_ +
                   static_cast<std::size_t>(list.cols.cls[k])];
    }
    comm_.add_work(static_cast<double>(len));
  };
  for_each_list([&](auto& list, const std::string&) {
    list.child.assign(list.cols.size(), -1);
    for (std::size_t i = 0; i < level.m; ++i) {
      if (!level.will_split[i] || level.best[i].attribute != list.attribute) {
        continue;
      }
      const std::size_t off = list.offsets[i];
      const std::size_t len = list.offsets[i + 1] - off;
      const std::span<std::int32_t> child(list.child.data() + off, len);
      if constexpr (std::is_same_v<std::decay_t<decltype(list)>, ContList>) {
        assign_children_continuous(
            std::span<const double>(list.cols.values.data() + off, len),
            level.best[i].threshold, child);
      } else {
        assign_children_categorical(
            std::span<const std::int32_t>(list.cols.values.data() + off, len),
            level.value_to_child[i], child);
      }
      collect_assigned(list, i, off, len);
    }
  });
}

void ExactEngine::perform_split_ii(Level& level,
                                   const internal::LevelGrowth& growth) {
  // The node-table scatter of PerformSplitI's assignments closes that phase.
  level.set_bytes(static_cast<std::int64_t>(
      update_rids_.size() * (sizeof(std::int64_t) + sizeof(std::int32_t))));
  publish_assignments(update_rids_, update_children_);
  level.phase("performsplit_ii");

  // For every list: enquire children for segments whose node split on a
  // different attribute, then rebuild the list grouped by the next level's
  // active nodes (dropping records that landed in leaves). Every list's
  // enquiry travels in ONE node-table lookup per level.
  const std::size_t m = level.m;
  const std::size_t next_m = growth.next_active.size();
  const auto collect_enquiry = [&](const auto& list,
                                   std::vector<std::int64_t>& rids) {
    for (std::size_t i = 0; i < m; ++i) {
      // The splitting attribute's own list was assigned in PerformSplitI.
      if (!level.will_split[i] || level.best[i].attribute == list.attribute) {
        continue;
      }
      for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
           ++idx) {
        rids.push_back(list.cols.rids[idx]);
      }
    }
  };
  const auto apply_and_regroup = [&](auto& list,
                                     std::span<const std::int32_t> answers) {
    const std::size_t old_size = list.cols.size();

    // One pass turns every entry of a splitting node into its next-level
    // target, in place in `child`, and counts target t's records into
    // offsets_next_[t + 1]. The child slot comes from PerformSplitI on the
    // splitting attribute's own list and from the node-table answers on the
    // others. The offsets and cursors are hoisted vectors and the records
    // land in the cols_next double-buffer: no heap traffic once capacities
    // have warmed up.
    offsets_next_.assign(next_m + 1, 0);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!level.will_split[i]) continue;
      const std::vector<int>& target_of = growth.child_slot_target[i];
      const std::size_t begin = list.offsets[i];
      const std::size_t end = list.offsets[i + 1];
      const bool assigned = level.best[i].attribute == list.attribute;
      if (!assigned && answers.size() - cursor < end - begin) {
        throw std::logic_error("induction: enquiry answer count mismatch");
      }
      for (std::size_t idx = begin; idx < end; ++idx) {
        const std::int32_t child =
            assigned ? list.child[idx] : answers[cursor++];
        const int target = target_of[static_cast<std::size_t>(child)];
        list.child[idx] = target;
        if (target >= 0) ++offsets_next_[static_cast<std::size_t>(target) + 1];
      }
    }
    if (cursor != answers.size()) {
      throw std::logic_error("induction: enquiry answer count mismatch");
    }

    // Stable grouped placement into the next level's grouping.
    for (std::size_t t = 0; t < next_m; ++t) {
      offsets_next_[t + 1] += offsets_next_[t];
    }
    cursors_.assign(offsets_next_.begin(), offsets_next_.end() - 1);
    list.cols_next.resize(offsets_next_.back());
    for (std::size_t i = 0; i < m; ++i) {
      if (!level.will_split[i]) continue;
      for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
           ++idx) {
        const std::int32_t target = list.child[idx];
        if (target >= 0) {
          list.cols_next.set(cursors_[static_cast<std::size_t>(target)]++,
                             list.cols, idx);
        }
      }
    }
    std::swap(list.cols, list.cols_next);
    std::swap(list.offsets, offsets_next_);
    list.mem.resize(list.cols.size_bytes());
    comm_.add_work(static_cast<double>(old_size));
  };

  enquiry_scratch_.clear();
  std::size_t li = 0;
  for_each_list([&](const auto& list, const std::string&) {
    enquiry_begin_[li++] = enquiry_scratch_.size();
    collect_enquiry(list, enquiry_scratch_);
  });
  enquiry_begin_[li] = enquiry_scratch_.size();
  level.set_bytes(static_cast<std::int64_t>(enquiry_scratch_.size() *
                                            sizeof(std::int64_t)));
  answers_.resize(enquiry_scratch_.size());
  lookup_assignments(enquiry_scratch_, answers_);
  const std::span<const std::int32_t> all(answers_);
  const auto answers_of = [&](std::size_t list_index) {
    return all.subspan(enquiry_begin_[list_index],
                       enquiry_begin_[list_index + 1] -
                           enquiry_begin_[list_index]);
  };
  li = 0;
  for_each_list([&](auto& list, const std::string&) {
    apply_and_regroup(list, answers_of(li++));
  });
}

}  // namespace

std::unique_ptr<internal::InductionEngine> internal::make_exact_engine(
    mp::Comm& comm, const data::Schema& schema, std::uint64_t total_records,
    const InductionControls& controls) {
  return std::make_unique<ExactEngine>(comm, schema, total_records, controls);
}

}  // namespace scalparc::core
