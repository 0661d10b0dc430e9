#include "core/induction.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/elastic_restore.hpp"
#include "core/gini.hpp"
#include "core/histogram_induction.hpp"
#include "core/induction_internal.hpp"
#include "core/node_table.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "data/attribute_list.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "mp/telemetry.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"
#include "util/arena.hpp"
#include "util/trace.hpp"

namespace scalparc::core {

namespace {

using data::AttributeKind;
using data::CategoricalColumns;
using data::CategoricalEntry;
using data::ContinuousColumns;
using data::ContinuousEntry;
using internal::ActiveNode;
using internal::PhaseSpan;
using internal::is_pure;
using internal::majority_class;

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
struct ContList {
  int attribute = -1;
  ContinuousColumns cols;
  ContinuousColumns cols_next;
  std::vector<std::size_t> offsets;  // per-active-node segment bounds
  std::vector<std::int32_t> child;   // per-entry child slot (split phases)
  util::ScopedAllocation mem;
};

struct CatList {
  int attribute = -1;
  std::int32_t cardinality = 0;
  int coordinator = 0;  // rank that reduces/owns this attribute's matrices
  CategoricalColumns cols;
  CategoricalColumns cols_next;
  std::vector<std::size_t> offsets;
  std::vector<std::int32_t> child;
  util::ScopedAllocation mem;
  // Coordinator-only: this level's global count matrices, laid out
  // [active node][value][class].
  std::vector<std::int64_t> global_counts;
};

}  // namespace

InductionResult induce_tree_distributed(mp::Comm& comm,
                                        const data::Dataset& local_block,
                                        std::int64_t first_rid,
                                        std::uint64_t total_records,
                                        const InductionControls& controls) {
  const InductionOptions& options = controls.options;
  const data::Schema& schema = local_block.schema();
  const int p = comm.size();
  const int c = schema.num_classes();

  if (total_records == 0) {
    throw std::invalid_argument("induce_tree_distributed: empty training set");
  }
  // Histogram/voting modes run on a horizontal record partition with their
  // own level loop (same tree/checkpoint artifacts, O(bins) instead of
  // O(N/p) per-level communication).
  if (options.split_mode != SplitMode::kExact) {
    return induce_tree_quantized(comm, local_block, first_rid, total_records,
                                 controls);
  }
  if (options.max_depth < 0 || options.min_split_records < 2 ||
      options.node_table_update_block < 0) {
    throw std::invalid_argument("induce_tree_distributed: bad options");
  }

  const bool resuming = controls.checkpoint.resume;
  const std::string& ckpt_root = controls.checkpoint.directory;
  const bool checkpointing = !ckpt_root.empty();
  if (resuming && !checkpointing) {
    throw std::invalid_argument(
        "induce_tree_distributed: resume requires a checkpoint directory");
  }

  // SPMD argument consistency: every rank must pass the same total, schema
  // and options. A mismatch would otherwise corrupt results silently (e.g.
  // misaligned count-matrix reductions), so fingerprint and compare. The
  // fingerprint doubles as the checkpoint compatibility stamp: a resume
  // under different parameters could not reproduce the tree, so manifests
  // record it and the restore path rejects a mismatch.
  // Setup phase span: Presort (sort + root histogram) on a fresh run, the
  // checkpoint restore on a resume. Ends where the level loop begins.
  std::optional<PhaseSpan> setup_span(
      std::in_place, comm, resuming ? "checkpoint_restore" : "presort");
  const std::uint64_t fp = internal::induction_fingerprint(
      schema, total_records, options, controls.strategy);
  internal::verify_spmd_fingerprint(comm, fp);

  InductionResult result;
  result.tree = DecisionTree(schema);
  InductionStats& stats = result.stats;

  // -------------------------------------------------------------------------
  // Build the local fragments of all attribute lists.
  // -------------------------------------------------------------------------
  std::vector<ContList> cont_lists;
  std::vector<CatList> cat_lists;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind == AttributeKind::kContinuous) {
      ContList list;
      list.attribute = a;
      if (!resuming) {
        list.cols = data::build_continuous_columns(local_block, a, first_rid);
      }
      cont_lists.push_back(std::move(list));
    } else {
      CatList list;
      list.attribute = a;
      list.cardinality = schema.attribute(a).cardinality;
      list.coordinator = a % p;
      if (!resuming) {
        list.cols = data::build_categorical_columns(local_block, a, first_rid);
      }
      cat_lists.push_back(std::move(list));
    }
  }

  std::vector<ActiveNode> active;
  int level_index = 0;

  if (!resuming) {
    // Presort: sample sort every continuous list, then shift back to equal
    // fragments so per-rank load stays balanced.
    const std::vector<std::size_t> equal_sizes =
        sort::equal_partition_sizes(total_records, p);
    for (ContList& list : cont_lists) {
      list.cols = sort::sample_sort_columns(comm, std::move(list.cols));
      list.cols =
          sort::rebalance_columns(comm, std::move(list.cols), equal_sizes);
      list.mem = util::ScopedAllocation(comm.meter(),
                                        util::MemCategory::kAttributeLists,
                                        list.cols.size_bytes());
    }
    for (CatList& list : cat_lists) {
      list.mem = util::ScopedAllocation(comm.meter(),
                                        util::MemCategory::kAttributeLists,
                                        list.cols.size_bytes());
    }
    stats.presort_seconds = comm.vtime();

    // -----------------------------------------------------------------------
    // Root node.
    // -----------------------------------------------------------------------
    std::vector<std::int64_t> local_histogram(static_cast<std::size_t>(c), 0);
    for (const std::int32_t label : local_block.labels()) {
      if (label < 0 || label >= c) {
        throw std::invalid_argument("induce_tree_distributed: label out of range");
      }
      ++local_histogram[static_cast<std::size_t>(label)];
    }
    const std::vector<std::int64_t> root_totals =
        mp::allreduce_vec(comm, std::span<const std::int64_t>(local_histogram),
                          mp::SumOp{});

    TreeNode root;
    root.is_leaf = true;
    root.class_counts = root_totals;
    root.num_records = static_cast<std::int64_t>(total_records);
    root.majority_class = majority_class(root_totals);
    root.depth = 0;
    result.tree.add_node(std::move(root));

    if (!is_pure(root_totals) &&
        static_cast<std::int64_t>(total_records) >= options.min_split_records &&
        options.max_depth > 0) {
      ActiveNode node;
      node.tree_id = 0;
      node.depth = 0;
      node.total = static_cast<std::int64_t>(total_records);
      node.class_totals = root_totals;
      active.push_back(std::move(node));
    }

    for (ContList& list : cont_lists) list.offsets = {0, list.cols.size()};
    for (CatList& list : cat_lists) list.offsets = {0, list.cols.size()};
  } else {
    // -----------------------------------------------------------------------
    // Resume: restore the last complete level checkpoint instead of deriving
    // the state from the training data. Rank 0 picks the level and
    // broadcasts it so every rank restores the same directory even if the
    // root changes underneath the scan.
    // -----------------------------------------------------------------------
    int latest = -1;
    if (comm.rank() == 0) {
      const std::optional<int> found = checkpoint_latest_level(ckpt_root);
      if (found) latest = *found;
    }
    latest = mp::bcast_value(comm, latest, 0);
    if (latest < 0) {
      throw CheckpointError("no complete level checkpoint under '" +
                            ckpt_root + "'");
    }
    const std::string level_dir = checkpoint_level_dir(ckpt_root, latest);
    const CheckpointManifest manifest = checkpoint_read_manifest(level_dir);
    if (manifest.level != latest) {
      throw CheckpointError("manifest level disagrees with its directory name");
    }
    if (!controls.checkpoint.rank_weights.empty() &&
        controls.checkpoint.rank_weights.size() !=
            static_cast<std::size_t>(p)) {
      throw CheckpointError(
          "rank_weights has " +
          std::to_string(controls.checkpoint.rank_weights.size()) +
          " entries but the world has " + std::to_string(p) + " ranks");
    }
    // A weighted re-tile is a repartition even at the checkpoint's own rank
    // count: the per-rank fast path below would reload the uniform layout.
    const bool weighted = controls.checkpoint.weighted();
    const bool repartition = manifest.ranks != p || weighted;
    if (repartition && !controls.checkpoint.allow_repartition) {
      throw CheckpointError(
          weighted ? "rank_weights require allow_repartition"
                   : "checkpoint was written by " +
                         std::to_string(manifest.ranks) +
                         " ranks; resuming with " + std::to_string(p));
    }
    if (manifest.total_records != total_records ||
        manifest.num_classes != c || manifest.fingerprint != fp) {
      throw CheckpointError(
          "checkpoint parameters do not match this run "
          "(schema/options/total changed since the checkpoint was written)");
    }

    // On a grow resume the fresh joiners first pass the capability
    // handshake: each must present the same checkpoint fingerprint and
    // dataset geometry rank 0 is restoring against, or the run aborts
    // before any partition is handed to a bad joiner. This runs whether or
    // not the world size changed — survivors + joiners can land back on the
    // checkpoint's world, which resumes without repartitioning but still
    // admits fresh ranks.
    mp::JoinCapability capability;
    capability.fingerprint = fp;
    capability.total_records = static_cast<std::int64_t>(total_records);
    capability.num_attributes =
        static_cast<std::int32_t>(cont_lists.size() + cat_lists.size());
    (void)mp::join_handshake(comm, capability);

    result.tree = checkpoint_read_tree(level_dir, manifest);

    const std::vector<std::int64_t> flat =
        checkpoint_read_active(level_dir, manifest);
    const std::size_t stride = 3 + static_cast<std::size_t>(c);
    if (flat.size() % stride != 0) {
      throw CheckpointError("active.bin has a bad record stride");
    }
    active.reserve(flat.size() / stride);
    for (std::size_t i = 0; i < flat.size() / stride; ++i) {
      const std::int64_t* rec = flat.data() + i * stride;
      ActiveNode node;
      node.tree_id = static_cast<int>(rec[0]);
      node.depth = static_cast<int>(rec[1]);
      node.total = rec[2];
      node.class_totals.assign(rec + 3, rec + 3 + c);
      if (node.tree_id < 0 || node.tree_id >= result.tree.num_nodes()) {
        throw CheckpointError("active node references a missing tree node");
      }
      active.push_back(std::move(node));
    }

    if (!repartition) {
      CheckpointRankReader reader(level_dir, comm.rank());
      const auto restore_offsets = [&](std::vector<std::uint64_t> raw,
                                       std::size_t num_entries) {
        std::vector<std::size_t> offsets(raw.begin(), raw.end());
        if (offsets.size() != active.size() + 1 || offsets.front() != 0 ||
            offsets.back() != num_entries ||
            !std::is_sorted(offsets.begin(), offsets.end())) {
          throw CheckpointError("restored segment offsets are inconsistent");
        }
        return offsets;
      };
      // Checkpoint sections are entry arrays (the on-disk format); convert
      // to columns on the way in.
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        ContList& list = cont_lists[li];
        const std::string tag = "cont" + std::to_string(li);
        const std::vector<ContinuousEntry> entries =
            reader.read_section<ContinuousEntry>(tag);
        list.offsets = restore_offsets(
            reader.read_section<std::uint64_t>(tag + "_off"), entries.size());
        list.cols = data::columns_from_entries(
            std::span<const ContinuousEntry>(entries));
        list.mem = util::ScopedAllocation(comm.meter(),
                                          util::MemCategory::kAttributeLists,
                                          list.cols.size_bytes());
      }
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        CatList& list = cat_lists[li];
        const std::string tag = "cat" + std::to_string(li);
        const std::vector<CategoricalEntry> entries =
            reader.read_section<CategoricalEntry>(tag);
        list.offsets = restore_offsets(
            reader.read_section<std::uint64_t>(tag + "_off"), entries.size());
        list.cols = data::columns_from_entries(
            std::span<const CategoricalEntry>(entries));
        list.mem = util::ScopedAllocation(comm.meter(),
                                          util::MemCategory::kAttributeLists,
                                          list.cols.size_bytes());
      }
    } else {
      // Shrink/grow restore: repartition every list written by
      // manifest.ranks ranks across the current p ranks, preserving each
      // node's globally sorted segment (see core/elastic_restore.hpp). The
      // node table below is rebuilt for the current world every run, so its
      // shard moves implicitly.
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        ContList& list = cont_lists[li];
        RestoredList<ContinuousEntry> restored =
            elastic_restore_list<ContinuousEntry>(
                comm, level_dir, manifest.ranks,
                "cont" + std::to_string(li), active.size(),
                weighted ? std::span<const double>(
                               controls.checkpoint.rank_weights)
                         : std::span<const double>{});
        list.offsets = std::move(restored.offsets);
        list.cols = data::columns_from_entries(
            std::span<const ContinuousEntry>(restored.entries));
        list.mem = util::ScopedAllocation(comm.meter(),
                                          util::MemCategory::kAttributeLists,
                                          list.cols.size_bytes());
      }
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        CatList& list = cat_lists[li];
        RestoredList<CategoricalEntry> restored =
            elastic_restore_list<CategoricalEntry>(
                comm, level_dir, manifest.ranks,
                "cat" + std::to_string(li), active.size(),
                weighted ? std::span<const double>(
                               controls.checkpoint.rank_weights)
                         : std::span<const double>{});
        list.offsets = std::move(restored.offsets);
        list.cols = data::columns_from_entries(
            std::span<const CategoricalEntry>(restored.entries));
        list.mem = util::ScopedAllocation(comm.meter(),
                                          util::MemCategory::kAttributeLists,
                                          list.cols.size_bytes());
      }
    }
    level_index = latest;
    stats.levels = latest;
  }

  // Splitting-phase state. ScalParC keeps the rid -> child mapping in a
  // distributed node table (O(N/p) per rank); the SPRINT baseline replicates
  // the full mapping on every rank (O(N) per rank).
  const bool replicated =
      controls.strategy == SplittingStrategy::kReplicatedHash;
  std::optional<NodeTable> node_table;
  std::vector<std::int32_t> replicated_child;
  std::vector<std::uint32_t> replicated_epoch_of;
  std::uint32_t replicated_epoch = 0;
  util::ScopedAllocation replicated_mem;
  if (replicated) {
    replicated_child.assign(total_records, -1);
    replicated_epoch_of.assign(total_records, 0);
    replicated_mem = util::ScopedAllocation(
        comm.meter(), util::MemCategory::kNodeTable,
        total_records * (sizeof(std::int32_t) + sizeof(std::uint32_t)));
  } else {
    node_table.emplace(comm, total_records);
  }
  const std::int64_t default_block = static_cast<std::int64_t>(
      (total_records + static_cast<std::uint64_t>(p) - 1) /
      static_cast<std::uint64_t>(p));
  const std::int64_t update_block = options.node_table_update_block == 0
                                        ? default_block
                                        : options.node_table_update_block;

  struct ReplicatedUpdate {
    std::int64_t rid = 0;
    std::int32_t child = 0;
    std::int32_t pad = 0;
  };
  const auto publish_assignments = [&](std::span<const std::int64_t> rids,
                                       std::span<const std::int32_t> children) {
    if (!replicated) {
      node_table->begin_level();
      node_table->update(rids, children, update_block);
      return;
    }
    ++replicated_epoch;
    std::vector<ReplicatedUpdate> local(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      local[i] = ReplicatedUpdate{rids[i], children[i], 0};
    }
    const std::vector<ReplicatedUpdate> all = mp::allgatherv_concat(
        comm, std::span<const ReplicatedUpdate>(local));
    for (const ReplicatedUpdate& u : all) {
      replicated_child[static_cast<std::size_t>(u.rid)] = u.child;
      replicated_epoch_of[static_cast<std::size_t>(u.rid)] = replicated_epoch;
    }
    comm.add_work(static_cast<double>(local.size() + all.size()));
  };
  const auto lookup_assignments =
      [&](std::span<const std::int64_t> rids) -> std::vector<std::int32_t> {
    if (!replicated) return node_table->enquire(rids);
    std::vector<std::int32_t> out(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      const auto rid = static_cast<std::size_t>(rids[i]);
      if (replicated_epoch_of[rid] != replicated_epoch) {
        throw std::logic_error(
            "induction: record was not assigned a child this level");
      }
      out[i] = replicated_child[rid];
    }
    comm.add_work(static_cast<double>(rids.size()));
    return out;
  };

  // Per-level working storage, hoisted out of the level loop so capacity is
  // reused across levels instead of reallocated (the sizes shrink with the
  // active record count, so the first level's allocation usually suffices).
  mp::CollectiveBatch batch(comm);
  std::vector<std::int64_t> counts_scratch;
  std::vector<Boundary> boundary_scratch;
  std::vector<std::int64_t> local_kid_counts;
  std::vector<std::int64_t> update_rids;
  std::vector<std::int32_t> update_children;
  std::vector<std::int32_t> mapping_scratch;
  std::vector<std::int64_t> enquiry_scratch;
  std::vector<std::size_t> enquiry_begin(cont_lists.size() + cat_lists.size() +
                                         1);
  std::vector<std::uint64_t> ckpt_offsets_scratch;
  std::vector<std::int64_t> ckpt_active_scratch;
  // Checkpoint sections are entry arrays (the on-disk format); the columns
  // are widened into these scratch buffers at write time.
  std::vector<ContinuousEntry> ckpt_cont_scratch;
  std::vector<CategoricalEntry> ckpt_cat_scratch;
  // Per-level arena for the variable-size regroup scratch (segment size /
  // offset / cursor arrays in PerformSplitII). reset() at each level start
  // rewinds without freeing, so after the first level these allocations are
  // pure pointer bumps — together with the hoisted vectors above and the
  // cols_next double-buffers, steady-state levels do no heap allocation.
  util::Arena level_arena;
  // Fused-round segment directories (sized by list count, fixed per run).
  std::vector<std::size_t> cont_count_segs(cont_lists.size());
  std::vector<std::size_t> cont_boundary_segs(cont_lists.size());
  std::vector<std::size_t> cat_segs(cat_lists.size());
  std::vector<std::size_t> map_segs(cat_lists.size());

  setup_span.reset();

  // -------------------------------------------------------------------------
  // Level loop.
  // -------------------------------------------------------------------------
  while (!active.empty()) {
    const std::size_t m = active.size();
    std::int64_t level_records = 0;
    for (const ActiveNode& node : active) level_records += node.total;
    const auto mm = static_cast<std::int64_t>(m);
    // Persist this level's consistent state before processing it. The write
    // is collective: rank 0 prepares the staging directory and later commits
    // it; every rank contributes its attribute-list partitions in between.
    // Barriers order the three steps so a committed level_<L> directory
    // always holds a complete, mutually consistent file set.
    if (checkpointing) {
      PhaseSpan ckpt_span(comm, "checkpoint_write", level_index, mm,
                          level_records);
      if (comm.rank() == 0) checkpoint_prepare_staging(ckpt_root, level_index);
      mp::barrier(comm);
      const std::string staging = checkpoint_staging_dir(ckpt_root, level_index);
      CheckpointRankWriter writer(staging, comm.rank());
      const auto offsets_u64 =
          [&](const std::vector<std::size_t>& offsets)
          -> const std::vector<std::uint64_t>& {
        ckpt_offsets_scratch.assign(offsets.begin(), offsets.end());
        return ckpt_offsets_scratch;
      };
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        const std::string tag = "cont" + std::to_string(li);
        data::entries_from_columns(cont_lists[li].cols, ckpt_cont_scratch);
        writer.write_section<ContinuousEntry>(tag, ckpt_cont_scratch);
        writer.write_section<std::uint64_t>(tag + "_off",
                                            offsets_u64(cont_lists[li].offsets));
      }
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        const std::string tag = "cat" + std::to_string(li);
        data::entries_from_columns(cat_lists[li].cols, ckpt_cat_scratch);
        writer.write_section<CategoricalEntry>(tag, ckpt_cat_scratch);
        writer.write_section<std::uint64_t>(tag + "_off",
                                            offsets_u64(cat_lists[li].offsets));
      }
      writer.finalize();
      if (comm.rank() == 0) {
        std::vector<std::int64_t>& flat = ckpt_active_scratch;
        flat.clear();
        flat.reserve(active.size() * (3 + static_cast<std::size_t>(c)));
        for (const ActiveNode& node : active) {
          flat.push_back(node.tree_id);
          flat.push_back(node.depth);
          flat.push_back(node.total);
          flat.insert(flat.end(), node.class_totals.begin(),
                      node.class_totals.end());
        }
        CheckpointManifest manifest;
        manifest.level = level_index;
        manifest.ranks = p;
        manifest.num_classes = c;
        manifest.total_records = total_records;
        manifest.fingerprint = fp;
        checkpoint_write_globals(staging, result.tree, flat, manifest);
      }
      mp::barrier(comm);
      if (comm.rank() == 0) checkpoint_commit(ckpt_root, level_index);
      mp::barrier(comm);
    }
    // Injected level-kills fire here — after this level's checkpoint is
    // committed — so recovery restarts exactly at the level that failed.
    comm.fault_level_boundary(level_index);

    level_arena.reset();
    const std::uint64_t level_start_bytes = comm.stats().bytes_sent;
    const auto level_start_calls = comm.stats().calls_by_op;
    const double level_start_vtime = comm.vtime();

    // ---------------- FindSplitI + FindSplitII -----------------------------
    std::vector<SplitCandidate> best(m);

    // Local class counts per (node, class) for one continuous list. The
    // loop touches only the class column (4B/record).
    const auto count_continuous = [&](const ContList& list,
                                      std::vector<std::int64_t>& local_counts) {
      local_counts.assign(m * static_cast<std::size_t>(c), 0);
      const std::int32_t* const cls = list.cols.cls.data();
      for (std::size_t i = 0; i < m; ++i) {
        std::int64_t* const row =
            local_counts.data() + i * static_cast<std::size_t>(c);
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          ++row[static_cast<std::size_t>(cls[idx])];
        }
      }
      comm.add_work(static_cast<double>(list.cols.size()));
    };
    // Boundary values: the last attribute value of each node's segment on
    // any earlier rank.
    const auto boundaries_of = [&](const ContList& list,
                                   std::vector<Boundary>& boundary) {
      boundary.assign(m, Boundary{});
      for (std::size_t i = 0; i < m; ++i) {
        if (list.offsets[i + 1] == list.offsets[i]) continue;
        boundary[i] = Boundary{list.cols.values[list.offsets[i + 1] - 1], 1};
      }
    };
    const auto scan_cont_list = [&](const ContList& list,
                                    std::span<const std::int64_t> below_start,
                                    std::span<const Boundary> prev) {
      for (std::size_t i = 0; i < m; ++i) {
        const auto below = below_start.subspan(i * static_cast<std::size_t>(c),
                                               static_cast<std::size_t>(c));
        IncrementalImpurityScanner scanner(active[i].class_totals, below,
                                           options.criterion);
        const std::size_t work = scan_continuous_columns(
            list.cols, list.offsets[i], list.offsets[i + 1], scanner,
            prev[i].has != 0, prev[i].value,
            static_cast<std::int32_t>(list.attribute), best[i]);
        comm.add_work(static_cast<double>(work));
      }
    };

    {
      // One packed exscan carries every continuous list's count matrices AND
      // boundary elements: 2A collectives fuse into 1.
      std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                     level_index, mm, level_records);
      batch.reset();
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        count_continuous(cont_lists[li], counts_scratch);
        cont_count_segs[li] = batch.add<std::int64_t>(
            std::span<const std::int64_t>(counts_scratch), mp::SumOp{},
            std::int64_t{0});
        boundaries_of(cont_lists[li], boundary_scratch);
        cont_boundary_segs[li] = batch.add<Boundary>(
            std::span<const Boundary>(boundary_scratch), RightmostOp{},
            Boundary{});
      }
      phase->set_bytes(static_cast<std::int64_t>(batch.packed_bytes()));
      util::ScopedAllocation counts_mem(comm.meter(),
                                        util::MemCategory::kCountMatrices,
                                        2 * batch.packed_bytes());
      batch.exscan();
      phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
      for (std::size_t li = 0; li < cont_lists.size(); ++li) {
        scan_cont_list(cont_lists[li],
                       batch.view<std::int64_t>(cont_count_segs[li]),
                       batch.view<Boundary>(cont_boundary_segs[li]));
      }
    }

    const bool all_ranks =
        options.categorical_reduction == CategoricalReduction::kAllRanks;
    const auto count_categorical = [&](const CatList& list,
                                       std::vector<std::int64_t>& local_counts) {
      const std::size_t card = static_cast<std::size_t>(list.cardinality);
      local_counts.assign(m * card * static_cast<std::size_t>(c), 0);
      const std::int32_t* const values = list.cols.values.data();
      const std::int32_t* const cls = list.cols.cls.data();
      for (std::size_t i = 0; i < m; ++i) {
        std::int64_t* const block =
            local_counts.data() + i * card * static_cast<std::size_t>(c);
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          ++block[static_cast<std::size_t>(values[idx]) *
                      static_cast<std::size_t>(c) +
                  static_cast<std::size_t>(cls[idx])];
        }
      }
      comm.add_work(static_cast<double>(list.cols.size()));
    };
    // Evaluates one categorical list's candidates from list.global_counts
    // (callable only where the global matrices live: coordinator or, with
    // kAllRanks, everywhere).
    const auto eval_categorical = [&](CatList& list) {
      const std::size_t card = static_cast<std::size_t>(list.cardinality);
      for (std::size_t i = 0; i < m; ++i) {
        const CountMatrix matrix = CountMatrix::from_flat(
            list.cardinality, c,
            std::span<const std::int64_t>(list.global_counts)
                .subspan(i * card * static_cast<std::size_t>(c),
                         card * static_cast<std::size_t>(c)));
        const SplitCandidate candidate = best_categorical_split(
            matrix, static_cast<std::int32_t>(list.attribute),
            options.categorical_split, options.criterion);
        if (candidate_less(candidate, best[i])) best[i] = candidate;
      }
    };

    {
      // One packed round makes every categorical list's count matrices
      // global: A collectives fuse into 1 (reduce_rooted carries each
      // matrix to its own coordinator; allreduce replicates them all).
      std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                     level_index, mm, level_records);
      batch.reset();
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        count_categorical(cat_lists[li], counts_scratch);
        cat_segs[li] = batch.add<std::int64_t>(
            std::span<const std::int64_t>(counts_scratch), mp::SumOp{},
            std::int64_t{0}, all_ranks ? 0 : cat_lists[li].coordinator);
      }
      phase->set_bytes(static_cast<std::int64_t>(batch.packed_bytes()));
      util::ScopedAllocation counts_mem(comm.meter(),
                                        util::MemCategory::kCountMatrices,
                                        batch.packed_bytes());
      if (all_ranks) {
        batch.allreduce();
      } else {
        batch.reduce_rooted();
      }
      phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        CatList& list = cat_lists[li];
        if (all_ranks || comm.rank() == list.coordinator) {
          list.global_counts = batch.take<std::int64_t>(cat_segs[li]);
          eval_categorical(list);
        } else {
          list.global_counts.clear();
        }
      }
    }

    {
      // The min-allreduce that makes every rank agree on the winning
      // candidate per node — the closing collective of FindSplitII.
      PhaseSpan phase(comm, "findsplit_ii", level_index, mm, level_records);
      best = mp::allreduce_vec(comm, std::span<const SplitCandidate>(best),
                               CandidateMinOp{});
    }
    stats.findsplit_seconds += comm.vtime() - level_start_vtime;
    const double split_phase_start_vtime = comm.vtime();
    std::optional<PhaseSpan> split_span(std::in_place, comm, "performsplit_i",
                                        level_index, mm, level_records);

    // ---------------- Decide which nodes split -----------------------------
    std::vector<bool> will_split(m, false);
    for (std::size_t i = 0; i < m; ++i) {
      if (!best[i].valid()) continue;
      const double node_impurity =
          impurity_of_counts(active[i].class_totals, options.criterion);
      will_split[i] = best[i].gini < node_impurity - options.min_gini_improvement;
    }

    // Categorical winners need the value -> child mapping, which only a rank
    // holding the global matrix can build: the attribute's coordinator, or
    // every rank under kAllRanks.
    std::vector<std::vector<std::int32_t>> value_to_child(m);
    const auto winners_of = [&](const CatList& list) {
      std::vector<std::size_t> winner_nodes;
      for (std::size_t i = 0; i < m; ++i) {
        if (will_split[i] && best[i].attribute == list.attribute) {
          winner_nodes.push_back(i);
        }
      }
      return winner_nodes;
    };
    const auto build_mappings = [&](const CatList& list,
                                    const std::vector<std::size_t>& winner_nodes,
                                    std::vector<std::int32_t>& flat) {
      const std::size_t card = static_cast<std::size_t>(list.cardinality);
      flat.clear();
      flat.reserve(winner_nodes.size() * card);
      for (const std::size_t i : winner_nodes) {
        const CountMatrix matrix = CountMatrix::from_flat(
            list.cardinality, c,
            std::span<const std::int64_t>(list.global_counts)
                .subspan(i * card * static_cast<std::size_t>(c),
                         card * static_cast<std::size_t>(c)));
        const std::vector<std::int32_t> mapping =
            best[i].kind == SplitKind::kCategoricalMultiWay
                ? value_to_child_multiway(matrix)
                : value_to_child_subset(matrix, best[i].subset);
        flat.insert(flat.end(), mapping.begin(), mapping.end());
      }
    };

    const auto unpack_mappings = [&](const std::vector<std::size_t>& winners,
                                     std::size_t card,
                                     std::span<const std::int32_t> flat) {
      for (std::size_t k = 0; k < winners.size(); ++k) {
        value_to_child[winners[k]].assign(
            flat.begin() + static_cast<std::ptrdiff_t>(k * card),
            flat.begin() + static_cast<std::ptrdiff_t>((k + 1) * card));
      }
    };

    if (all_ranks) {
      // Every rank holds the global matrices, so it builds the mappings
      // itself — no broadcast round.
      for (const CatList& list : cat_lists) {
        const std::vector<std::size_t> winner_nodes = winners_of(list);
        if (winner_nodes.empty()) continue;
        build_mappings(list, winner_nodes, mapping_scratch);
        unpack_mappings(winner_nodes,
                        static_cast<std::size_t>(list.cardinality),
                        mapping_scratch);
      }
    } else {
      // All winning mappings travel in one rooted broadcast round. The
      // winner sets and cardinalities are globally known, so every rank can
      // contribute a correctly-sized placeholder for segments it doesn't own.
      batch.reset();
      std::vector<std::vector<std::size_t>> winners(cat_lists.size());
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        const CatList& list = cat_lists[li];
        winners[li] = winners_of(list);
        if (winners[li].empty()) continue;
        const std::size_t card = static_cast<std::size_t>(list.cardinality);
        if (comm.rank() == list.coordinator) {
          build_mappings(list, winners[li], mapping_scratch);
        } else {
          mapping_scratch.assign(winners[li].size() * card, 0);
        }
        map_segs[li] = batch.add<std::int32_t>(
            std::span<const std::int32_t>(mapping_scratch), mp::SumOp{},
            std::int32_t{0}, list.coordinator);
      }
      batch.bcast_rooted();  // no-op when no node split on a categorical
      for (std::size_t li = 0; li < cat_lists.size(); ++li) {
        if (winners[li].empty()) continue;
        unpack_mappings(winners[li],
                        static_cast<std::size_t>(cat_lists[li].cardinality),
                        batch.view<std::int32_t>(map_segs[li]));
      }
    }

    std::vector<int> num_children(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      if (!will_split[i]) continue;
      if (best[i].kind == SplitKind::kContinuous) {
        num_children[i] = 2;
      } else {
        num_children[i] = num_children_of(value_to_child[i]);
        if (num_children[i] < 2) {
          throw std::logic_error("induction: categorical split with <2 children");
        }
      }
    }

    // ---------------- PerformSplitI ----------------------------------------
    // Assign child slots on the splitting attributes' own lists, collect the
    // node-table updates, and count (node, child, class) locally.
    std::vector<std::size_t> kid_offset(m + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      kid_offset[i + 1] = kid_offset[i] +
                          static_cast<std::size_t>(num_children[i]) *
                              static_cast<std::size_t>(c);
    }
    local_kid_counts.assign(kid_offset[m], 0);
    update_rids.clear();
    update_children.clear();

    // Records the assigned slots of one node's segment [off, off + len):
    // node-table updates plus local (node, child, class) counts.
    const auto collect_assigned = [&](const auto& list, std::size_t i,
                                      std::size_t off, std::size_t len) {
      for (std::size_t k = off; k < off + len; ++k) {
        update_rids.push_back(list.cols.rids[k]);
        update_children.push_back(list.child[k]);
        ++local_kid_counts[kid_offset[i] +
                           static_cast<std::size_t>(list.child[k]) *
                               static_cast<std::size_t>(c) +
                           static_cast<std::size_t>(list.cols.cls[k])];
      }
      comm.add_work(static_cast<double>(len));
    };
    for (ContList& list : cont_lists) {
      list.child.assign(list.cols.size(), -1);
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i] || best[i].attribute != list.attribute) continue;
        const std::size_t off = list.offsets[i];
        const std::size_t len = list.offsets[i + 1] - off;
        assign_children_continuous(
            std::span<const double>(list.cols.values.data() + off, len),
            best[i].threshold,
            std::span<std::int32_t>(list.child.data() + off, len));
        collect_assigned(list, i, off, len);
      }
    }
    for (CatList& list : cat_lists) {
      list.child.assign(list.cols.size(), -1);
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i] || best[i].attribute != list.attribute) continue;
        const std::size_t off = list.offsets[i];
        const std::size_t len = list.offsets[i + 1] - off;
        assign_children_categorical(
            std::span<const std::int32_t>(list.cols.values.data() + off, len),
            value_to_child[i],
            std::span<std::int32_t>(list.child.data() + off, len));
        collect_assigned(list, i, off, len);
      }
    }

    std::vector<std::int64_t> global_kid_counts;
    if (!local_kid_counts.empty()) {
      batch.reset();
      const std::size_t seg = batch.add<std::int64_t>(
          std::span<const std::int64_t>(local_kid_counts), mp::SumOp{});
      batch.allreduce();
      global_kid_counts = batch.take<std::int64_t>(seg);
    }

    // Create the children in the tree (identically on every rank) and build
    // the next level's active set (shared with the quantized engine).
    internal::LevelGrowth growth = internal::grow_tree_level(
        result.tree, active, best, will_split, num_children, value_to_child,
        kid_offset, global_kid_counts, c, options);
    std::vector<ActiveNode>& next_active = growth.next_active;
    std::vector<std::vector<int>>& child_slot_target =
        growth.child_slot_target;

    // Scatter this level's rid -> child assignments.
    split_span->set_bytes(static_cast<std::int64_t>(
        update_rids.size() * (sizeof(std::int64_t) + sizeof(std::int32_t))));
    publish_assignments(update_rids, update_children);
    split_span.emplace(comm, "performsplit_ii", level_index, mm,
                       level_records);

    // ---------------- PerformSplitII ---------------------------------------
    // For every list: enquire children for segments whose node split on a
    // different attribute, then rebuild the list grouped by the next level's
    // active nodes (dropping records that landed in leaves). Every list's
    // enquiry travels in ONE node-table lookup per level.
    const auto collect_enquiry = [&](const auto& list,
                                     std::vector<std::int64_t>& rids) {
      for (std::size_t i = 0; i < m; ++i) {
        // The splitting attribute's own list was assigned in PerformSplitI.
        if (!will_split[i] || best[i].attribute == list.attribute) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          rids.push_back(list.cols.rids[idx]);
        }
      }
    };
    const auto apply_and_regroup = [&](auto& list,
                                       std::span<const std::int32_t> answers) {
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i] || best[i].attribute == list.attribute) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1]; ++idx) {
          list.child[idx] = answers[cursor++];
        }
      }
      if (cursor != answers.size()) {
        throw std::logic_error("induction: enquiry answer count mismatch");
      }

      const std::size_t old_size = list.cols.size();

      // Stable grouped placement into the next level's grouping. The
      // size/offset/cursor scratch comes from the level arena and the
      // records land in the cols_next double-buffer — no heap traffic once
      // capacities have warmed up.
      std::span<std::size_t> new_sizes =
          level_arena.alloc_zeroed<std::size_t>(next_active.size());
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i]) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          const int target =
              child_slot_target[i][static_cast<std::size_t>(list.child[idx])];
          if (target >= 0) ++new_sizes[static_cast<std::size_t>(target)];
        }
      }
      std::span<std::size_t> new_offsets =
          level_arena.alloc<std::size_t>(next_active.size() + 1);
      std::span<std::size_t> cursors =
          level_arena.alloc<std::size_t>(next_active.size());
      new_offsets[0] = 0;
      for (std::size_t t = 0; t < next_active.size(); ++t) {
        new_offsets[t + 1] = new_offsets[t] + new_sizes[t];
        cursors[t] = new_offsets[t];
      }
      list.cols_next.resize(new_offsets.back());
      for (std::size_t i = 0; i < m; ++i) {
        if (!will_split[i]) continue;
        for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
             ++idx) {
          const int target =
              child_slot_target[i][static_cast<std::size_t>(list.child[idx])];
          if (target >= 0) {
            list.cols_next.set(cursors[static_cast<std::size_t>(target)]++,
                               list.cols, idx);
          }
        }
      }
      std::swap(list.cols, list.cols_next);
      list.offsets.assign(new_offsets.begin(), new_offsets.end());
      list.mem.resize(list.cols.size_bytes());
      comm.add_work(static_cast<double>(old_size));
      list.child.clear();
      list.child.shrink_to_fit();
    };

    enquiry_scratch.clear();
    std::size_t li = 0;
    for (const ContList& list : cont_lists) {
      enquiry_begin[li++] = enquiry_scratch.size();
      collect_enquiry(list, enquiry_scratch);
    }
    for (const CatList& list : cat_lists) {
      enquiry_begin[li++] = enquiry_scratch.size();
      collect_enquiry(list, enquiry_scratch);
    }
    enquiry_begin[li] = enquiry_scratch.size();
    split_span->set_bytes(static_cast<std::int64_t>(enquiry_scratch.size() *
                                                    sizeof(std::int64_t)));
    const std::vector<std::int32_t> answers =
        lookup_assignments(enquiry_scratch);
    const std::span<const std::int32_t> all(answers);
    const auto answers_of = [&](std::size_t list_index) {
      return all.subspan(enquiry_begin[list_index],
                         enquiry_begin[list_index + 1] -
                             enquiry_begin[list_index]);
    };
    li = 0;
    for (ContList& list : cont_lists) apply_and_regroup(list, answers_of(li++));
    for (CatList& list : cat_lists) apply_and_regroup(list, answers_of(li++));

    // ---------------- Level bookkeeping ------------------------------------
    split_span.reset();
    stats.performsplit_seconds += comm.vtime() - split_phase_start_vtime;
    ++stats.levels;
    if (controls.collect_level_stats) {
      PhaseSpan level_span(comm, "level_stats", level_index, mm,
                           level_records);
      LevelStats level;
      level.level = stats.levels;
      level.active_nodes = mm;
      level.active_records = level_records;
      // Count collective entries before the level-stats collectives below
      // add their own.
      std::uint64_t calls = 0;
      for (int op = 0; op < mp::kNumCommOps; ++op) {
        if (op == static_cast<int>(mp::CommOp::kPointToPoint)) continue;
        calls += comm.stats().calls_by_op[static_cast<std::size_t>(op)] -
                 level_start_calls[static_cast<std::size_t>(op)];
      }
      level.collective_calls = static_cast<std::int64_t>(calls);
      const std::uint64_t sent = comm.stats().bytes_sent - level_start_bytes;
      level.max_bytes_sent_per_rank =
          mp::allreduce_value(comm, sent, mp::MaxOp{});
      level.vtime_end = comm.vtime();
      stats.per_level.push_back(level);
    }

    // Live telemetry: publish a copy of this rank's cumulative counters so
    // the exporter can sample mid-run. The real sink is untouched; cost when
    // telemetry is off is one relaxed atomic load.
    if (telemetry::live_metrics_enabled()) {
      if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
        mp::MetricsSnapshot live = *sink;
        absorb_induction_stats(live, stats);
        mp::absorb_comm_stats(live, comm.stats());
        telemetry::publish_metrics("rank" + std::to_string(comm.rank()), live);
      }
    }

    ++level_index;
    active = std::move(next_active);
  }

  stats.total_seconds = comm.vtime();
  // Surface the phase breakdown through the unified registry when this rank
  // runs under run_ranks (the thread-local sink is bound there).
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    absorb_induction_stats(*sink, stats);
  }
  return result;
}

void absorb_induction_stats(mp::MetricsSnapshot& snapshot,
                            const InductionStats& stats) {
  // The stats are SPMD-identical (or near-identical) across ranks, so every
  // family is a max-merged gauge: folding p copies yields the per-run value,
  // not p times it.
  snapshot.gauge_max("induction.presort_seconds", stats.presort_seconds);
  snapshot.gauge_max("induction.findsplit_seconds", stats.findsplit_seconds);
  snapshot.gauge_max("induction.performsplit_seconds",
                     stats.performsplit_seconds);
  snapshot.gauge_max("induction.total_seconds", stats.total_seconds);
  snapshot.gauge_max("induction.levels", static_cast<double>(stats.levels));
  snapshot.gauge_max("induction.split_mode",
                     static_cast<double>(stats.split_mode));
  std::int64_t collective_calls = 0;
  std::uint64_t max_bytes = 0;
  std::int64_t max_nodes = 0;
  std::int64_t max_records = 0;
  for (const LevelStats& level : stats.per_level) {
    collective_calls += level.collective_calls;
    max_bytes = std::max(max_bytes, level.max_bytes_sent_per_rank);
    max_nodes = std::max(max_nodes, level.active_nodes);
    max_records = std::max(max_records, level.active_records);
  }
  if (!stats.per_level.empty()) {
    snapshot.gauge_max("induction.collective_calls",
                       static_cast<double>(collective_calls));
    snapshot.gauge_max("induction.max_bytes_sent_per_rank_level",
                       static_cast<double>(max_bytes));
    snapshot.gauge_max("induction.max_active_nodes",
                       static_cast<double>(max_nodes));
    snapshot.gauge_max("induction.max_active_records",
                       static_cast<double>(max_records));
  }
}

}  // namespace scalparc::core
