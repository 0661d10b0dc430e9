// The breadth-first level loop shared by both induction engines (see
// core/induction_internal.hpp for the split of work).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/gini.hpp"
#include "core/induction.hpp"
#include "core/induction_internal.hpp"
#include "core/splitter.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "mp/telemetry.hpp"

namespace scalparc::core {

namespace {

using internal::ActiveNode;
using internal::PhaseSpan;

bool is_pure(std::span<const std::int64_t> counts) {
  int non_zero = 0;
  for (const std::int64_t c : counts) non_zero += c > 0;
  return non_zero <= 1;
}

// SPMD argument-consistency / checkpoint-compatibility fingerprint (FNV-1a
// over total, schema and the tree-shaping options). The split-mode trio
// (split_mode/hist_bins/top_k) is deliberately excluded: every mode
// consumes and produces the same checkpoint format, so a checkpoint written
// under one mode resumes under any other.
std::uint64_t induction_fingerprint(const data::Schema& schema,
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
// count-matrix reductions), so every rank compares fingerprints up front.
void verify_spmd_fingerprint(mp::Comm& comm, std::uint64_t fp) {
  const std::uint64_t lo = mp::allreduce_value(comm, fp, mp::MinOp{});
  const std::uint64_t hi = mp::allreduce_value(comm, fp, mp::MaxOp{});
  if (lo != hi) {
    throw std::invalid_argument(
        "induce_tree_distributed: ranks disagree on schema/options/total");
  }
}

// A leaf with class histogram `counts` at `depth`.
TreeNode leaf_node(std::span<const std::int64_t> counts, int depth) {
  TreeNode node;
  node.class_counts.assign(counts.begin(), counts.end());
  node.num_records =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  // The first class with the most records.
  node.majority_class = static_cast<std::int32_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  node.depth = depth;
  return node;
}

ActiveNode active_node(const TreeNode& node, int tree_id) {
  ActiveNode active;
  active.tree_id = tree_id;
  active.depth = node.depth;
  active.total = node.num_records;
  active.class_totals = node.class_counts;
  return active;
}

bool splittable(const TreeNode& node, const InductionOptions& options) {
  return !is_pure(node.class_counts) &&
         node.num_records >= options.min_split_records &&
         node.depth < options.max_depth;
}

// The active set of a checkpoint: flattened (tree id, depth, total,
// class totals...) records.
std::vector<ActiveNode> parse_active(const std::vector<std::int64_t>& flat,
                                     int c, const DecisionTree& tree) {
  const std::size_t stride = 3 + static_cast<std::size_t>(c);
  if (flat.size() % stride != 0) {
    throw CheckpointCorruptError("active.bin has a bad record stride");
  }
  std::vector<ActiveNode> active;
  active.reserve(flat.size() / stride);
  for (std::size_t i = 0; i < flat.size() / stride; ++i) {
    const std::int64_t* rec = flat.data() + i * stride;
    ActiveNode node;
    node.tree_id = static_cast<int>(rec[0]);
    node.depth = static_cast<int>(rec[1]);
    node.total = rec[2];
    node.class_totals.assign(rec + 3, rec + 3 + c);
    if (node.tree_id < 0 || node.tree_id >= tree.num_nodes()) {
      throw CheckpointCorruptError(
          "active node references a missing tree node");
    }
    active.push_back(std::move(node));
  }
  return active;
}

std::vector<std::int64_t> flatten_active(const std::vector<ActiveNode>& active,
                                         int c) {
  std::vector<std::int64_t> flat;
  flat.reserve(active.size() * (3 + static_cast<std::size_t>(c)));
  for (const ActiveNode& node : active) {
    flat.push_back(node.tree_id);
    flat.push_back(node.depth);
    flat.push_back(node.total);
    flat.insert(flat.end(), node.class_totals.begin(), node.class_totals.end());
  }
  return flat;
}

// Creates the children of every splitting node in the tree (identically on
// every rank — all inputs are global) and builds the next level's active
// set.
internal::LevelGrowth grow_tree_level(
    DecisionTree& tree, const internal::Level& level,
    std::span<const std::int64_t> global_kid_counts, int c,
    const InductionOptions& options) {
  internal::LevelGrowth out;
  out.child_slot_target.resize(level.m);
  for (std::size_t i = 0; i < level.m; ++i) {
    if (!level.will_split[i]) continue;  // node stays a leaf
    const ActiveNode& parent = level.active[i];
    const SplitCandidate& win = level.best[i];
    const auto num_children = static_cast<int>(
        (level.kid_offset[i + 1] - level.kid_offset[i]) /
        static_cast<std::size_t>(c));
    TreeNode& node = tree.node(parent.tree_id);
    node.is_leaf = false;
    node.split.attribute = win.attribute;
    node.split.num_children = num_children;
    if (win.kind == SplitKind::kContinuous) {
      node.split.kind = data::AttributeKind::kContinuous;
      node.split.threshold = win.threshold;
    } else {
      node.split.kind = data::AttributeKind::kCategorical;
      node.split.value_to_child = level.value_to_child[i];
    }
    out.child_slot_target[i].assign(static_cast<std::size_t>(num_children),
                                    -1);
    for (int slot = 0; slot < num_children; ++slot) {
      const std::span<const std::int64_t> counts = global_kid_counts.subspan(
          level.kid_offset[i] +
              static_cast<std::size_t>(slot) * static_cast<std::size_t>(c),
          static_cast<std::size_t>(c));
      const int child_id = tree.add_node(leaf_node(counts, parent.depth + 1));
      tree.node(parent.tree_id).children.push_back(child_id);
      const TreeNode& stored = tree.node(child_id);
      if (splittable(stored, options)) {
        out.child_slot_target[i][static_cast<std::size_t>(slot)] =
            static_cast<int>(out.next_active.size());
        out.next_active.push_back(active_node(stored, child_id));
      }
    }
  }
  return out;
}

// Fills level.value_to_child for every node splitting on a categorical
// attribute, on every rank. Only a rank holding the node's merged count
// matrix can build the mapping. Where every rank holds it, each builds it;
// otherwise the holder builds it, every other rank adds a placeholder of the
// attribute's cardinality (the winners are global), and one rooted broadcast
// publishes them all, skipped when no node needs it.
void publish_categorical_mappings(const internal::InductionEngine& engine,
                                  const data::Schema& schema, int rank,
                                  internal::Level& level,
                                  mp::CollectiveBatch& batch,
                                  std::vector<std::size_t>& published) {
  batch.reset();
  published.clear();
  for (std::size_t i = 0; i < level.m; ++i) {
    const SplitCandidate& win = level.best[i];
    if (!level.will_split[i] || win.kind == SplitKind::kContinuous) continue;
    const int holder = engine.categorical_holder(level, i);
    std::vector<std::int32_t>& mapping = level.value_to_child[i];
    if (holder < 0 || holder == rank) {
      const CountMatrix matrix = engine.categorical_matrix(level, i);
      mapping = win.kind == SplitKind::kCategoricalMultiWay
                    ? value_to_child_multiway(matrix)
                    : value_to_child_subset(matrix, win.subset);
    } else {
      mapping.assign(
          static_cast<std::size_t>(schema.attribute(win.attribute).cardinality),
          0);
    }
    if (holder < 0) continue;
    batch.add<std::int32_t>(std::span<const std::int32_t>(mapping),
                            mp::SumOp{}, std::int32_t{0}, holder);
    published.push_back(i);
  }
  batch.bcast_rooted();
  for (std::size_t s = 0; s < published.size(); ++s) {
    const std::span<const std::int32_t> mapping = batch.view<std::int32_t>(s);
    level.value_to_child[published[s]].assign(mapping.begin(), mapping.end());
  }
}

}  // namespace

internal::Level::Level(mp::Comm& comm, int index_in,
                       const std::vector<ActiveNode>& active_in)
    : index(index_in), active(active_in), m(active_in.size()), comm_(comm) {
  for (const ActiveNode& node : active) records += node.total;
}

void internal::Level::phase(const char* name) {
  span_.emplace(comm_, name, index, static_cast<std::int64_t>(m), records);
}

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
  if (options.max_depth < 0 || options.min_split_records < 2) {
    throw std::invalid_argument("induce_tree_distributed: bad options");
  }
  const bool resuming = controls.checkpoint.resume;
  const std::string& ckpt_root = controls.checkpoint.directory;
  const bool checkpointing = !ckpt_root.empty();
  if (resuming && !checkpointing) {
    throw std::invalid_argument(
        "induce_tree_distributed: resume requires a checkpoint directory");
  }
  const std::unique_ptr<internal::InductionEngine> engine =
      options.split_mode == SplitMode::kExact
          ? internal::make_exact_engine(comm, schema, total_records, controls)
          : internal::make_histogram_engine(comm, schema, total_records,
                                            controls);

  // Setup phase span: Presort (sort + root histogram) on a fresh run, the
  // checkpoint restore on a resume. Ends where the level loop begins.
  std::optional<PhaseSpan> setup_span(
      std::in_place, comm, resuming ? "checkpoint_restore" : "presort");
  const double setup_start_vtime = comm.vtime();
  // The fingerprint doubles as the checkpoint compatibility stamp: a resume
  // under different parameters could not reproduce the tree, so manifests
  // record it and the restore rejects a mismatch.
  const std::uint64_t fp =
      induction_fingerprint(schema, total_records, options, controls.strategy);
  verify_spmd_fingerprint(comm, fp);

  InductionResult result;
  result.tree = DecisionTree(schema);
  InductionStats& stats = result.stats;
  stats.split_mode = options.split_mode;
  std::vector<ActiveNode> active;
  int level_index = 0;
  // A resume's restored level is already on disk; the loop does not write
  // it again. (If this world differs from the one that wrote it, a later
  // resume re-tiles it again, as this one did.)
  int persisted_level = -1;

  if (!resuming) {
    engine->build(local_block, first_rid);
    std::vector<std::int64_t> local_histogram(static_cast<std::size_t>(c), 0);
    for (const std::int32_t label : local_block.labels()) {
      if (label < 0 || label >= c) {
        throw std::invalid_argument(
            "induce_tree_distributed: label out of range");
      }
      ++local_histogram[static_cast<std::size_t>(label)];
    }
    const TreeNode root = leaf_node(
        mp::allreduce_vec(comm, std::span<const std::int64_t>(local_histogram),
                          mp::SumOp{}),
        0);
    if (splittable(root, options)) active.push_back(active_node(root, 0));
    result.tree.add_node(root);
  } else {
    // A restore is disk-bound like a checkpoint write: keep this rank
    // visibly alive to peers waiting on it (see mp::Comm::IoScope).
    const mp::Comm::IoScope io(comm);
    // Restore the last complete level checkpoint instead of deriving the
    // state from the training data. Rank 0 picks the level and broadcasts
    // it so every rank restores the same directory even if the root changes
    // underneath the scan.
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
      throw CheckpointCorruptError(
          "manifest level disagrees with its directory name");
    }
    // Configuration mismatches stay plain CheckpointErrors: the checkpoint
    // itself is sound, so recovery must not discard it.
    const std::vector<double>& weights = controls.checkpoint.rank_weights;
    if (!weights.empty() && weights.size() != static_cast<std::size_t>(p)) {
      throw CheckpointError("rank_weights has " +
                            std::to_string(weights.size()) +
                            " entries but the world has " + std::to_string(p) +
                            " ranks");
    }
    // A weighted re-tile is a repartition even at the checkpoint's own rank
    // count.
    const bool weighted = controls.checkpoint.weighted();
    if ((manifest.ranks != p || weighted) &&
        !controls.checkpoint.allow_repartition) {
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
    capability.num_attributes = schema.num_attributes();
    (void)mp::join_handshake(comm, capability);

    result.tree = checkpoint_read_tree(level_dir, manifest);
    active = parse_active(checkpoint_read_active(level_dir, manifest), c,
                          result.tree);
    engine->restore(level_dir, manifest, active.size());
    level_index = latest;
    stats.levels = latest;
    persisted_level = latest;
  }
  setup_span.reset();
  stats.presort_seconds = comm.vtime() - setup_start_vtime;

  // Hoisted so their capacity is reused across levels.
  mp::CollectiveBatch batch(comm);
  std::vector<std::size_t> mapped_nodes;

  while (!active.empty()) {
    internal::Level level(comm, level_index, active);
    // Persist this level's consistent state before processing it. The write
    // is collective: rank 0 prepares the staging directory and later commits
    // it; every rank contributes its attribute-list partitions in between.
    // Barriers order the three steps so a committed level_<L> directory
    // always holds a complete, mutually consistent file set.
    if (checkpointing && level_index != persisted_level) {
      level.phase("checkpoint_write");
      const mp::Comm::IoScope io(comm);
      if (comm.rank() == 0) checkpoint_prepare_staging(ckpt_root, level_index);
      mp::barrier(comm);
      const std::string staging = checkpoint_staging_dir(ckpt_root, level_index);
      CheckpointRankWriter writer(staging, comm.rank());
      engine->write_checkpoint(writer, level.m);
      writer.finalize();
      if (comm.rank() == 0) {
        CheckpointManifest manifest;
        manifest.level = level_index;
        manifest.ranks = p;
        manifest.num_classes = c;
        manifest.total_records = total_records;
        manifest.fingerprint = fp;
        checkpoint_write_globals(staging, result.tree,
                                 flatten_active(active, c), manifest);
      }
      mp::barrier(comm);
      if (comm.rank() == 0) checkpoint_commit(ckpt_root, level_index);
      mp::barrier(comm);
      level.close();
    }
    // Injected level-kills fire here — after this level's checkpoint is
    // committed — so recovery restarts exactly at the level that failed.
    comm.fault_level_boundary(level_index);

    const std::uint64_t level_start_bytes = comm.stats().bytes_sent;
    const auto level_start_calls = comm.stats().calls_by_op;
    const double level_start_vtime = comm.vtime();

    // ---------------- FindSplitI + FindSplitII -----------------------------
    level.best.assign(level.m, SplitCandidate{});
    engine->find_splits(level);
    // The min-allreduce that picks every node's winning candidate on every
    // rank — the closing collective of FindSplitII. Each engine's ranks
    // score disjoint shares (the exact engine's attribute-list fragments,
    // the histogram engine's owned histograms), so this is where the
    // winner is chosen.
    level.phase("findsplit_ii");
    level.best = mp::allreduce_vec(
        comm, std::span<const SplitCandidate>(level.best), CandidateMinOp{});
    stats.findsplit_seconds += comm.vtime() - level_start_vtime;
    const double split_phase_start_vtime = comm.vtime();

    // ---------------- Decide which nodes split -----------------------------
    level.phase("performsplit_i");
    level.will_split.assign(level.m, false);
    for (std::size_t i = 0; i < level.m; ++i) {
      if (!level.best[i].valid()) continue;
      const double node_impurity =
          impurity_of_counts(active[i].class_totals, options.criterion);
      level.will_split[i] =
          level.best[i].gini < node_impurity - options.min_gini_improvement;
    }
    level.value_to_child.assign(level.m, {});
    publish_categorical_mappings(*engine, schema, comm.rank(), level, batch,
                                 mapped_nodes);
    level.kid_offset.assign(level.m + 1, 0);
    for (std::size_t i = 0; i < level.m; ++i) {
      int children = 0;
      if (level.will_split[i]) {
        children = level.best[i].kind == SplitKind::kContinuous
                       ? 2
                       : num_children_of(level.value_to_child[i]);
        if (children < 2) {
          throw std::logic_error(
              "induction: categorical split with <2 children");
        }
      }
      level.kid_offset[i + 1] =
          level.kid_offset[i] + static_cast<std::size_t>(children) *
                                    static_cast<std::size_t>(c);
    }

    // ---------------- PerformSplitI ----------------------------------------
    // The engine counts (node, child, class) straight into the segment the
    // allreduce sums; the tree grows from the merged counts in place.
    batch.reset();
    const std::size_t kid_seg =
        batch.place<std::int64_t>(level.kid_offset[level.m], mp::SumOp{});
    engine->perform_split_i(level, batch.segment<std::int64_t>(kid_seg));
    if (level.kid_offset[level.m] > 0) batch.allreduce();
    internal::LevelGrowth growth = grow_tree_level(
        result.tree, level, batch.view<std::int64_t>(kid_seg), c, options);

    // ---------------- PerformSplitII ---------------------------------------
    engine->perform_split_ii(level, growth);

    // ---------------- Level bookkeeping ------------------------------------
    level.close();
    stats.performsplit_seconds += comm.vtime() - split_phase_start_vtime;
    ++stats.levels;
    if (controls.collect_level_stats) {
      level.phase("level_stats");
      LevelStats level_stats;
      level_stats.level = stats.levels;
      level_stats.active_nodes = static_cast<std::int64_t>(level.m);
      level_stats.active_records = level.records;
      // Count collective entries before the level-stats collectives below
      // add their own.
      std::uint64_t calls = 0;
      for (int op = 0; op < mp::kNumCommOps; ++op) {
        if (op == static_cast<int>(mp::CommOp::kPointToPoint)) continue;
        calls += comm.stats().calls_by_op[static_cast<std::size_t>(op)] -
                 level_start_calls[static_cast<std::size_t>(op)];
      }
      level_stats.collective_calls = static_cast<std::int64_t>(calls);
      const std::uint64_t sent = comm.stats().bytes_sent - level_start_bytes;
      level_stats.max_bytes_sent_per_rank =
          mp::allreduce_value(comm, sent, mp::MaxOp{});
      level_stats.vtime_end = comm.vtime();
      stats.per_level.push_back(level_stats);
      level.close();
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
    active = std::move(growth.next_active);
  }

  stats.total_seconds = comm.vtime();
  // Surface the phase breakdown through the unified registry when this rank
  // runs under run_ranks (the thread-local sink is bound there).
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    absorb_induction_stats(*sink, stats);
    engine->absorb_metrics(*sink);
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
