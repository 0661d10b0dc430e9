// Breadth-first distributed tree induction: the ScalParC algorithm (§4).
//
//   Presort                sample sort + shift of every continuous list
//   per level l:
//     FindSplitI           parallel prefix of continuous class counts;
//                          reduction of categorical count matrices to a
//                          designated coordinator per attribute
//     FindSplitII          local gini scans; global min-allreduce of the
//                          best candidate per node
//     PerformSplitI        split the splitting attributes' lists, scatter
//                          rid -> child into the distributed node table
//                          (blocked to O(N/p) buffer memory)
//     PerformSplitII       enquire the node table for every non-splitting
//                          list and split it consistently
//
// Every rank runs this collectively and returns an identical tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/tree.hpp"
#include "data/dataset.hpp"
#include "mp/comm.hpp"

namespace scalparc::core {

struct LevelStats {
  int level = 0;
  std::int64_t active_nodes = 0;
  // Global count of records still attached to a splittable node.
  std::int64_t active_records = 0;
  // Max over ranks of bytes sent during this level (collected only when
  // options.collect_level_stats is set in InductionControls).
  std::uint64_t max_bytes_sent_per_rank = 0;
  // Collective operations entered during this level (every CommOp except
  // point-to-point, counted before the level-stats collectives themselves).
  // O(1) in the number of attribute lists (fused CollectiveBatch rounds).
  std::int64_t collective_calls = 0;
  double vtime_end = 0.0;
};

struct InductionStats {
  double presort_seconds = 0.0;     // modeled virtual time of Presort
  double total_seconds = 0.0;       // modeled virtual time of the whole fit
  // Modeled time spent in split determination (FindSplitI+II) and in the
  // splitting phase (PerformSplitI+II), summed over levels.
  double findsplit_seconds = 0.0;
  double performsplit_seconds = 0.0;
  int levels = 0;
  // Which split-determination engine produced this tree (surfaced as the
  // induction.split_mode gauge).
  SplitMode split_mode = SplitMode::kExact;
  std::vector<LevelStats> per_level;
};

struct InductionResult {
  DecisionTree tree;
  InductionStats stats;
};

// How the rid -> child mapping of the splitting phase is realized. The two
// strategies produce identical trees; they differ exactly on the axis the
// paper's scalability argument is about.
enum class SplittingStrategy : int {
  // ScalParC: distributed node table, O(N/p) memory and communication per
  // processor per level (§3.3).
  kDistributedHash = 0,
  // Parallel SPRINT: the full mapping is replicated on every processor via
  // an allgather, O(N) memory and communication per processor per level
  // (the formulation §3.2 shows to be unscalable).
  kReplicatedHash = 1,
};

// Level-granular checkpoint/restart (see core/checkpoint.hpp). With a
// non-empty directory the induction loop persists its consistent global
// state at every level boundary; with `resume` set it restores the latest
// complete checkpoint instead of starting from the training data and
// continues from that level, reproducing the identical tree.
struct CheckpointControls {
  std::string directory;  // empty disables checkpointing
  bool resume = false;
  // Allow resuming under a different rank count than the checkpoint was
  // written with: the restore repartitions every attribute list across the
  // current world (see core/elastic_restore.hpp). Off by default so an
  // accidental world-size mismatch stays a loud error; the shrink-to-
  // survivors recovery policy switches it on.
  bool allow_repartition = false;
  // Non-uniform restore tiling for the straggler-rebalance recovery policy:
  // rank r's share of every attribute list is proportional to
  // rank_weights[r] (see sort::weighted_partition_sizes). Empty means the
  // canonical uniform tiling. When non-empty the size must equal the world
  // size, every weight must be positive and finite, and allow_repartition
  // must be set (a weighted re-tile is a repartition even at the same rank
  // count). Exact engine only: the histogram engine's row ownership is
  // structural, so it rejects non-uniform weights loudly.
  std::vector<double> rank_weights;

  // True when rank_weights requests a genuinely non-uniform tiling.
  bool weighted() const {
    for (const double w : rank_weights) {
      if (w != rank_weights.front()) return true;
    }
    return false;
  }
};

struct InductionControls {
  InductionOptions options;
  SplittingStrategy strategy = SplittingStrategy::kDistributedHash;
  // Collect per-level statistics (adds two small collectives per level).
  bool collect_level_stats = false;
  CheckpointControls checkpoint;
};

// Collective: every rank passes its block of records (record `row` of
// `local_block` has global id `first_rid + row`) and the global total.
// Blocks must tile [0, total_records) exactly; every rank must pass the same
// schema, controls and total. Throws std::invalid_argument for an empty
// global training set.
InductionResult induce_tree_distributed(mp::Comm& comm,
                                        const data::Dataset& local_block,
                                        std::int64_t first_rid,
                                        std::uint64_t total_records,
                                        const InductionControls& controls);

// Translates the legacy per-phase stats into induction.* metric families
// (gauges: the values are SPMD-identical, so max-merging across ranks yields
// per-run values). induce_tree_distributed calls this on the bound
// metrics_sink automatically; callers holding only an InductionStats (e.g.
// the CLI after fit) can apply it to a merged snapshot.
void absorb_induction_stats(mp::MetricsSnapshot& snapshot,
                            const InductionStats& stats);

}  // namespace scalparc::core
