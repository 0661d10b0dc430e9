// Induction options shared by ScalParC and the baseline classifiers.
#pragma once

#include <cstdint>

namespace scalparc::core {

enum class CategoricalSplit : int {
  // The paper's default: one child per categorical value present at the node.
  kMultiWay = 0,
  // The footnote's alternative: two children characterized by a value
  // subset, chosen greedily (SLIQ-style). Implemented as an extension.
  kBinarySubset = 1,
};

// Impurity measure optimized by the split search. The paper uses gini;
// entropy (C4.5-style information gain) is provided as an extension — the
// split with minimal weighted child impurity maximizes information gain.
enum class SplitCriterion : int {
  kGini = 0,
  kEntropy = 1,
};

// How categorical count matrices become global in FindSplitI (ablation,
// DESIGN.md §6.3). Both produce identical trees.
enum class CategoricalReduction : int {
  // The paper: "a processor is designated to coordinate the computation of
  // the global count matrices for all the nodes" — reduce to one rank per
  // attribute, which evaluates candidates and broadcasts the winning
  // value -> child mappings.
  kCoordinator = 0,
  // Alternative: allreduce the matrices so every rank holds them; redundant
  // candidate evaluation on all ranks, but no broadcast round.
  kAllRanks = 1,
};

// How split points are determined each level (docs/architecture.md "split
// modes"; DESIGN.md §10). kExact is the paper's algorithm over globally
// sorted attribute lists; the other two quantize continuous attributes into
// fixed-width histograms (PV-Tree, arXiv 1611.01276) and run the level on a
// horizontally partitioned record block, dropping the per-level
// communication from O(N/p) to O(attributes * bins) independent of N.
enum class SplitMode : int {
  // ScalParC: candidates at every distinct attribute value, distributed
  // node-table splitting. The accuracy oracle; byte-identical trees at any
  // processor count.
  kExact = 0,
  // Fixed-width per-attribute, per-node class histograms, each merged at
  // one owner rank in one packed rooted reduce; candidates at bin
  // boundaries. Trees are still
  // processor-count invariant (bin edges come from a global min/max
  // allreduce; thresholds are real data values — the per-bin minimum), but
  // may differ from exact where a bin straddles the exact cut.
  kHistogram = 1,
  // PV-Tree voting: ranks score attributes on their local histograms, vote
  // their top-k; a packed allreduce elects the global top-2k, and only
  // elected attributes' histograms are merged. Smallest per-level traffic;
  // trees depend on the data partition (deterministic at fixed p).
  kVoting = 2,
};

struct InductionOptions {
  // Hard depth cap (root is depth 0). 64 never binds in practice; tests use
  // small values to exercise the cutoff.
  int max_depth = 64;
  // Nodes with fewer records than this become leaves (labelled by majority).
  std::int64_t min_split_records = 2;
  // A split must improve on the node's own gini by more than this to be
  // taken; 0 reproduces the paper (stop only when pure / no valid split).
  double min_gini_improvement = 0.0;
  SplitCriterion criterion = SplitCriterion::kGini;
  CategoricalSplit categorical_split = CategoricalSplit::kMultiWay;
  CategoricalReduction categorical_reduction = CategoricalReduction::kCoordinator;
  // Node-table updates are sent in blocks of at most this many entries per
  // rank per round, to bound communication buffer memory (§3.3.2). 0 means
  // "N/p", the paper's choice. Benches ablate this (A1).
  std::int64_t node_table_update_block = 0;
  // Split determination mode. Deliberately NOT part of the SPMD/checkpoint
  // fingerprint: every mode consumes and produces the same on-disk
  // checkpoint format (sorted attribute-list entry sections), so an
  // exact-mode checkpoint resumes under histogram mode and vice versa — the
  // tree below the resume level then follows the resumed mode's split rule.
  SplitMode split_mode = SplitMode::kExact;
  // Histogram/voting: fixed-width bins per continuous attribute (>= 2).
  // More bins = closer to exact splits, linearly more bytes per level.
  int hist_bins = 64;
  // Voting: attributes each rank votes for per node (>= 1); the global
  // election keeps the top 2k vote-getters.
  int top_k = 2;
};

}  // namespace scalparc::core
