// Public entry points of the ScalParC library.
//
// Two usage styles:
//  * `fit_rank` — call from inside your own mp::run_ranks body: each rank
//    passes its block of the training set (SPMD, collective).
//  * `fit` / `fit_generated` — convenience drivers that stand up a simulated
//    cluster of `nranks` ranks, partition (or generate) the data per rank,
//    induce the tree, and return it together with the per-rank communication
//    statistics, memory peaks and modeled Cray-T3D-calibrated runtime.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/induction.hpp"
#include "core/tree.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "mp/costmodel.hpp"
#include "mp/runtime.hpp"

namespace scalparc::mp {
class FaultSchedule;  // mp/fault.hpp
}  // namespace scalparc::mp

namespace scalparc::core {

struct FitReport {
  DecisionTree tree;         // identical on every rank; rank 0's copy
  InductionStats stats;      // rank 0's induction statistics
  mp::RunResult run;         // per-rank comm stats, memory peaks, timings
};

// What fit_with_recovery does after a failed attempt. kRestart re-runs the
// full original world from the last checkpoint; kShrink drops the dead
// rank(s) and continues with the survivors, repartitioning the checkpointed
// attribute lists across the smaller world (elastic restore); kGrow keeps
// the survivors AND admits `join_ranks` fresh joiners through the
// mp::join_handshake capability exchange, re-tiling the checkpoint across
// the larger world. Shrinking and growing are only sound when a specific
// rank provably died — deadlock and timeout failures fall back to a restart
// even under kShrink / kGrow.
//
// kRebalance is the gray-failure policy: on a kStraggler classification it
// keeps the same world but re-tiles the checkpointed attribute lists
// *non-uniformly* away from the slow rank (weight 1/slowdown vs 1 for its
// peers), producing the byte-identical tree with the straggler carrying
// proportionally less work. If the same rank is classified again after a
// rebalance, the policy escalates to a demotion: the world shrinks by one
// and the weights are dropped. A hard rank death under kRebalance degrades
// to kShrink; a straggler classification under any other policy degrades to
// kRestart.
enum class RecoveryPolicy : int {
  kRestart = 0,
  kShrink = 1,
  kGrow = 2,
  kRebalance = 3,
};

// One failure observed (and survived) by fit_with_recovery.
struct RecoveryEvent {
  int failed_rank = -1;
  // Checkpoint level the retry resumed from; -1 means no complete
  // checkpoint existed yet and the retry restarted from scratch.
  int resumed_level = -1;
  std::string message;  // what the failed rank threw
  // Policy actually applied to this failure (a shrink/grow request degrades
  // to kRestart when no rank provably died).
  RecoveryPolicy policy = RecoveryPolicy::kRestart;
  // World size the retry ran with (smaller than the previous attempt's
  // after a shrink, larger after a grow).
  int ranks_after = -1;
  // kGrow only: joiners admitted into the retry's world.
  int joiners = 0;
  // kRebalance only: the rank classified as a straggler, its estimated
  // slowdown factor, and whether the event escalated to a demotion (the
  // same rank re-classified after a rebalance: world shrunk by one).
  int straggler_rank = -1;
  double straggler_slowdown = 0.0;
  bool demoted = false;
};

// Degraded-mode guardrails: hard ceilings after which a thrashing run fails
// fast with a classified outcome instead of recovering forever. A field
// <= 0 disables that ceiling.
struct RecoveryBudget {
  // Total failures the run may survive (distinct from max_retries, which
  // caps *consecutive* attempts).
  int max_recoveries = 0;
  // Cumulative wall-clock seconds spent on failed attempts.
  double max_heal_seconds = 0.0;
};

// Terminal classification of a fit_with_recovery run. Everything except
// kCompleted means the fit did not finish; RecoveryReport::last_error holds
// the final failure.
enum class RecoveryOutcome : int {
  kCompleted = 0,
  kRetriesExhausted = 1,          // max_retries consecutive attempts failed
  kRecoveryBudgetExhausted = 2,   // a RecoveryBudget ceiling tripped
  kUnrecoverable = 3,             // write-side checkpoint I/O error (disk
                                  // full / permission): retrying cannot help
};
const char* to_string(RecoveryOutcome outcome);

// Full recovery configuration for fit_with_recovery.
struct RecoveryControls {
  RecoveryPolicy policy = RecoveryPolicy::kRestart;
  // Per-event overrides: failure i applies policy_sequence[i] when present,
  // `policy` past the end. This is how a grow -> shrink -> grow round trip
  // is expressed.
  std::vector<RecoveryPolicy> policy_sequence;
  // kGrow: joiners admitted per grow recovery (new world = survivors + k).
  int join_ranks = 1;
  // Consecutive failed attempts tolerated before kRetriesExhausted.
  int max_retries = 3;
  RecoveryBudget budget;
  // Per-attempt fault plans (plan(0) = initial run, plan(i) = i-th retry);
  // overrides run_options.fault_plan. Must outlive the call. This is the
  // compound-fault hook: a single plan is dropped after the first failure,
  // a schedule keeps injecting into recovery attempts.
  const mp::FaultSchedule* fault_schedule = nullptr;
};

struct RecoveryReport {
  FitReport fit;
  std::vector<RecoveryEvent> events;  // one per survived failure
  int attempts = 1;                   // total runs including the final one
  RecoveryOutcome outcome = RecoveryOutcome::kCompleted;
  // Set when outcome != kCompleted: the final attempt's primary error.
  // fit_with_recovery classifies instead of throwing; fit.run still carries
  // the failed attempt's metrics and failure report.
  std::exception_ptr last_error;
  // Cumulative wall-clock seconds of failed attempts (the heal budget's
  // meter).
  double heal_seconds = 0.0;
};

class ScalParC {
 public:
  // Collective per-rank fit; see induce_tree_distributed for the contract.
  static InductionResult fit_rank(mp::Comm& comm,
                                  const data::Dataset& local_block,
                                  std::int64_t first_rid,
                                  std::uint64_t total_records,
                                  const InductionControls& controls = {});

  // Partitions `training` into contiguous equal blocks over `nranks`
  // simulated ranks and fits. With nranks == 1 this is the serial algorithm.
  // `run_options` configures fault injection, receive timeouts and deadlock
  // detection for the simulated cluster (see mp::RunOptions).
  static FitReport fit(const data::Dataset& training, int nranks,
                       const InductionControls& controls = {},
                       const mp::CostModel& model = mp::CostModel::zero(),
                       const mp::RunOptions& run_options = {});

  // Like fit(), but every rank generates its own block of
  // `total_records` Quest records — no global materialization, so training
  // sets of hundreds of millions of records fit in simulation.
  static FitReport fit_generated(const data::QuestGenerator& generator,
                                 std::uint64_t total_records, int nranks,
                                 const InductionControls& controls = {},
                                 const mp::CostModel& model = mp::CostModel::zero(),
                                 const mp::RunOptions& run_options = {});

  // Restarts induction from the last complete level checkpoint under
  // controls.checkpoint.directory and produces a tree byte-identical to the
  // fault-free run. Throws CheckpointError when no complete checkpoint
  // exists or its parameters do not match this training configuration.
  static FitReport resume_from_checkpoint(
      const data::Dataset& training, int nranks,
      const InductionControls& controls,
      const mp::CostModel& model = mp::CostModel::zero(),
      const mp::RunOptions& run_options = {});

  // Fit that survives rank failures: on any failed run it resumes from the
  // last complete checkpoint (or restarts from scratch when none committed
  // yet) until the fit succeeds or the recovery controls give up. Faults are
  // treated as transient — an injected fault plan is dropped after the first
  // failure, matching a crashed-and-restarted process. Requires a checkpoint
  // directory in `controls`. Under RecoveryPolicy::kShrink a rank death
  // removes the dead rank(s) from the world and the survivors continue from
  // the checkpoint via elastic repartition, still producing the
  // byte-identical tree. `recovery` carries the full surface: per-event
  // policy sequences (grow included), recovery budget, compound fault
  // schedules. A rank failure is never rethrown — the report's `outcome`
  // classifies how the run ended and `last_error` carries the final
  // failure. The final attempt's metrics gain the recovery.* family
  // (attempts, recoveries, shrinks/grows/restarts, heal_seconds, outcome,
  // budget_remaining).
  static RecoveryReport fit_with_recovery(
      const data::Dataset& training, int nranks,
      const InductionControls& controls, const RecoveryControls& recovery,
      const mp::CostModel& model = mp::CostModel::zero(),
      const mp::RunOptions& run_options = {});
};

}  // namespace scalparc::core
