#include "core/scalparc.hpp"

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "mp/fault.hpp"
#include "mp/telemetry.hpp"
#include "sort/partition_util.hpp"

namespace scalparc::core {

namespace {

struct Attempt {
  std::vector<InductionResult> results;
  mp::RunResult run;
};

Attempt run_fit(const data::Dataset& training, int nranks,
                const InductionControls& controls, const mp::CostModel& model,
                const mp::RunOptions& options) {
  const std::uint64_t total = training.num_records();
  const std::vector<std::size_t> sizes =
      sort::equal_partition_sizes(total, nranks);
  const std::vector<std::size_t> offsets = sort::offsets_from_sizes(sizes);

  Attempt attempt;
  attempt.results.resize(static_cast<std::size_t>(nranks));
  attempt.run = mp::try_run_ranks(
      nranks, model,
      [&](mp::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const data::Dataset block = training.slice(offsets[r], offsets[r + 1]);
        attempt.results[r] = ScalParC::fit_rank(
            comm, block, static_cast<std::int64_t>(offsets[r]), total,
            controls);
      },
      options);
  return attempt;
}

FitReport report_from(Attempt&& attempt) {
  FitReport report;
  report.tree = std::move(attempt.results[0].tree);
  report.stats = std::move(attempt.results[0].stats);
  report.run = std::move(attempt.run);
  return report;
}

}  // namespace

InductionResult ScalParC::fit_rank(mp::Comm& comm,
                                   const data::Dataset& local_block,
                                   std::int64_t first_rid,
                                   std::uint64_t total_records,
                                   const InductionControls& controls) {
  return induce_tree_distributed(comm, local_block, first_rid, total_records,
                                 controls);
}

FitReport ScalParC::fit(const data::Dataset& training, int nranks,
                        const InductionControls& controls,
                        const mp::CostModel& model,
                        const mp::RunOptions& run_options) {
  if (nranks <= 0) {
    throw std::invalid_argument("ScalParC::fit: nranks must be positive");
  }
  Attempt attempt = run_fit(training, nranks, controls, model, run_options);
  if (attempt.run.failed()) std::rethrow_exception(attempt.run.error);
  return report_from(std::move(attempt));
}

FitReport ScalParC::fit_generated(const data::QuestGenerator& generator,
                                  std::uint64_t total_records, int nranks,
                                  const InductionControls& controls,
                                  const mp::CostModel& model,
                                  const mp::RunOptions& run_options) {
  if (nranks <= 0) {
    throw std::invalid_argument(
        "ScalParC::fit_generated: nranks must be positive");
  }
  const std::vector<std::size_t> sizes =
      sort::equal_partition_sizes(total_records, nranks);
  const std::vector<std::size_t> offsets = sort::offsets_from_sizes(sizes);

  std::vector<InductionResult> results(static_cast<std::size_t>(nranks));
  mp::RunResult run = mp::run_ranks(
      nranks, model,
      [&](mp::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const data::Dataset block = generator.generate(offsets[r], sizes[r]);
        results[r] = fit_rank(comm, block,
                              static_cast<std::int64_t>(offsets[r]),
                              total_records, controls);
      },
      run_options);

  FitReport report;
  report.tree = std::move(results[0].tree);
  report.stats = std::move(results[0].stats);
  report.run = std::move(run);
  return report;
}

FitReport ScalParC::resume_from_checkpoint(const data::Dataset& training,
                                           int nranks,
                                           const InductionControls& controls,
                                           const mp::CostModel& model,
                                           const mp::RunOptions& run_options) {
  InductionControls resumed = controls;
  resumed.checkpoint.resume = true;
  return fit(training, nranks, resumed, model, run_options);
}

const char* to_string(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::kCompleted:
      return "completed";
    case RecoveryOutcome::kRetriesExhausted:
      return "retries-exhausted";
    case RecoveryOutcome::kRecoveryBudgetExhausted:
      return "recovery-budget-exhausted";
    case RecoveryOutcome::kUnrecoverable:
      return "unrecoverable";
  }
  return "unknown";
}

namespace {

// Folds the recovery bookkeeping into the final attempt's metrics so one
// registry carries the whole story (docs/observability.md, recovery.*).
void absorb_recovery_metrics(mp::MetricsSnapshot& metrics,
                             const RecoveryReport& report,
                             const RecoveryBudget& budget) {
  metrics.add("recovery.attempts", static_cast<double>(report.attempts));
  metrics.gauge_max("recovery.outcome",
                    static_cast<double>(static_cast<int>(report.outcome)));
  if (report.events.empty()) return;
  metrics.add("recovery.recoveries", static_cast<double>(report.events.size()));
  int shrinks = 0, grows = 0, restarts = 0, rebalances = 0, demotions = 0;
  for (const RecoveryEvent& e : report.events) {
    switch (e.policy) {
      case RecoveryPolicy::kShrink: ++shrinks; break;
      case RecoveryPolicy::kGrow: ++grows; break;
      case RecoveryPolicy::kRestart: ++restarts; break;
      case RecoveryPolicy::kRebalance:
        if (e.demoted) {
          ++demotions;
        } else {
          ++rebalances;
        }
        break;
    }
  }
  if (shrinks > 0) metrics.add("recovery.shrinks", shrinks);
  if (grows > 0) metrics.add("recovery.grows", grows);
  if (restarts > 0) metrics.add("recovery.restarts", restarts);
  if (rebalances > 0) metrics.add("recovery.rebalances", rebalances);
  if (demotions > 0) metrics.add("recovery.demotions", demotions);
  metrics.add("recovery.heal_seconds", report.heal_seconds);
  if (budget.max_recoveries > 0) {
    metrics.gauge_max(
        "recovery.budget_remaining",
        static_cast<double>(budget.max_recoveries -
                            static_cast<int>(report.events.size())));
  }
}

}  // namespace

RecoveryReport ScalParC::fit_with_recovery(const data::Dataset& training,
                                           int nranks,
                                           const InductionControls& controls,
                                           const RecoveryControls& recovery,
                                           const mp::CostModel& model,
                                           const mp::RunOptions& run_options) {
  if (nranks <= 0) {
    throw std::invalid_argument(
        "ScalParC::fit_with_recovery: nranks must be positive");
  }
  if (controls.checkpoint.directory.empty()) {
    throw std::invalid_argument(
        "ScalParC::fit_with_recovery: controls.checkpoint.directory is "
        "required (recovery restarts from level checkpoints)");
  }
  if (recovery.join_ranks <= 0) {
    throw std::invalid_argument(
        "ScalParC::fit_with_recovery: recovery.join_ranks must be positive");
  }

  RecoveryReport report;
  InductionControls attempt_controls = controls;
  mp::RunOptions attempt_options = run_options;
  int world = nranks;
  // Gray-failure mitigation state: non-uniform re-tile weights (empty =
  // uniform) and the rank they steer away from. A second classification of
  // the same rank escalates the next rebalance to a demotion.
  std::vector<double> weights;
  int rebalanced_rank = -1;
  for (int retry = 0;; ++retry) {
    // A retry's ranks publish counters that restart at zero, so the live
    // registry drops the failed attempt's sources and samples a new attempt.
    if (retry > 0) telemetry::reset_live_metrics();
    if (recovery.fault_schedule != nullptr) {
      attempt_options.fault_plan = recovery.fault_schedule->plan(retry);
    }
    Attempt attempt =
        run_fit(training, world, attempt_controls, model, attempt_options);
    report.attempts = retry + 1;
    if (!attempt.run.failed()) {
      report.fit = report_from(std::move(attempt));
      absorb_recovery_metrics(report.fit.run.metrics, report, recovery.budget);
      return report;
    }
    report.last_error = attempt.run.error;
    report.heal_seconds += attempt.run.wall_seconds;

    // Classify the failure before deciding whether recovery is even worth
    // attempting (the decision table in docs/runtime.md).
    bool io_error = false;
    bool corrupt = false;
    try {
      std::rethrow_exception(attempt.run.error);
    } catch (const CheckpointIoError&) {
      io_error = true;  // disk full / permission: a retry hits the same wall
    } catch (const CheckpointCorruptError&) {
      corrupt = true;  // damaged checkpoint: drop it, resume from earlier
    } catch (...) {
    }

    const auto fail_fast = [&](RecoveryOutcome outcome) {
      report.outcome = outcome;
      telemetry::record_event("recovery",
                              std::string("terminal: ") + to_string(outcome) +
                                  " after " + std::to_string(report.attempts) +
                                  " attempt(s)");
      report.fit.run = std::move(attempt.run);  // metrics + failure report
      absorb_recovery_metrics(report.fit.run.metrics, report, recovery.budget);
      return report;
    };
    if (io_error) return fail_fast(RecoveryOutcome::kUnrecoverable);
    if (retry >= recovery.max_retries) {
      return fail_fast(RecoveryOutcome::kRetriesExhausted);
    }
    const RecoveryBudget& budget = recovery.budget;
    if ((budget.max_recoveries > 0 &&
         static_cast<int>(report.events.size()) >= budget.max_recoveries) ||
        (budget.max_heal_seconds > 0.0 &&
         report.heal_seconds > budget.max_heal_seconds)) {
      return fail_fast(RecoveryOutcome::kRecoveryBudgetExhausted);
    }

    RecoveryEvent event;
    event.failed_rank = attempt.run.failed_rank;
    event.message = attempt.run.failure_message;
    // Faults are transient unless a schedule says otherwise: a plain plan
    // does not re-fire on the retry, matching a crashed-and-restarted
    // process. Without this a level-triggered kill would fire again on
    // every resume, forever. (With a schedule, plan(retry + 1) takes over
    // at the top of the next iteration.)
    attempt_options.fault_plan = nullptr;
    attempt_options.prior_world = 0;
    // A checkpoint that failed its read-side integrity checks can never be
    // resumed; discard the damaged level so the retry falls back to an
    // earlier one (or to scratch).
    if (corrupt) {
      const std::optional<int> damaged =
          checkpoint_latest_level(controls.checkpoint.directory);
      if (damaged) {
        std::error_code ec;
        std::filesystem::remove_all(
            checkpoint_level_dir(controls.checkpoint.directory, *damaged), ec);
      }
    }
    // Shrink/grow only on a classified rank death (the liveness registry
    // names the casualties); a deadlock/timeout has no dead rank to remove,
    // so the request degrades to a restart of the same world.
    const auto casualties = static_cast<int>(attempt.run.dead_ranks.size());
    const bool rank_died =
        attempt.run.failure_kind == mp::FailureKind::kRankDeath &&
        casualties > 0;
    const bool straggled =
        attempt.run.failure_kind == mp::FailureKind::kStraggler &&
        attempt.run.straggler_rank >= 0 && attempt.run.straggler_rank < world;
    const RecoveryPolicy want =
        report.events.size() < recovery.policy_sequence.size()
            ? recovery.policy_sequence[report.events.size()]
            : recovery.policy;
    if (want == RecoveryPolicy::kRebalance && straggled) {
      const int slow = attempt.run.straggler_rank;
      event.policy = RecoveryPolicy::kRebalance;
      event.straggler_rank = slow;
      event.straggler_slowdown = attempt.run.straggler_slowdown;
      if (rebalanced_rank == slow && world > 1) {
        // The same rank was classified again after a weighted re-tile:
        // steering work away did not clear the gray failure, so demote it —
        // shrink the world by one and drop the weights (the elastic restore
        // redistributes its partitions to the survivors).
        event.demoted = true;
        world -= 1;
        weights.clear();
        rebalanced_rank = -1;
      } else {
        // Re-tile the checkpointed attribute lists away from the slow rank
        // in inverse proportion to its observed slowdown: an 8x-throttled
        // rank with 1/8 of the records finishes its level in the same wall
        // time as a healthy rank with a full share.
        weights.assign(static_cast<std::size_t>(world), 1.0);
        weights[static_cast<std::size_t>(slow)] =
            1.0 / event.straggler_slowdown;
        rebalanced_rank = slow;
      }
      attempt_controls.checkpoint.allow_repartition = true;
    } else if ((want == RecoveryPolicy::kShrink ||
                want == RecoveryPolicy::kRebalance) &&
               rank_died && world > casualties) {
      // A hard rank death under kRebalance degrades to a shrink: weights
      // cannot help a rank that is gone, and any existing weights are sized
      // for a world that no longer exists.
      world -= casualties;
      event.policy = RecoveryPolicy::kShrink;
      weights.clear();
      rebalanced_rank = -1;
      // The survivors reload a checkpoint written by the larger world.
      attempt_controls.checkpoint.allow_repartition = true;
    } else if (want == RecoveryPolicy::kGrow && rank_died &&
               world > casualties) {
      const int survivors = world - casualties;
      world = survivors + recovery.join_ranks;
      event.policy = RecoveryPolicy::kGrow;
      event.joiners = recovery.join_ranks;
      // Ranks >= survivors are joiners: they must pass the capability
      // handshake before the re-tiling restore hands them partitions.
      attempt_options.prior_world = survivors;
      attempt_controls.checkpoint.allow_repartition = true;
    } else {
      // Includes a straggler classification under a non-rebalance policy:
      // nothing is known to be dead, so the same world restarts from the
      // checkpoint.
      event.policy = RecoveryPolicy::kRestart;
      if (straggled) {
        event.straggler_rank = attempt.run.straggler_rank;
        event.straggler_slowdown = attempt.run.straggler_slowdown;
      }
    }
    attempt_controls.checkpoint.rank_weights = weights;
    event.ranks_after = world;
    const std::optional<int> latest =
        checkpoint_latest_level(controls.checkpoint.directory);
    attempt_controls.checkpoint.resume = latest.has_value();
    event.resumed_level = latest ? *latest : -1;
    {
      const char* policy = "restart";
      switch (event.policy) {
        case RecoveryPolicy::kShrink: policy = "shrink"; break;
        case RecoveryPolicy::kGrow: policy = "grow"; break;
        case RecoveryPolicy::kRebalance: policy = "rebalance"; break;
        case RecoveryPolicy::kRestart: break;
      }
      telemetry::record_event(
          "recovery", std::string(policy) + " after rank " +
                          std::to_string(event.failed_rank) +
                          " failure; world " + std::to_string(event.ranks_after) +
                          ", resume level " +
                          std::to_string(event.resumed_level));
    }
    report.events.push_back(std::move(event));
  }
}

}  // namespace scalparc::core
