// Robustness bench: what does level checkpointing cost, and how much faster
// is checkpoint recovery than retraining from scratch?
//
//   ./fault_recovery [--records N] [--ranks P] [--depth D] [--csv DIR]
//
// Phase 1 measures the checkpoint write overhead: a fault-free fit with no
// checkpoint directory vs the same fit persisting every level boundary.
// Phase 2 kills one rank at each level in turn (deterministic injection),
// then times resume-from-checkpoint against a full retrain; both must yield
// a tree byte-identical to the fault-free baseline (verified via tree_io).
// Phase 3 compares the two recovery policies end to end: after a mid-tree
// rank death, restart the full world from the checkpoint vs shrink to the
// p-1 survivors and repartition (elastic restore) — both byte-identical.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/tree_io.hpp"
#include "mp/fault.hpp"

namespace {

double wall_seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

std::string tree_bytes(const scalparc::core::DecisionTree& tree) {
  std::ostringstream out;
  scalparc::core::save_tree(tree, out);
  return out.str();
}

std::uint64_t dir_bytes(const std::string& root) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);
  const auto records = static_cast<std::uint64_t>(args.get_int("records", 50000));
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const int depth = static_cast<int>(args.get_int("depth", 8));

  const data::Dataset training = bench::paper_generator().generate(0, records);
  core::InductionControls controls;
  controls.options.max_depth = depth;

  const std::string ckpt_root =
      (std::filesystem::temp_directory_path() /
       ("scalparc_fault_bench_" + std::to_string(::getpid())))
          .string();

  // Phase 1: checkpoint write overhead.
  core::FitReport baseline;
  const double baseline_s = wall_seconds(
      [&] { baseline = core::ScalParC::fit(training, ranks, controls); });
  const std::string expected = tree_bytes(baseline.tree);

  core::InductionControls ckpt_controls = controls;
  ckpt_controls.checkpoint.directory = ckpt_root;
  core::FitReport checkpointed;
  const double checkpointed_s = wall_seconds([&] {
    checkpointed = core::ScalParC::fit(training, ranks, ckpt_controls);
  });
  const double ckpt_mb = static_cast<double>(dir_bytes(ckpt_root)) / 1e6;
  const int levels = checkpointed.stats.levels;
  if (tree_bytes(checkpointed.tree) != expected) {
    std::printf("ERROR: checkpointed run produced a different tree\n");
    return 1;
  }

  std::printf("fault recovery: %llu records, %d ranks, %d levels\n\n",
              static_cast<unsigned long long>(records), ranks, levels);
  std::printf("fault-free fit:        %8.3f s\n", baseline_s);
  std::printf("with level checkpoints:%8.3f s  (%.2fx, %.2f MB on disk)\n\n",
              checkpointed_s, checkpointed_s / baseline_s, ckpt_mb);

  bench::CsvWriter csv(args, "fault_recovery.csv",
                       "kill_level,recovery_s,retrain_s,speedup");

  // Phase 2: kill one rank at each level, then recover.
  std::printf("%10s | %12s %12s | %8s\n", "kill level", "recovery(s)",
              "retrain(s)", "speedup");
  for (int level = 0; level < levels; ++level) {
    std::filesystem::remove_all(ckpt_root);
    mp::FaultPlan plan;
    plan.parse("kill:r=" + std::to_string(ranks - 1) +
               ",level=" + std::to_string(level));
    mp::RunOptions faulty;
    faulty.fault_plan = &plan;
    bool failed = false;
    try {
      (void)core::ScalParC::fit(training, ranks, ckpt_controls,
                                mp::CostModel::zero(), faulty);
    } catch (const mp::InjectedFault&) {
      failed = true;
    }
    if (!failed) {
      std::printf("ERROR: injected kill at level %d did not fire\n", level);
      return 1;
    }

    core::FitReport recovered;
    const double recovery_s = wall_seconds([&] {
      recovered = core::ScalParC::resume_from_checkpoint(training, ranks,
                                                         ckpt_controls);
    });
    if (tree_bytes(recovered.tree) != expected) {
      std::printf("ERROR: recovery at level %d diverged from baseline\n",
                  level);
      return 1;
    }
    const double retrain_s = wall_seconds(
        [&] { (void)core::ScalParC::fit(training, ranks, controls); });
    std::printf("%10d | %12.3f %12.3f | %7.2fx\n", level, recovery_s,
                retrain_s, retrain_s / recovery_s);
    csv.row("%d,%.6f,%.6f,%.6f", level, recovery_s, retrain_s,
            retrain_s / recovery_s);
  }

  // Phase 3: restart vs shrink-to-survivors after a mid-tree rank death.
  // Each timed run covers the whole recovery: the failed attempt, the
  // checkpoint reload (full-world restart vs elastic repartition across the
  // survivors) and the completion of the tree.
  bench::CsvWriter policy_csv(
      args, "fault_recovery_policy.csv",
      "kill_level,restart_s,shrink_s,shrink_ranks,ratio");
  std::printf("\nrecovery policy after a rank death (full recovery time)\n");
  std::printf("%10s | %12s %12s | %8s\n", "kill level", "restart(s)",
              "shrink(s)", "ratio");
  for (int level = 1; level < levels; level += 2) {
    double policy_seconds[2] = {0.0, 0.0};
    int shrink_ranks = ranks;
    for (const core::RecoveryPolicy policy :
         {core::RecoveryPolicy::kRestart, core::RecoveryPolicy::kShrink}) {
      std::filesystem::remove_all(ckpt_root);
      mp::FaultPlan plan;
      plan.parse("kill:r=" + std::to_string(ranks - 1) +
                 ",level=" + std::to_string(level));
      mp::RunOptions faulty;
      faulty.fault_plan = &plan;
      core::RecoveryControls recovery;
      recovery.policy = policy;
      core::RecoveryReport report;
      const double recovery_s = wall_seconds([&] {
        report = core::ScalParC::fit_with_recovery(
            training, ranks, ckpt_controls, recovery, mp::CostModel::zero(),
            faulty);
      });
      if (report.outcome != core::RecoveryOutcome::kCompleted) {
        std::printf("ERROR: recovery at level %d ended %s\n", level,
                    core::to_string(report.outcome));
        return 1;
      }
      if (tree_bytes(report.fit.tree) != expected) {
        std::printf("ERROR: %s recovery at level %d diverged from baseline\n",
                    policy == core::RecoveryPolicy::kShrink ? "shrink"
                                                            : "restart",
                    level);
        return 1;
      }
      if (policy == core::RecoveryPolicy::kShrink) {
        policy_seconds[1] = recovery_s;
        shrink_ranks = report.events.empty() ? ranks
                                             : report.events[0].ranks_after;
      } else {
        policy_seconds[0] = recovery_s;
      }
    }
    std::printf("%10d | %12.3f %12.3f | %7.2fx  (%d survivors)\n", level,
                policy_seconds[0], policy_seconds[1],
                policy_seconds[0] / policy_seconds[1], shrink_ranks);
    policy_csv.row("%d,%.6f,%.6f,%d,%.6f", level, policy_seconds[0],
                   policy_seconds[1], shrink_ranks,
                   policy_seconds[0] / policy_seconds[1]);
  }

  std::filesystem::remove_all(ckpt_root);
  std::printf("\nall recovered trees byte-identical to the fault-free run\n");
  std::printf("csv: %s, %s\n", csv.path().c_str(), policy_csv.path().c_str());
  return 0;
}
