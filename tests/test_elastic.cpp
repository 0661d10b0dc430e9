// Elastic-membership recovery tests: the FaultSchedule grammar for
// compound (per-attempt) fault plans, the joiner capability handshake,
// grow-to-joiners recovery (byte-identical trees across every re-tile
// geometry), compound faults — a second kill during a shrink recovery, a
// kill right after a grow admit, a grow -> shrink -> grow round trip —
// recovery budgets, and the checkpoint I/O decision table (transient write
// faults heal silently, persistent ones classify as unrecoverable,
// corrupt-on-read discards the damaged level and restarts from an earlier
// one).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"
#include "mp/chaos.hpp"
#include "mp/comm.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"

namespace scalparc {
namespace {

namespace fs = std::filesystem;

const mp::CostModel kZero = mp::CostModel::zero();

std::string tree_bytes(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

data::Dataset make_training(std::uint64_t records, std::uint64_t seed = 3) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.function = data::LabelFunction::kF2;
  config.num_attributes = 7;
  return data::QuestGenerator(config).generate(0, records);
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path((fs::temp_directory_path() /
              (stem + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++)))
                 .string()) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter_ = 0;
};

std::string what_of(const std::exception_ptr& error) {
  if (!error) return "";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "<non-std exception>";
  }
}

// ---------------------------------------------------------------------------
// FaultSchedule grammar
// ---------------------------------------------------------------------------

TEST(FaultSchedule, ParsesPerAttemptPlans) {
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=2,level=2 | kill:r=1,level=3");
  ASSERT_EQ(schedule.size(), 2);
  ASSERT_NE(schedule.plan(0), nullptr);
  EXPECT_TRUE(schedule.plan(0)->kills_at_level(2, 2));
  ASSERT_NE(schedule.plan(1), nullptr);
  EXPECT_TRUE(schedule.plan(1)->kills_at_level(1, 3));
  // Past the end the run is clean — every schedule eventually terminates.
  EXPECT_EQ(schedule.plan(2), nullptr);
  EXPECT_EQ(schedule.plan(100), nullptr);
}

TEST(FaultSchedule, EmptySegmentIsACleanAttempt) {
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=0,level=1 || kill:r=1,level=2");
  ASSERT_NE(schedule.plan(0), nullptr);
  EXPECT_EQ(schedule.plan(1), nullptr);  // deliberately clean retry
  ASSERT_NE(schedule.plan(2), nullptr);
  EXPECT_TRUE(schedule.plan(2)->kills_at_level(1, 2));
}

TEST(FaultSchedule, SeedPropagatesToEveryPlan) {
  mp::FaultSchedule schedule;
  schedule.parse("corrupt:r=0,op=5 | corrupt:r=1,op=6");
  schedule.set_seed(77);
  EXPECT_EQ(schedule.plan(0)->seed(), 77u);
  EXPECT_EQ(schedule.plan(1)->seed(), 77u);
}

TEST(FaultSchedule, DiagnosticsNameTheAttempt) {
  mp::FaultSchedule schedule;
  try {
    schedule.parse("kill:r=0,level=1 | kill:r=9,level=");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("attempt 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bad number"), std::string::npos) << what;
    EXPECT_NE(what.find("level="), std::string::npos) << what;
  }
}

TEST(FaultPlan, DiagnosticsPinpointEntryColumnAndField) {
  mp::FaultPlan plan;
  try {
    plan.parse("kill:r=1,op=5 ; corrupt:node=0,op=2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entry 2"), std::string::npos) << what;
    EXPECT_NE(what.find("col"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown field 'node'"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Joiner capability handshake
// ---------------------------------------------------------------------------

TEST(JoinHandshake, AdmitsMatchingJoiners) {
  mp::RunOptions options;
  options.prior_world = 2;
  std::atomic<int> admitted_total{0};
  const mp::RunResult run = mp::try_run_ranks(
      4, kZero,
      [&](mp::Comm& comm) {
        mp::JoinCapability capability;
        capability.fingerprint = 42;
        capability.total_records = 1000;
        capability.num_attributes = 7;
        admitted_total += mp::join_handshake(comm, capability);
      },
      options);
  EXPECT_FALSE(run.failed());
  // Every rank learns the admitted count: 2 joiners x 4 ranks.
  EXPECT_EQ(admitted_total.load(), 8);
}

TEST(JoinHandshake, RejectsMismatchedCapability) {
  mp::RunOptions options;
  options.prior_world = 2;
  const mp::RunResult run = mp::try_run_ranks(
      3, kZero,
      [](mp::Comm& comm) {
        mp::JoinCapability capability;
        capability.fingerprint =
            comm.rank() >= comm.prior_world() ? 7u : 42u;  // joiner disagrees
        capability.total_records = 1000;
        capability.num_attributes = 7;
        (void)mp::join_handshake(comm, capability);
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failed_rank, 0);  // the root refuses the admit
  EXPECT_NE(run.failure_message.find("capability mismatch"),
            std::string::npos)
      << run.failure_message;
}

TEST(JoinHandshake, NoOpWithoutPriorWorld) {
  const mp::RunResult run = mp::try_run_ranks(2, kZero, [](mp::Comm& comm) {
    mp::JoinCapability capability;
    EXPECT_EQ(mp::join_handshake(comm, capability), 0);
  });
  EXPECT_FALSE(run.failed());
}

// ---------------------------------------------------------------------------
// Grow-to-joiners recovery
// ---------------------------------------------------------------------------

TEST(GrowRecovery, JoinersContinueFromCheckpointToIdenticalTree) {
  const data::Dataset training = make_training(4000);
  core::InductionControls controls;
  controls.options.max_depth = 6;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  TempDir dir("scalparc_grow");
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=2,level=2");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kGrow;
  recovery.join_ranks = 2;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 4, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].failed_rank, 2);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kGrow);
  EXPECT_EQ(report.events[0].ranks_after, 5);  // 3 survivors + 2 joiners
  EXPECT_EQ(report.events[0].joiners, 2);
  EXPECT_EQ(report.events[0].resumed_level, 2);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
  // The successful attempt's metrics carry the grow evidence: the admitted
  // joiners and the bytes the 4-rank checkpoint moved to re-tile onto 5.
  EXPECT_GE(report.fit.run.metrics.value("recovery.joiners_admitted", 0.0),
            2.0);
  EXPECT_GT(report.fit.run.metrics.value("recovery.retile_bytes", 0.0), 0.0);
}

// Grow matrix: kill levels x world sizes x joiner counts, including a grow
// *past* the original world (2 casualties never happen here, so new worlds
// p-1+k range from p to p+1). The tree must stay byte-identical to the
// fault-free oracle in every geometry.
TEST(GrowRecovery, GrowMatrixAcrossLevelsWorldsAndJoinerCounts) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  for (const int p : {2, 3}) {
    for (int level = 1; level <= 2; ++level) {
      for (const int join : {1, 2}) {
        const int victim = (level + 1) % p;
        TempDir dir("scalparc_grow_matrix");
        mp::FaultSchedule schedule;
        schedule.parse("kill:r=" + std::to_string(victim) +
                       ",level=" + std::to_string(level));
        core::InductionControls ckpt = controls;
        ckpt.checkpoint.directory = dir.path;
        core::RecoveryControls recovery;
        recovery.policy = core::RecoveryPolicy::kGrow;
        recovery.join_ranks = join;
        recovery.fault_schedule = &schedule;
        const core::RecoveryReport report =
            core::ScalParC::fit_with_recovery(training, p, ckpt, recovery);
        const std::string cell = "p=" + std::to_string(p) +
                                 " level=" + std::to_string(level) +
                                 " join=" + std::to_string(join);
        EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted) << cell;
        ASSERT_EQ(report.events.size(), 1u) << cell;
        EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kGrow)
            << cell;
        EXPECT_EQ(report.events[0].ranks_after, p - 1 + join) << cell;
        EXPECT_EQ(tree_bytes(report.fit.tree), expected) << cell;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Compound faults (FaultSchedule across recovery attempts)
// ---------------------------------------------------------------------------

// A second rank dies *during* the shrink recovery; the world shrinks twice
// and the final two survivors still produce the oracle tree.
TEST(CompoundFaults, SecondKillDuringShrinkRecovery) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  TempDir dir("scalparc_double_kill");
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=2,level=2 | kill:r=1,level=3");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kShrink;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 4, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 3);
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.events[0].ranks_after, 3);
  EXPECT_EQ(report.events[1].ranks_after, 2);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// A joiner is admitted by a grow recovery and a rank is killed at the very
// resume level — the recovery machinery must absorb a failure immediately
// after the admit.
TEST(CompoundFaults, KillRightAfterGrowAdmit) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 3, controls).tree);

  TempDir dir("scalparc_kill_after_admit");
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=1,level=2 | kill:r=2,level=2");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kGrow;
  recovery.join_ranks = 1;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 3, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 3);
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kGrow);
  EXPECT_EQ(report.events[1].policy, core::RecoveryPolicy::kGrow);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// Per-event policy overrides: grow, then shrink, then grow again. The world
// walks 3 -> 3 -> 2 -> 2 and every membership change re-tiles correctly.
TEST(CompoundFaults, GrowShrinkGrowRoundTrip) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 3, controls).tree);

  TempDir dir("scalparc_round_trip");
  mp::FaultSchedule schedule;
  schedule.parse(
      "kill:r=0,level=1 | kill:r=1,level=2 | kill:r=0,level=3");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.policy_sequence = {core::RecoveryPolicy::kGrow,
                              core::RecoveryPolicy::kShrink,
                              core::RecoveryPolicy::kGrow};
  recovery.join_ranks = 1;
  recovery.max_retries = 5;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 3, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 4);
  ASSERT_EQ(report.events.size(), 3u);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kGrow);
  EXPECT_EQ(report.events[0].ranks_after, 3);  // 2 survivors + 1 joiner
  EXPECT_EQ(report.events[1].policy, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.events[1].ranks_after, 2);
  EXPECT_EQ(report.events[2].policy, core::RecoveryPolicy::kGrow);
  EXPECT_EQ(report.events[2].ranks_after, 2);  // 1 survivor + 1 joiner
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// Corrupt and drop on the *same* channel within one level: the transport
// heals both in-band and the run completes first try, byte-identical.
TEST(CompoundFaults, CorruptAndDropOnOneChannelHealInBand) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  mp::FaultPlan plan;
  plan.parse("corrupt:r=0,op=6 ; drop:r=0,op=8");
  mp::RunOptions options;
  options.fault_plan = &plan;
  options.reliability.backoff_ms = 4.0;
  options.reliability.backoff_cap_ms = 40.0;
  const core::FitReport report =
      core::ScalParC::fit(training, 2, controls, kZero, options);
  EXPECT_EQ(tree_bytes(report.tree), expected);
  EXPECT_GT(report.run.transport.heal_events(), 0u);
}

// ---------------------------------------------------------------------------
// Recovery budgets (degraded-mode guardrails)
// ---------------------------------------------------------------------------

TEST(RecoveryBudget, MaxRecoveriesFailsFastWithClassifiedOutcome) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;

  TempDir dir("scalparc_budget");
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=0,level=1 | kill:r=1,level=1 | kill:r=0,level=2");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kRestart;
  recovery.max_retries = 5;
  recovery.budget.max_recoveries = 1;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 2, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kRecoveryBudgetExhausted);
  EXPECT_EQ(report.attempts, 2);  // initial + the one budgeted recovery
  EXPECT_EQ(report.events.size(), 1u);
  ASSERT_TRUE(report.last_error);
  EXPECT_NE(what_of(report.last_error).find("killed"), std::string::npos)
      << what_of(report.last_error);
  EXPECT_GT(report.heal_seconds, 0.0);
}

TEST(RecoveryBudget, HealSecondsCeilingFailsFast) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;

  TempDir dir("scalparc_heal_budget");
  mp::FaultSchedule schedule;
  schedule.parse("kill:r=0,level=1 | kill:r=1,level=1");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.max_retries = 5;
  // Any failed attempt burns more than a nanosecond of wall clock, so the
  // first failure already exceeds the ceiling.
  recovery.budget.max_heal_seconds = 1e-9;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 2, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kRecoveryBudgetExhausted);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_TRUE(report.events.empty());
  ASSERT_TRUE(report.last_error);
}

TEST(RecoveryBudget, RetriesExhaustedClassified) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;

  TempDir dir("scalparc_retries");
  mp::FaultSchedule schedule;
  schedule.parse(
      "kill:r=0,level=1 | kill:r=1,level=1 | kill:r=0,level=2 |"
      "kill:r=1,level=2");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.max_retries = 2;
  recovery.fault_schedule = &schedule;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 2, ckpt, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kRetriesExhausted);
  EXPECT_EQ(report.attempts, 3);  // initial + 2 retries, all killed
  EXPECT_EQ(report.events.size(), 2u);
  ASSERT_TRUE(report.last_error);
}

// ---------------------------------------------------------------------------
// Checkpoint I/O decision table
// ---------------------------------------------------------------------------

TEST(CheckpointFaults, TransientWriteFaultsHealSilently) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  TempDir dir("scalparc_transient_io");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::detail::arm_checkpoint_write_fault(2);
  core::FitReport report;
  try {
    report = core::ScalParC::fit(training, 2, ckpt);
  } catch (...) {
    core::detail::clear_checkpoint_write_fault();
    throw;
  }
  core::detail::clear_checkpoint_write_fault();
  EXPECT_EQ(tree_bytes(report.tree), expected);
  EXPECT_GE(report.run.metrics.value("checkpoint.write_retries", 0.0), 1.0);
}

// Durability: every checkpoint file is fsynced once, and every commit syncs
// the staging directory and then the root, so a fit's checkpoint.fsyncs is
// the number of files under the root plus two per committed level.
TEST(CheckpointFaults, EveryFileAndEveryCommitIsFsynced) {
  const data::Dataset training = make_training(2000);
  for (const core::SplitMode mode :
       {core::SplitMode::kExact, core::SplitMode::kHistogram}) {
    SCOPED_TRACE(mode == core::SplitMode::kExact ? "exact" : "histogram");
    TempDir dir("scalparc_fsyncs");
    core::InductionControls ckpt;
    ckpt.options.max_depth = 5;
    ckpt.options.split_mode = mode;
    ckpt.checkpoint.directory = dir.path;
    const core::FitReport report = core::ScalParC::fit(training, 3, ckpt);
    std::size_t files = 0;
    std::size_t levels = 0;
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(dir.path)) {
      if (entry.is_regular_file()) {
        ++files;
      } else if (entry.is_directory()) {
        EXPECT_EQ(entry.path().filename().string().rfind("level_", 0), 0u)
            << entry.path();
        ++levels;
      }
    }
    ASSERT_GT(levels, 1u);
    EXPECT_EQ(static_cast<int>(levels), report.stats.levels);
    EXPECT_EQ(report.run.metrics.value("checkpoint.fsyncs", 0.0),
              static_cast<double>(files + 2 * levels));
  }
}

TEST(CheckpointFaults, PersistentWriteFaultClassifiedUnrecoverable) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;

  TempDir dir("scalparc_persistent_io");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  core::RecoveryControls recovery;
  recovery.max_retries = 3;
  core::detail::arm_checkpoint_write_fault(100000);  // disk is simply broken
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 2, ckpt, recovery);
  core::detail::clear_checkpoint_write_fault();
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kUnrecoverable);
  EXPECT_EQ(report.attempts, 1);  // retrying cannot help, no retry happened
  ASSERT_TRUE(report.last_error);
  EXPECT_THROW(std::rethrow_exception(report.last_error),
               core::CheckpointIoError);
}

TEST(CheckpointFaults, CorruptOnReadDiscardsLevelAndRecovers) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  TempDir dir("scalparc_corrupt_read");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  // Seed the directory with a full run's checkpoints, then damage the
  // latest level on disk.
  (void)core::ScalParC::fit(training, 2, ckpt);
  const std::optional<int> latest = core::checkpoint_latest_level(dir.path);
  ASSERT_TRUE(latest.has_value());
  const std::string damaged =
      core::checkpoint_level_dir(dir.path, *latest) + "/rank0_cont0.bin";
  {
    std::ofstream file(damaged,
                       std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(0);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    file.write(garbage, sizeof(garbage));
  }

  // A plain resume must refuse the damaged checkpoint loudly...
  core::InductionControls resume = ckpt;
  resume.checkpoint.resume = true;
  EXPECT_THROW(core::ScalParC::resume_from_checkpoint(training, 2, resume),
               core::CheckpointCorruptError);

  // ...while fit_with_recovery classifies it, discards the damaged level,
  // and resumes from an earlier one to the identical tree.
  core::RecoveryControls recovery;
  const core::RecoveryReport report =
      core::ScalParC::fit_with_recovery(training, 2, resume, recovery);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_LT(report.events[0].resumed_level, *latest);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// ---------------------------------------------------------------------------
// Chaos generator determinism
// ---------------------------------------------------------------------------

TEST(ChaosGenerator, SameSeedSameSchedule) {
  mp::ChaosSpec spec;
  spec.world = 4;
  spec.levels = 6;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const mp::GeneratedChaos a = mp::generate_chaos(seed, spec);
    const mp::GeneratedChaos b = mp::generate_chaos(seed, spec);
    EXPECT_EQ(a.archetype, b.archetype) << "seed " << seed;
    EXPECT_EQ(a.description, b.description) << "seed " << seed;
    EXPECT_EQ(a.checkpoint_write_faults, b.checkpoint_write_faults)
        << "seed " << seed;
    ASSERT_EQ(a.schedule.size(), b.schedule.size()) << "seed " << seed;
    for (int i = 0; i < a.schedule.size(); ++i) {
      const mp::FaultPlan* pa = a.schedule.plan(i);
      const mp::FaultPlan* pb = b.schedule.plan(i);
      ASSERT_EQ(pa == nullptr, pb == nullptr) << "seed " << seed;
      if (pa == nullptr) continue;
      ASSERT_EQ(pa->actions().size(), pb->actions().size()) << "seed " << seed;
      for (std::size_t k = 0; k < pa->actions().size(); ++k) {
        EXPECT_EQ(pa->actions()[k].kind, pb->actions()[k].kind);
        EXPECT_EQ(pa->actions()[k].rank, pb->actions()[k].rank);
        EXPECT_EQ(pa->actions()[k].op, pb->actions()[k].op);
        EXPECT_EQ(pa->actions()[k].level, pb->actions()[k].level);
      }
    }
  }
}

TEST(ChaosGenerator, EveryArchetypeAppearsAcrossSeeds) {
  mp::ChaosSpec spec;
  spec.world = 4;
  spec.levels = 6;
  std::vector<bool> seen(4, false);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const mp::GeneratedChaos chaos = mp::generate_chaos(seed, spec);
    seen[static_cast<int>(chaos.archetype)] = true;
  }
  for (int a = 0; a < 4; ++a) {
    EXPECT_TRUE(seen[a]) << "archetype " << a << " never generated";
  }
}

}  // namespace
}  // namespace scalparc
