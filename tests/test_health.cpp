// Gray-failure health-layer tests: phi-accrual estimator properties,
// weighted partition apportionment, env/CLI knob hardening, the slow-fault
// grammar, clean-run false-positive sweeps, adaptive timeouts under
// oversubscription and across disk I/O, the weighted-retile byte-identical
// differential, and the end-to-end straggler-detect -> rebalance ->
// (kill-during-rebalance -> shrink) recovery ladder.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"
#include "mp/fault.hpp"
#include "mp/health.hpp"
#include "mp/mailbox.hpp"
#include "mp/runtime.hpp"
#include "sort/partition_util.hpp"

namespace scalparc {
namespace {

namespace fs = std::filesystem;

std::string tree_bytes(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

data::Dataset make_training(std::uint64_t records, double noise = 0.0) {
  data::GeneratorConfig config;
  config.seed = 5;
  config.function = data::LabelFunction::kF2;
  config.num_attributes = 7;
  config.label_noise = noise;
  return data::QuestGenerator(config).generate(0, records);
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path((fs::temp_directory_path() /
              (stem + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// Restores an env var on scope exit (tests mutate the recv-timeout knob).
struct ScopedEnv {
  std::string name;
  std::string saved;
  bool had = false;
  ScopedEnv(const std::string& n, const char* value) : name(n) {
    if (const char* old = std::getenv(name.c_str())) {
      had = true;
      saved = old;
    }
    if (value) {
      ::setenv(name.c_str(), value, 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
  ~ScopedEnv() {
    if (had) {
      ::setenv(name.c_str(), saved.c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Phi-accrual estimator properties
// ---------------------------------------------------------------------------

TEST(PhiAccrual, UnprimedHasNoOpinion) {
  mp::PhiAccrualEstimator est(16, 8);
  EXPECT_FALSE(est.primed());
  EXPECT_EQ(est.phi(100.0), 0.0);
  for (int i = 0; i < 7; ++i) est.record(0.01);
  EXPECT_FALSE(est.primed());
  est.record(0.01);
  EXPECT_TRUE(est.primed());
  EXPECT_GT(est.phi(100.0), 0.0);
}

TEST(PhiAccrual, MonotoneInSilence) {
  mp::PhiAccrualEstimator est;
  for (int i = 0; i < 32; ++i) est.record(0.01);
  // The stddev floor keeps the distribution a narrow spike around the 10 ms
  // cadence, so suspicion climbs within fractions of an interval.
  const double a = est.phi(0.010);
  const double b = est.phi(0.0105);
  const double c = est.phi(0.011);
  EXPECT_LE(a, b);
  EXPECT_LT(b, c);
  // Far beyond the distribution erfc underflows and phi caps.
  EXPECT_EQ(est.phi(1000.0), mp::PhiAccrualEstimator::kMaxPhi);
}

TEST(PhiAccrual, AdaptsToSlowerCadence) {
  mp::PhiAccrualEstimator est(16, 8);
  for (int i = 0; i < 16; ++i) est.record(0.01);
  const double suspicious = est.phi(0.2);
  EXPECT_GT(suspicious, 8.0);
  // The same silence is ordinary once the observed cadence slows down: the
  // window slides, the estimator re-learns, suspicion decays.
  for (int i = 0; i < 16; ++i) est.record(0.2);
  EXPECT_LT(est.phi(0.2), 2.0);
}

TEST(PhiAccrual, TimeoutForPhiInvertsPhi) {
  mp::PhiAccrualEstimator est;
  for (int i = 0; i < 40; ++i) est.record(0.02 + 0.001 * (i % 5));
  for (const double threshold : {1.0, 4.0, 8.0, 12.0}) {
    const double t = est.timeout_for_phi(threshold);
    EXPECT_GT(t, 0.0);
    EXPECT_NEAR(est.phi(t), threshold, 0.5) << "threshold " << threshold;
  }
  EXPECT_LT(est.timeout_for_phi(2.0), est.timeout_for_phi(10.0));
}

TEST(PhiAccrual, StddevFlooredOnRegularStream) {
  mp::PhiAccrualEstimator est;
  for (int i = 0; i < 64; ++i) est.record(0.1);
  // A metronome-regular stream must not collapse into a zero-width spike
  // (which would make any microsecond of jitter look like a death).
  EXPECT_GE(est.stddev(), 0.0125 * est.mean() - 1e-12);
  EXPECT_GT(est.timeout_for_phi(8.0), est.mean());
}

// ---------------------------------------------------------------------------
// Weighted partition apportionment
// ---------------------------------------------------------------------------

TEST(WeightedPartition, SumsToTotalAndTracksWeights) {
  const std::vector<double> weights = {1.0, 0.125, 2.0, 1.0};
  for (const std::size_t total : {0UL, 1UL, 7UL, 1000UL, 65537UL}) {
    const std::vector<std::size_t> sizes =
        sort::weighted_partition_sizes(total, weights);
    ASSERT_EQ(sizes.size(), weights.size());
    std::size_t sum = 0;
    for (const std::size_t s : sizes) sum += s;
    EXPECT_EQ(sum, total) << "total " << total;
    if (total >= 1000) {
      EXPECT_LT(sizes[1], sizes[0]);  // the 1/8-weight rank gets less
      EXPECT_GT(sizes[2], sizes[0]);  // the 2x-weight rank gets more
    }
  }
}

TEST(WeightedPartition, UniformWeightsReproduceEqualPartition) {
  for (const int parts : {1, 2, 3, 8}) {
    const std::vector<double> uniform(static_cast<std::size_t>(parts), 3.5);
    for (const std::size_t total : {0UL, 1UL, 5UL, 97UL, 4096UL}) {
      EXPECT_EQ(sort::weighted_partition_sizes(total, uniform),
                sort::equal_partition_sizes(total, parts))
          << "total " << total << " parts " << parts;
    }
  }
}

TEST(WeightedPartition, RejectsDegenerateWeights) {
  EXPECT_THROW(sort::weighted_partition_sizes(10, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(
      sort::weighted_partition_sizes(10, std::vector<double>{1.0, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      sort::weighted_partition_sizes(10, std::vector<double>{1.0, -2.0}),
      std::invalid_argument);
  EXPECT_THROW(
      sort::weighted_partition_sizes(
          10, std::vector<double>{1.0, std::nan("")}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Knob hardening: env + option validation + fault grammar
// ---------------------------------------------------------------------------

TEST(HealthKnobs, ParsePositiveValueRejectsGarbage) {
  EXPECT_DOUBLE_EQ(mp::parse_positive_health_value("--x", "1.5"), 1.5);
  EXPECT_DOUBLE_EQ(mp::parse_positive_health_value("--x", "42"), 42.0);
  for (const char* bad : {"", "banana", "-3", "0", "1.5x", "nan", "inf"}) {
    try {
      mp::parse_positive_health_value("--phi-threshold", bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      // The diagnostic must name the flag and echo the offending value.
      EXPECT_NE(std::string(e.what()).find("--phi-threshold"),
                std::string::npos);
    }
  }
}

TEST(HealthKnobs, RecvTimeoutEnvRejectedAtParseTime) {
  {
    ScopedEnv env("SCALPARC_TEST_RECV_TIMEOUT_S", "banana");
    EXPECT_THROW(mp::default_recv_timeout_s(), std::invalid_argument);
  }
  {
    ScopedEnv env("SCALPARC_TEST_RECV_TIMEOUT_S", "-5");
    EXPECT_THROW(mp::default_recv_timeout_s(), std::invalid_argument);
  }
  {
    ScopedEnv env("SCALPARC_TEST_RECV_TIMEOUT_S", "17.5");
    EXPECT_DOUBLE_EQ(mp::default_recv_timeout_s(), 17.5);
  }
  {
    ScopedEnv env("SCALPARC_TEST_RECV_TIMEOUT_S", nullptr);
    EXPECT_DOUBLE_EQ(mp::default_recv_timeout_s(), 120.0);
  }
}

TEST(HealthKnobs, OptionsValidateNamesTheField) {
  mp::HealthOptions options;
  options.validate();  // defaults are sane
  options.sustain_s = -1.0;
  try {
    options.validate();
    FAIL() << "accepted negative sustain_s";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sustain_s"), std::string::npos);
  }
}

TEST(SlowFault, GrammarAndFactorLookup) {
  mp::FaultPlan plan;
  plan.parse("slow:r=2,factor=8");
  EXPECT_DOUBLE_EQ(plan.slow_factor_for(2), 8.0);
  EXPECT_DOUBLE_EQ(plan.slow_factor_for(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.slow_factor_for(7), 1.0);
}

TEST(SlowFault, RejectsMalformedSpecs) {
  for (const char* bad :
       {"slow:r=1",                    // factor is mandatory
        "slow:r=1,factor=1",           // a 1x slowdown is not a fault
        "slow:r=1,factor=0.5",         // speedups are not faults either
        "slow:r=1,factor=4,level=2",   // whole-run: no level trigger
        "slow:r=1,factor=4,op=9"}) {   // ... and no op trigger
    mp::FaultPlan plan;
    EXPECT_THROW(plan.parse(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------------

TEST(HealthRuntime, CleanRunNeverClassifiesAStraggler) {
  const data::Dataset training = make_training(2000);
  const std::string oracle =
      tree_bytes(core::ScalParC::fit(training, 4).tree);

  mp::CostModel model = mp::CostModel::zero();
  model.seconds_per_work_unit = 1e-7;
  model.realize_work = true;
  mp::RunOptions run_options;
  run_options.health.detect_stragglers = true;
  run_options.health.adaptive_timeouts = true;
  const core::FitReport report = core::ScalParC::fit(
      training, 4, core::InductionControls{}, model, run_options);
  EXPECT_EQ(tree_bytes(report.tree), oracle);
  EXPECT_EQ(report.run.metrics.value("health.stragglers_detected", 0.0), 0.0);
  EXPECT_GT(report.run.metrics.value("health.heartbeats_received", 0.0), 0.0);
}

TEST(HealthRuntime, AdaptiveTimeoutsSurviveOversubscription) {
  // 12 rank threads on however few cores CI grants: wait slices stretch far
  // beyond the observed arrival cadence, so adaptive deadlines trip and must
  // stretch (heartbeats flowing) instead of escalating to RecvTimeout.
  const data::Dataset training = make_training(1500);
  const std::string oracle =
      tree_bytes(core::ScalParC::fit(training, 12).tree);
  mp::RunOptions run_options;
  run_options.health.adaptive_timeouts = true;
  run_options.health.timeout_floor_s = 0.01;  // aggressive on purpose
  const core::FitReport report = core::ScalParC::fit(
      training, 12, core::InductionControls{}, mp::CostModel::zero(),
      run_options);
  EXPECT_EQ(tree_bytes(report.tree), oracle);
  EXPECT_EQ(report.run.failure_kind, mp::FailureKind::kNone);
}

// A rank blocked in checkpoint I/O stamps no heartbeats. Inside a
// Comm::IoScope a peer waiting on it must read it as alive and stretch its
// adaptive deadline until the message arrives; outside one, the same second
// of silence escalates to RecvTimeout.
TEST(HealthRuntime, IoScopeKeepsASilentRankAlive) {
  const auto run_with_silence = [](bool in_io_scope) {
    mp::RunOptions options;
    options.health.adaptive_timeouts = true;
    return mp::try_run_ranks(
        2, mp::CostModel::zero(),
        [in_io_scope](mp::Comm& comm) {
          // Prime rank 0's heartbeat lane and the 0 -> 1 channel's arrival
          // estimator with a fast, regular cadence.
          for (int i = 0; i < 32; ++i) {
            if (comm.rank() == 0) {
              comm.send_value<int>(1, 1, i);
            } else {
              EXPECT_EQ(comm.recv_value<int>(0, 1), i);
            }
          }
          if (comm.rank() == 0) {
            {
              std::optional<mp::Comm::IoScope> io;
              if (in_io_scope) io.emplace(comm);
              std::this_thread::sleep_for(std::chrono::seconds(1));
            }
            comm.send_value<int>(1, 2, 7);
          } else {
            EXPECT_EQ(comm.recv_value<int>(0, 2), 7);
          }
        },
        options);
  };

  const mp::RunResult inside = run_with_silence(true);
  EXPECT_FALSE(inside.failed()) << inside.failure_message;

  const mp::RunResult outside = run_with_silence(false);
  ASSERT_TRUE(outside.failed());
  EXPECT_EQ(outside.failed_rank, 1);
  EXPECT_EQ(outside.failure_kind, mp::FailureKind::kTimeout);
  EXPECT_THROW(std::rethrow_exception(outside.error), mp::RecvTimeout);
}

TEST(HealthRuntime, WeightedRetileProducesByteIdenticalTrees) {
  const data::Dataset training = make_training(1500, 0.1);
  core::InductionControls controls;
  controls.options.max_depth = 6;
  const std::string oracle =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  for (const int p : {2, 4, 8}) {
    TempDir ckpt("scalparc_health_retile_p" + std::to_string(p));
    core::InductionControls ckpt_controls = controls;
    ckpt_controls.checkpoint.directory = ckpt.path;
    // Kill mid-tree so checkpoints exist only up to level 1 and the weighted
    // resume actually re-executes levels.
    mp::FaultPlan plan;
    plan.parse("kill:r=0,level=2");
    mp::RunOptions faulty;
    faulty.fault_plan = &plan;
    EXPECT_THROW(core::ScalParC::fit(training, p, ckpt_controls,
                                     mp::CostModel::zero(), faulty),
                 mp::InjectedFault);

    core::InductionControls resume_controls = ckpt_controls;
    resume_controls.checkpoint.resume = true;
    resume_controls.checkpoint.allow_repartition = true;
    resume_controls.checkpoint.rank_weights.assign(
        static_cast<std::size_t>(p), 1.0);
    resume_controls.checkpoint.rank_weights.back() = 0.2;  // one slow rank
    const core::FitReport resumed = core::ScalParC::fit(
        training, p, resume_controls, mp::CostModel::zero(), {});
    EXPECT_EQ(tree_bytes(resumed.tree), oracle) << "p=" << p;
  }
}

TEST(HealthRuntime, WeightedRetileGuardRails) {
  const data::Dataset training = make_training(1200);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  TempDir ckpt("scalparc_health_guard");
  controls.checkpoint.directory = ckpt.path;
  (void)core::ScalParC::fit(training, 3, controls);

  // Non-uniform weights without allow_repartition: loud error.
  core::InductionControls no_permit = controls;
  no_permit.checkpoint.resume = true;
  no_permit.checkpoint.rank_weights = {1.0, 1.0, 0.5};
  EXPECT_THROW((void)core::ScalParC::fit(training, 3, no_permit),
               core::CheckpointError);

  // Weight vector sized for the wrong world: loud error.
  core::InductionControls wrong_size = no_permit;
  wrong_size.checkpoint.allow_repartition = true;
  wrong_size.checkpoint.rank_weights = {1.0, 0.5};
  EXPECT_THROW((void)core::ScalParC::fit(training, 3, wrong_size),
               core::CheckpointError);

  // The histogram engine's row ownership is structural: non-uniform weights
  // must be rejected, not silently ignored.
  core::InductionControls hist = controls;
  hist.checkpoint.directory.clear();
  hist.options.split_mode = core::SplitMode::kHistogram;
  hist.checkpoint.rank_weights = {1.0, 1.0, 0.5};
  hist.checkpoint.allow_repartition = true;
  EXPECT_THROW((void)core::ScalParC::fit(training, 3, hist),
               std::invalid_argument);
}

// Shared setup for the end-to-end straggler runs: realized work makes the
// throttled rank measurably busy; the tight sustain window keeps the test
// fast while still spanning a full induction level.
struct StragglerRig {
  data::Dataset training = make_training(2400, 0.15);
  core::InductionControls controls;
  mp::CostModel model = mp::CostModel::zero();
  mp::RunOptions run_options;

  StragglerRig() {
    controls.options.max_depth = 8;
    model.seconds_per_work_unit = 5e-6;
    model.realize_work = true;
    run_options.health.detect_stragglers = true;
    run_options.health.adaptive_timeouts = true;
    run_options.health.sustain_s = 1.0;
    run_options.health.min_blocked_s = 0.2;
  }
};

TEST(HealthRuntime, StragglerDetectedAndRebalanced) {
  StragglerRig rig;
  const std::string oracle =
      tree_bytes(core::ScalParC::fit(rig.training, 4, rig.controls).tree);

  TempDir ckpt("scalparc_health_rebalance");
  core::InductionControls ckpt_controls = rig.controls;
  ckpt_controls.checkpoint.directory = ckpt.path;

  mp::FaultSchedule schedule;
  for (int i = 0; i < 4; ++i) {
    schedule.add_plan().parse("slow:r=3,factor=8");  // gray failure persists
  }
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kRebalance;
  recovery.max_retries = 3;
  recovery.fault_schedule = &schedule;

  const core::RecoveryReport report = core::ScalParC::fit_with_recovery(
      rig.training, 4, ckpt_controls, recovery, rig.model, rig.run_options);
  ASSERT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(tree_bytes(report.fit.tree), oracle);
  ASSERT_FALSE(report.events.empty());
  const core::RecoveryEvent& first = report.events.front();
  EXPECT_EQ(first.policy, core::RecoveryPolicy::kRebalance);
  EXPECT_EQ(first.straggler_rank, 3);
  EXPECT_GT(first.straggler_slowdown, 1.5);
  EXPECT_FALSE(first.demoted);
  EXPECT_EQ(first.ranks_after, 4);  // rebalance keeps the world
}

TEST(HealthRuntime, KillDuringRebalanceDegradesToShrink) {
  StragglerRig rig;
  const std::string oracle =
      tree_bytes(core::ScalParC::fit(rig.training, 4, rig.controls).tree);

  TempDir ckpt("scalparc_health_kill_rebalance");
  core::InductionControls ckpt_controls = rig.controls;
  ckpt_controls.checkpoint.directory = ckpt.path;

  // Attempt 0: rank 3 crawls -> straggler -> rebalance. Attempt 1: the
  // rebalanced replay loses rank 1 -> kRebalance degrades to a shrink. The
  // kill is op-triggered so it provably fires before the still-slow rank 3
  // can accrue a second straggler classification (the level-synchronous run
  // is paced by the straggler, so a level trigger would lose that race).
  // Attempt 2+: clean, finishes on the 3 survivors.
  mp::FaultSchedule schedule;
  schedule.add_plan().parse("slow:r=3,factor=8");
  schedule.add_plan().parse("slow:r=3,factor=8;kill:r=1,op=120");
  core::RecoveryControls recovery;
  recovery.policy = core::RecoveryPolicy::kRebalance;
  recovery.max_retries = 4;
  recovery.fault_schedule = &schedule;

  const core::RecoveryReport report = core::ScalParC::fit_with_recovery(
      rig.training, 4, ckpt_controls, recovery, rig.model, rig.run_options);
  ASSERT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  EXPECT_EQ(tree_bytes(report.fit.tree), oracle);
  ASSERT_GE(report.events.size(), 2U);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kRebalance);
  EXPECT_EQ(report.events[0].straggler_rank, 3);
  bool shrank = false;
  std::string ledger;
  for (const core::RecoveryEvent& event : report.events) {
    ledger += "[policy=" + std::to_string(static_cast<int>(event.policy)) +
              " failed_rank=" + std::to_string(event.failed_rank) +
              " resumed=" + std::to_string(event.resumed_level) +
              " ranks_after=" + std::to_string(event.ranks_after) +
              " demoted=" + std::to_string(event.demoted) + " msg=" +
              event.message + "]";
    if (event.policy == core::RecoveryPolicy::kShrink) {
      shrank = true;
      EXPECT_EQ(event.ranks_after, 3);
    }
  }
  EXPECT_TRUE(shrank) << "rank death under kRebalance must degrade to shrink; "
                      << "events: " << ledger;
}

}  // namespace
}  // namespace scalparc
