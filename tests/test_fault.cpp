// Fault-injection and recovery tests: the FaultPlan grammar, kill/corrupt/
// delay/drop injection through the runtime, abort propagation promptness,
// deadlock and timeout reaping of blocked receivers, post-run channel
// hygiene, and the end-to-end guarantee: kill any rank at any level of the
// induction loop, resume from the level checkpoint, and recover a tree
// byte-identical to the fault-free run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/synthetic.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "sort/partition_util.hpp"
#include "sprint/serial_sprint.hpp"

namespace scalparc {
namespace {

namespace fs = std::filesystem;

const mp::CostModel kZero = mp::CostModel::zero();

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

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

// RAII temp directory for checkpoint roots.
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

// fit_with_recovery under `policy`, otherwise default recovery controls.
// Every caller expects the fit to complete.
core::RecoveryReport recover(
    const data::Dataset& training, int p,
    const core::InductionControls& controls, const mp::RunOptions& options,
    core::RecoveryPolicy policy = core::RecoveryPolicy::kRestart) {
  core::RecoveryControls recovery;
  recovery.policy = policy;
  core::RecoveryReport report = core::ScalParC::fit_with_recovery(
      training, p, controls, recovery, kZero, options);
  EXPECT_EQ(report.outcome, core::RecoveryOutcome::kCompleted);
  return report;
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryKind) {
  mp::FaultPlan plan;
  plan.parse(
      "kill:r=2,level=3 ; kill:r=1,op=50; corrupt:r=0,op=10 ;"
      "delay:r=1,op=5,ms=20;drop:r=0,op=3");
  ASSERT_EQ(plan.actions().size(), 5u);
  EXPECT_EQ(plan.actions()[0].kind, mp::FaultKind::kKill);
  EXPECT_EQ(plan.actions()[0].rank, 2);
  EXPECT_EQ(plan.actions()[0].level, 3);
  EXPECT_EQ(plan.actions()[0].op, -1);
  EXPECT_EQ(plan.actions()[1].op, 50);
  EXPECT_EQ(plan.actions()[2].kind, mp::FaultKind::kCorrupt);
  EXPECT_EQ(plan.actions()[3].kind, mp::FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(plan.actions()[3].delay_ms, 20.0);
  EXPECT_EQ(plan.actions()[4].kind, mp::FaultKind::kDrop);
  EXPECT_TRUE(plan.kills_at_level(2, 3));
  EXPECT_FALSE(plan.kills_at_level(2, 2));
  EXPECT_TRUE(plan.kills_at_op(1, 50));
  EXPECT_TRUE(plan.corrupts_at_op(0, 10));
  EXPECT_TRUE(plan.drops_at_op(0, 3));
  EXPECT_DOUBLE_EQ(plan.delay_ms_at_op(1, 5), 20.0);
  EXPECT_DOUBLE_EQ(plan.delay_ms_at_op(1, 6), 0.0);
}

TEST(FaultPlan, ParsesDuplicateKind) {
  mp::FaultPlan plan;
  plan.parse("duplicate:r=1,op=4");
  ASSERT_EQ(plan.actions().size(), 1u);
  EXPECT_EQ(plan.actions()[0].kind, mp::FaultKind::kDuplicate);
  EXPECT_TRUE(plan.duplicates_at_op(1, 4));
  EXPECT_FALSE(plan.duplicates_at_op(1, 5));
  EXPECT_FALSE(plan.duplicates_at_op(0, 4));
}

// Two actions with the same (kind, rank, trigger) would fire twice at one
// point; the parser rejects the plan and names the offending entry.
TEST(FaultPlan, RejectsDuplicateActions) {
  const struct {
    const char* spec;
    const char* offender;  // entry text the diagnostic must quote
  } bad[] = {
      {"drop:r=0,op=3 ; drop:r=0,op=3", "drop:r=0,op=3"},
      {"kill:r=2,level=3;corrupt:r=1,op=9;kill:r=2,level=3",
       "kill:r=2,level=3"},
      {"duplicate:r=1,op=4 ;duplicate:r=1,op=4", "duplicate:r=1,op=4"},
  };
  for (const auto& c : bad) {
    mp::FaultPlan plan;
    try {
      plan.parse(c.spec);
      FAIL() << "accepted: " << c.spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("duplicates an earlier action"), std::string::npos)
          << c.spec << " -> " << what;
      EXPECT_NE(what.find(c.offender), std::string::npos)
          << c.spec << " -> " << what;
    }
  }
  // Same kind and rank but different triggers is a legitimate plan.
  mp::FaultPlan ok;
  ok.parse("drop:r=0,op=3 ; drop:r=0,op=4");
  EXPECT_EQ(ok.actions().size(), 2u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "kill",                      // no trigger
      "kill:level=3",              // no rank
      "kill:r=1",                  // neither op nor level
      "kill:r=1,op=2,level=3",     // both triggers
      "corrupt:r=1,level=2",       // only kill supports level triggers
      "drop:r=0,level=1",          // likewise
      "delay:r=1,op=5",            // delay needs ms
      "delay:r=1,op=5,ms=0",       // ...a positive ms
      "explode:r=1,op=5",          // unknown kind
      "kill:r=x,op=5",             // unparsable number
      "kill:r=1,op=5,bogus=7",     // unknown key
  };
  for (const char* spec : bad) {
    mp::FaultPlan plan;
    EXPECT_THROW(plan.parse(spec), std::invalid_argument) << spec;
  }
}

// ---------------------------------------------------------------------------
// Kill injection and abort propagation
// ---------------------------------------------------------------------------

TEST(FaultInjection, OpKillIsReportedAsPrimaryFailure) {
  mp::FaultPlan plan;
  plan.parse("kill:r=1,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  const mp::RunResult run =
      mp::try_run_ranks(4, kZero,
                        [](mp::Comm& comm) {
                          std::vector<std::int64_t> v{comm.rank()};
                          (void)mp::allreduce_vec(
                              comm, std::span<const std::int64_t>(v),
                              mp::SumOp{});
                        },
                        options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failed_rank, 1);
  EXPECT_NE(run.failure_message.find("injected fault"), std::string::npos);
  EXPECT_NE(run.failure_message.find("rank 1"), std::string::npos);
  EXPECT_EQ(plan.kills_injected(), 1u);
}

// A receiver already blocked in recv when the failing rank poisons the
// channels must unwind with RankAborted promptly, not wait for a timeout.
TEST(FaultInjection, BlockedReceiversUnwindPromptlyOnPeerFailure) {
  for (const int p : {2, 4, 8}) {
    mp::FaultPlan plan;
    plan.parse("kill:r=0,op=1");
    mp::RunOptions options;
    options.fault_plan = &plan;
    options.recv_timeout_s = 300.0;  // must not be what wakes the receivers
    const auto start = std::chrono::steady_clock::now();
    const mp::RunResult run = mp::try_run_ranks(
        p, kZero,
        [](mp::Comm& comm) {
          if (comm.rank() == 0) {
            comm.send_value<int>(1, 1, 42);  // killed before the push
          } else {
            // Blocks forever unless poisoned: rank 0 dies on its first op.
            (void)comm.recv_value<int>(0, 1);
          }
        },
        options);
    EXPECT_TRUE(run.failed()) << "p=" << p;
    EXPECT_EQ(run.failed_rank, 0) << "p=" << p;
    // Generous bound: propagation is condition-variable wakeup, not timeout.
    EXPECT_LT(seconds_since(start), 30.0) << "p=" << p;
  }
}

TEST(FaultInjection, RunRanksRethrowsInjectedFault) {
  mp::FaultPlan plan;
  plan.parse("kill:r=0,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               (void)mp::bcast_value(comm, comm.rank(), 0);
                             },
                             options),
               mp::InjectedFault);
}

// ---------------------------------------------------------------------------
// Corruption: CRC32 frame checksum
// ---------------------------------------------------------------------------

TEST(FaultInjection, CorruptedPayloadIsDetectedNotMisparsed) {
  mp::FaultPlan plan;
  plan.parse("corrupt:r=0,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  // This test pins the legacy *detection* path; with the ack/retransmit
  // layer on, the same fault heals in-band (see TransportHealing below).
  options.reliability.enabled = false;
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::int64_t> payload(64);
          for (std::size_t i = 0; i < payload.size(); ++i) {
            payload[i] = static_cast<std::int64_t>(i);
          }
          comm.send<std::int64_t>(1, 9, payload);
        } else {
          (void)comm.recv<std::int64_t>(0, 9);
        }
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failed_rank, 1);  // detection happens at the receiver
  EXPECT_NE(run.failure_message.find("CRC32"), std::string::npos);
  EXPECT_EQ(plan.corruptions_injected(), 1u);
}

// Fuzz over seeds and payload sizes: whatever bits the plan flips, the
// receiver must always detect the damage — never accept a wrong payload.
TEST(FaultInjection, CorruptionFuzzAlwaysDetected) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    mp::FaultPlan plan;
    plan.parse("corrupt:r=0,op=1");
    plan.set_seed(seed);
    mp::RunOptions options;
    options.fault_plan = &plan;
    options.reliability.enabled = false;  // pin the detection path
    const std::size_t payload_bytes = 1 + (seed * 37) % 2048;
    const mp::RunResult run = mp::try_run_ranks(
        2, kZero,
        [payload_bytes](mp::Comm& comm) {
          if (comm.rank() == 0) {
            std::vector<std::uint8_t> payload(payload_bytes, 0xA5);
            comm.send<std::uint8_t>(1, 3, payload);
          } else {
            (void)comm.recv<std::uint8_t>(0, 3);
          }
        },
        options);
    EXPECT_TRUE(run.failed()) << "seed=" << seed;
    EXPECT_NE(run.failure_message.find("CRC32"), std::string::npos)
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Delay and drop
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayFiresAndRunStillSucceeds) {
  mp::FaultPlan plan;
  plan.parse("delay:r=0,op=1,ms=30");
  mp::RunOptions options;
  options.fault_plan = &plan;
  const auto start = std::chrono::steady_clock::now();
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 1), 7);
        }
      },
      options);
  EXPECT_FALSE(run.failed());
  EXPECT_EQ(plan.delays_injected(), 1u);
  EXPECT_GE(seconds_since(start), 0.03);
}

// With the reliability layer off, a dropped message leaves the receiver
// blocked forever; the all-blocked deadlock detector must reap it with a
// diagnostic naming the blocked rank, well within the recv timeout.
TEST(FaultInjection, DroppedMessageIsReapedByDeadlockDetector) {
  mp::FaultPlan plan;
  plan.parse("drop:r=0,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  options.reliability.enabled = false;  // pin the detection path
  options.recv_timeout_s = 300.0;  // detection, not timeout, must end this
  const auto start = std::chrono::steady_clock::now();
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);  // eaten by the wire
        } else {
          (void)comm.recv_value<int>(0, 1);
        }
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failed_rank, 1);
  EXPECT_NE(run.failure_message.find("deadlock"), std::string::npos);
  EXPECT_NE(run.failure_message.find("rank 1 blocked in recv(src=0"),
            std::string::npos);
  EXPECT_LT(seconds_since(start), 30.0);
  EXPECT_EQ(plan.drops_injected(), 1u);
}

// With detection off, the bounded per-receive timeout is the backstop that
// keeps a lost message from hanging the process.
TEST(FaultInjection, RecvTimeoutBackstopWhenDetectionDisabled) {
  mp::FaultPlan plan;
  plan.parse("drop:r=0,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  options.reliability.enabled = false;  // pin the backstop path
  options.detect_deadlock = false;
  options.recv_timeout_s = 0.3;
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);
        } else {
          (void)comm.recv_value<int>(0, 1);
        }
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failed_rank, 1);
  EXPECT_NE(run.failure_message.find("recv timeout"), std::string::npos);
}

// The detector must not fire on a healthy run where receivers legitimately
// wait for slow senders.
TEST(FaultInjection, DetectorQuietOnSlowButHealthyRun) {
  mp::FaultPlan plan;
  plan.parse("delay:r=0,op=1,ms=120");  // longer than several probe slices
  mp::RunOptions options;
  options.fault_plan = &plan;
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 11);
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 1), 11);
        }
      },
      options);
  EXPECT_FALSE(run.failed());
}

// ---------------------------------------------------------------------------
// Post-run channel hygiene
// ---------------------------------------------------------------------------

TEST(RunHygiene, AbortedRunDrainsUndeliveredMessages) {
  const mp::RunResult run = mp::try_run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 1);
      comm.send_value<int>(1, 2, 2);
      throw std::runtime_error("boom");
    }
    // Rank 1 exits without receiving; the teardown must drain the queue.
  });
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failed_rank, 0);
  EXPECT_EQ(run.undelivered_messages, 2u);
}

TEST(RunHygiene, CleanRunWithLeakedMessageIsAProtocolError) {
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               if (comm.rank() == 0) {
                                 comm.send_value<int>(1, 1, 1);
                               }
                               // Nobody receives it and nobody failed.
                             }),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// End-to-end: kill any rank at any level, resume, identical tree
// ---------------------------------------------------------------------------

TEST(FaultRecovery, KillAtEveryLevelResumesToIdenticalTree) {
  const data::Dataset training = make_training(4000);
  core::InductionControls controls;
  controls.options.max_depth = 6;

  const core::FitReport clean = core::ScalParC::fit(training, 2, controls);
  ASSERT_GE(clean.stats.levels, 6) << "workload must produce a 6-level tree";
  const std::string expected = tree_bytes(clean.tree);
  const int levels = clean.stats.levels;

  for (const int p : {2, 4, 8}) {
    for (int level = 0; level < levels; ++level) {
      const int victim = level % p;  // vary the killed rank across levels
      TempDir dir("scalparc_ckpt_matrix");
      mp::FaultPlan plan;
      plan.parse("kill:r=" + std::to_string(victim) +
                 ",level=" + std::to_string(level));
      mp::RunOptions options;
      options.fault_plan = &plan;

      core::InductionControls ckpt = controls;
      ckpt.checkpoint.directory = dir.path;
      const core::RecoveryReport report = recover(training, p, ckpt, options);
      EXPECT_EQ(report.attempts, 2) << "p=" << p << " level=" << level;
      ASSERT_EQ(report.events.size(), 1u) << "p=" << p << " level=" << level;
      EXPECT_EQ(report.events[0].failed_rank, victim)
          << "p=" << p << " level=" << level;
      EXPECT_EQ(report.events[0].resumed_level, level)
          << "p=" << p << " level=" << level;
      EXPECT_EQ(tree_bytes(report.fit.tree), expected)
          << "p=" << p << " level=" << level << " victim=" << victim;
    }
  }
}

// An op-triggered kill lands mid-level (inside collectives), not at the
// boundary; recovery must still resume from the last committed level and
// reproduce the tree exactly.
TEST(FaultRecovery, MidLevelKillResumesToIdenticalTree) {
  const data::Dataset training = make_training(4000);
  core::InductionControls controls;
  controls.options.max_depth = 6;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  // Calibrate the trigger: count rank 3's comm ops in a clean run (the
  // runtime is deterministic), then kill at ~60% of that — guaranteed to
  // land mid-run, inside some level's collectives.
  const std::vector<std::size_t> sizes =
      sort::equal_partition_sizes(training.num_records(), 4);
  const std::vector<std::size_t> offsets = sort::offsets_from_sizes(sizes);
  std::int64_t victim_total_ops = 0;
  mp::run_ranks(4, kZero, [&](mp::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    (void)core::ScalParC::fit_rank(
        comm, training.slice(offsets[r], offsets[r + 1]),
        static_cast<std::int64_t>(offsets[r]), training.num_records(),
        controls);
    if (comm.rank() == 3) victim_total_ops = comm.comm_ops();
  });
  ASSERT_GT(victim_total_ops, 10);

  TempDir dir("scalparc_ckpt_midlevel");
  mp::FaultPlan plan;
  plan.parse("kill:r=3,op=" + std::to_string((victim_total_ops * 6) / 10));
  mp::RunOptions options;
  options.fault_plan = &plan;
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  const core::RecoveryReport report = recover(training, 4, ckpt, options);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].failed_rank, 3);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// A failure before any checkpoint committed (no checkpoint dir on the first
// run would be user error, but a kill during presort is not) restarts from
// scratch and still converges.
TEST(FaultRecovery, KillBeforeFirstCheckpointRestartsFromScratch) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  TempDir dir("scalparc_ckpt_scratch");
  mp::FaultPlan plan;
  plan.parse("kill:r=1,op=1");  // first comm op: inside presort
  mp::RunOptions options;
  options.fault_plan = &plan;
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  const core::RecoveryReport report = recover(training, 2, ckpt, options);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].resumed_level, -1);  // nothing committed yet
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

TEST(FaultRecovery, ExplicitResumeProducesIdenticalTree) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  TempDir dir("scalparc_ckpt_resume");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  mp::FaultPlan plan;
  plan.parse("kill:r=2,level=3");
  mp::RunOptions options;
  options.fault_plan = &plan;
  EXPECT_THROW(
      core::ScalParC::fit(training, 4, ckpt, kZero, options),
      mp::InjectedFault);

  const core::FitReport resumed =
      core::ScalParC::resume_from_checkpoint(training, 4, ckpt);
  EXPECT_EQ(tree_bytes(resumed.tree), expected);
  // The resumed run re-executes only levels >= 3.
  EXPECT_GE(resumed.stats.levels, 3);
}

TEST(FaultRecovery, ResumeWithoutCheckpointThrows) {
  const data::Dataset training = make_training(500);
  TempDir dir("scalparc_ckpt_empty");
  core::InductionControls ckpt;
  ckpt.checkpoint.directory = dir.path;
  EXPECT_THROW(core::ScalParC::resume_from_checkpoint(training, 2, ckpt),
               core::CheckpointError);
}

// Differential: a run killed mid-tree and resumed must reproduce the serial
// SPRINT oracle's tree — recovery correctness checked against an engine
// that shares no code with the distributed level loop.
TEST(FaultRecovery, FusedKillAndResumeMatchesUnfusedCleanTree) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const core::DecisionTree oracle =
      sprint::fit_serial_sprint(training, controls.options);

  TempDir dir("scalparc_ckpt_kill_oracle");
  mp::FaultPlan plan;
  plan.parse("kill:r=1,level=2");
  mp::RunOptions options;
  options.fault_plan = &plan;
  controls.checkpoint.directory = dir.path;
  const core::RecoveryReport report = recover(training, 4, controls, options);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_TRUE(oracle.same_structure(report.fit.tree));
  EXPECT_EQ(tree_bytes(report.fit.tree), tree_bytes(oracle));
}

TEST(FaultRecovery, RecoveryRequiresCheckpointDirectory) {
  const data::Dataset training = make_training(500);
  EXPECT_THROW(core::ScalParC::fit_with_recovery(training, 2, {},
                                                 core::RecoveryControls{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Self-healing transport: ack/retransmit/dedupe absorbs wire faults in-band
// ---------------------------------------------------------------------------

// Fast heal timers for tests: a dropped frame is re-requested after ~4 ms
// instead of the production 25 ms.
mp::RunOptions fast_heal_options(const mp::FaultPlan* plan) {
  mp::RunOptions options;
  options.fault_plan = plan;
  options.reliability.backoff_ms = 4.0;
  options.reliability.backoff_cap_ms = 40.0;
  return options;
}

TEST(TransportHealing, DroppedMessageIsRetransmittedInBand) {
  mp::FaultPlan plan;
  plan.parse("drop:r=0,op=1");
  const mp::RunOptions options = fast_heal_options(&plan);
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);  // eaten by the wire, then healed
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 1), 7);
        }
      },
      options);
  EXPECT_FALSE(run.failed()) << run.failure_message;
  EXPECT_EQ(plan.drops_injected(), 1u);
  EXPECT_GE(run.transport.retransmits, 1u);
  EXPECT_EQ(run.transport.nacks, 0u);
}

TEST(TransportHealing, CorruptedMessageIsNackedAndHealed) {
  mp::FaultPlan plan;
  plan.parse("corrupt:r=0,op=1");
  const mp::RunOptions options = fast_heal_options(&plan);
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::int64_t> payload(64);
          for (std::size_t i = 0; i < payload.size(); ++i) {
            payload[i] = static_cast<std::int64_t>(i);
          }
          comm.send<std::int64_t>(1, 9, payload);
        } else {
          const std::vector<std::int64_t> got = comm.recv<std::int64_t>(0, 9);
          ASSERT_EQ(got.size(), 64u);
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], static_cast<std::int64_t>(i)) << i;
          }
        }
      },
      options);
  EXPECT_FALSE(run.failed()) << run.failure_message;
  EXPECT_EQ(plan.corruptions_injected(), 1u);
  EXPECT_GE(run.transport.nacks, 1u);
  EXPECT_GE(run.transport.retransmits, 1u);
}

TEST(TransportHealing, DuplicatedMessageIsDedupedBySequence) {
  mp::FaultPlan plan;
  plan.parse("duplicate:r=0,op=1");
  const mp::RunOptions options = fast_heal_options(&plan);
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 5, 11);
          comm.send_value<int>(1, 5, 13);
        } else {
          // The duplicate of the first frame must not shadow the second.
          EXPECT_EQ(comm.recv_value<int>(0, 5), 11);
          EXPECT_EQ(comm.recv_value<int>(0, 5), 13);
        }
      },
      options);
  EXPECT_FALSE(run.failed()) << run.failure_message;
  EXPECT_EQ(plan.duplicates_injected(), 1u);
  EXPECT_GE(run.transport.duplicates, 1u);
  EXPECT_EQ(run.undelivered_messages, 0u);
}

// Drop, corrupt and duplicate faults injected into a live induction heal
// inside the transport — zero checkpoint restarts, retransmit counters prove
// the healing happened, and the tree is byte-identical to the fault-free
// run.
TEST(TransportHealing, MixedFaultsHealInsideInductionToIdenticalTree) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  // Faults only trigger on send ops and the send/recv pattern at any given
  // op index is an induction internal; three consecutive indices per kind
  // guarantee each kind lands on at least one send.
  mp::FaultPlan plan;
  plan.parse(
      "drop:r=0,op=2;drop:r=0,op=3;drop:r=0,op=4;"
      "corrupt:r=1,op=5;corrupt:r=1,op=6;corrupt:r=1,op=7;"
      "duplicate:r=0,op=8;duplicate:r=0,op=9;duplicate:r=0,op=10");
  const mp::RunOptions options = fast_heal_options(&plan);
  const core::FitReport report =
      core::ScalParC::fit(training, 2, controls, kZero, options);
  EXPECT_EQ(tree_bytes(report.tree), expected);
  EXPECT_FALSE(report.run.failed());
  EXPECT_GE(plan.drops_injected(), 1u);
  EXPECT_GE(plan.corruptions_injected(), 1u);
  EXPECT_GE(plan.duplicates_injected(), 1u);
  EXPECT_GE(report.run.transport.retransmits, 1u);
  EXPECT_GE(report.run.transport.nacks, 1u);
  EXPECT_GE(report.run.transport.duplicates, 1u);
}

// Sweep satellite: a single drop at *every* op index of a 2-rank induction.
// Wherever the wire eats a frame, the transport self-heals and the tree is
// byte-identical to the fault-free run — no checkpointing, no restart.
TEST(TransportHealing, SingleDropAtEveryOpHealsToIdenticalTree) {
  const data::Dataset training = make_training(600);
  core::InductionControls controls;
  controls.options.max_depth = 3;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  // Calibrate: op indices are deterministic, so a clean run tells us how
  // many ops each rank executes.
  const std::vector<std::size_t> sizes =
      sort::equal_partition_sizes(training.num_records(), 2);
  const std::vector<std::size_t> offsets = sort::offsets_from_sizes(sizes);
  std::int64_t total_ops[2] = {0, 0};
  mp::run_ranks(2, kZero, [&](mp::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    (void)core::ScalParC::fit_rank(
        comm, training.slice(offsets[r], offsets[r + 1]),
        static_cast<std::int64_t>(offsets[r]), training.num_records(),
        controls);
    total_ops[r] = comm.comm_ops();
  });
  ASSERT_GT(total_ops[0], 10);

  std::uint64_t healed_runs = 0;
  for (int rank = 0; rank < 2; ++rank) {
    for (std::int64_t op = 1; op <= total_ops[rank]; ++op) {
      mp::FaultPlan plan;
      plan.parse("drop:r=" + std::to_string(rank) +
                 ",op=" + std::to_string(op));
      const mp::RunOptions options = fast_heal_options(&plan);
      const core::FitReport report =
          core::ScalParC::fit(training, 2, controls, kZero, options);
      ASSERT_EQ(tree_bytes(report.tree), expected)
          << "rank=" << rank << " op=" << op;
      // Drop triggers only fire on send ops; when this index was a send,
      // the healed run must show the retransmit that saved it.
      if (plan.drops_injected() > 0) {
        EXPECT_GE(report.run.transport.retransmits, 1u)
            << "rank=" << rank << " op=" << op;
        ++healed_runs;
      }
    }
  }
  EXPECT_GT(healed_runs, 0u);
}

// With the retransmit budget exhausted the detector regains authority:
// a drop under max_retransmits=0 is reaped as a deadlock promptly instead
// of hanging until the recv timeout.
TEST(TransportHealing, ExhaustedBudgetFallsBackToDeadlockDetector) {
  mp::FaultPlan plan;
  plan.parse("drop:r=0,op=1");
  mp::RunOptions options = fast_heal_options(&plan);
  options.reliability.max_retransmits = 0;
  options.recv_timeout_s = 300.0;  // detection, not timeout, must end this
  const auto start = std::chrono::steady_clock::now();
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);
        } else {
          (void)comm.recv_value<int>(0, 1);
        }
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failure_kind, mp::FailureKind::kDeadlock);
  EXPECT_LT(seconds_since(start), 30.0);
}

// ---------------------------------------------------------------------------
// Liveness-epoch classification: rank death vs all-blocked deadlock
// ---------------------------------------------------------------------------

TEST(Liveness, HubClassifiesRankDeathApartFromDeadlock) {
  mp::Hub hub(2);
  // Both ranks blocked on each other with empty channels: a livelock.
  hub.mark_blocked(0, 1, 3);
  hub.mark_blocked(1, 0, 4);
  const std::string deadlock = hub.deadlock_diagnostic();
  EXPECT_NE(deadlock.find("deadlock: every unfinished rank is blocked"),
            std::string::npos);
  EXPECT_NE(deadlock.find("liveness epoch"), std::string::npos);
  EXPECT_EQ(deadlock.find("rank death"), std::string::npos);

  // Now rank 0 dies: the same blocked survivor must be classified as a
  // rank-death casualty, not a livelock.
  hub.mark_unblocked(0);
  hub.mark_dead(0);
  hub.mark_finished(0);
  const std::string death = hub.deadlock_diagnostic();
  EXPECT_NE(death.find("rank death"), std::string::npos);
  EXPECT_NE(death.find("rank 0 dead"), std::string::npos);
  EXPECT_NE(death.find("shrink to survivors or restart"), std::string::npos);
  ASSERT_EQ(hub.dead_ranks().size(), 1u);
  EXPECT_EQ(hub.dead_ranks()[0], 0);
}

TEST(Liveness, KilledRankIsClassifiedAsRankDeath) {
  mp::FaultPlan plan;
  plan.parse("kill:r=1,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  const mp::RunResult run = mp::try_run_ranks(
      4, kZero,
      [](mp::Comm& comm) {
        std::vector<std::int64_t> v{comm.rank()};
        (void)mp::allreduce_vec(comm, std::span<const std::int64_t>(v),
                                mp::SumOp{});
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failure_kind, mp::FailureKind::kRankDeath);
  ASSERT_EQ(run.dead_ranks.size(), 1u);
  EXPECT_EQ(run.dead_ranks[0], 1);
}

TEST(Liveness, DeadlockReportsNoDeadRanks) {
  mp::FaultPlan plan;
  plan.parse("drop:r=0,op=1");
  mp::RunOptions options;
  options.fault_plan = &plan;
  options.reliability.enabled = false;  // make the drop fatal
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);
        } else {
          (void)comm.recv_value<int>(0, 1);
        }
      },
      options);
  EXPECT_TRUE(run.failed());
  EXPECT_EQ(run.failure_kind, mp::FailureKind::kDeadlock);
  EXPECT_TRUE(run.dead_ranks.empty());
}

// ---------------------------------------------------------------------------
// SCALPARC_TEST_RECV_TIMEOUT_S environment override
// ---------------------------------------------------------------------------

TEST(RecvTimeoutDefault, EnvironmentVariableOverridesDefault) {
  const char* saved = std::getenv("SCALPARC_TEST_RECV_TIMEOUT_S");
  const std::string saved_value = saved ? saved : "";

  ::setenv("SCALPARC_TEST_RECV_TIMEOUT_S", "7.5", 1);
  EXPECT_DOUBLE_EQ(mp::default_recv_timeout_s(), 7.5);
  EXPECT_DOUBLE_EQ(mp::RunOptions{}.recv_timeout_s, 7.5);

  // A set-but-broken override is rejected loudly at parse time (a typo
  // silently reverting to 120 s would turn a seconds-scale fault suite into
  // minutes), naming the variable and the offending text.
  for (const char* bad : {"0", "-3", "abc", "12x", ""}) {
    ::setenv("SCALPARC_TEST_RECV_TIMEOUT_S", bad, 1);
    try {
      (void)mp::default_recv_timeout_s();
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SCALPARC_TEST_RECV_TIMEOUT_S"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("SCALPARC_TEST_RECV_TIMEOUT_S");
  EXPECT_DOUBLE_EQ(mp::default_recv_timeout_s(), 120.0);

  if (saved != nullptr) {
    ::setenv("SCALPARC_TEST_RECV_TIMEOUT_S", saved_value.c_str(), 1);
  }
}

// ---------------------------------------------------------------------------
// Shrink-to-survivors recovery
// ---------------------------------------------------------------------------

TEST(ShrinkRecovery, SurvivorsContinueFromCheckpointToIdenticalTree) {
  const data::Dataset training = make_training(4000);
  core::InductionControls controls;
  controls.options.max_depth = 6;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  TempDir dir("scalparc_shrink");
  mp::FaultPlan plan;
  plan.parse("kill:r=2,level=2");
  mp::RunOptions options;
  options.fault_plan = &plan;
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  const core::RecoveryReport report =
      recover(training, 4, ckpt, options, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].failed_rank, 2);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.events[0].ranks_after, 3);
  EXPECT_EQ(report.events[0].resumed_level, 2);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// Shrink matrix: every kill level and several world sizes, including the
// degenerate shrink to a single surviving rank.
TEST(ShrinkRecovery, ShrinkMatrixAcrossLevelsAndWorlds) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  for (const int p : {2, 4}) {
    for (int level = 1; level <= 3; ++level) {
      const int victim = (level + 1) % p;
      TempDir dir("scalparc_shrink_matrix");
      mp::FaultPlan plan;
      plan.parse("kill:r=" + std::to_string(victim) +
                 ",level=" + std::to_string(level));
      mp::RunOptions options;
      options.fault_plan = &plan;
      core::InductionControls ckpt = controls;
      ckpt.checkpoint.directory = dir.path;
      const core::RecoveryReport report =
          recover(training, p, ckpt, options, core::RecoveryPolicy::kShrink);
      EXPECT_EQ(report.attempts, 2) << "p=" << p << " level=" << level;
      ASSERT_EQ(report.events.size(), 1u) << "p=" << p << " level=" << level;
      EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kShrink)
          << "p=" << p << " level=" << level;
      EXPECT_EQ(report.events[0].ranks_after, p - 1)
          << "p=" << p << " level=" << level;
      EXPECT_EQ(tree_bytes(report.fit.tree), expected)
          << "p=" << p << " level=" << level << " victim=" << victim;
    }
  }
}

// A death before the first checkpoint commits still shrinks the world; the
// survivors restart from scratch with p-1 ranks.
TEST(ShrinkRecovery, DeathBeforeFirstCheckpointRestartsWithSurvivors) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  TempDir dir("scalparc_shrink_scratch");
  mp::FaultPlan plan;
  plan.parse("kill:r=1,op=1");  // inside presort, nothing committed yet
  mp::RunOptions options;
  options.fault_plan = &plan;
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  const core::RecoveryReport report =
      recover(training, 4, ckpt, options, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.events[0].ranks_after, 3);
  EXPECT_EQ(report.events[0].resumed_level, -1);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// A deadlock has no provable casualty, so a shrink request degrades to a
// restart of the full world.
TEST(ShrinkRecovery, DeadlockDegradesShrinkToRestart) {
  const data::Dataset training = make_training(2000);
  core::InductionControls controls;
  controls.options.max_depth = 4;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 2, controls).tree);

  TempDir dir("scalparc_shrink_degrade");
  mp::FaultPlan plan;
  plan.parse("drop:r=0,op=7");
  mp::RunOptions options;
  options.fault_plan = &plan;
  options.reliability.enabled = false;  // make the drop a fatal deadlock
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  const core::RecoveryReport report =
      recover(training, 2, ckpt, options, core::RecoveryPolicy::kShrink);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].policy, core::RecoveryPolicy::kRestart);
  EXPECT_EQ(report.events[0].ranks_after, 2);
  EXPECT_EQ(tree_bytes(report.fit.tree), expected);
}

// Elastic restore directly: a checkpoint written by 4 ranks resumes under
// 1, 2, 3 and 6 ranks (shrink and grow) once repartition is allowed, always
// to the identical tree; without the opt-in the mismatch stays a loud error.
TEST(ShrinkRecovery, ElasticResumeAcrossWorldSizes) {
  const data::Dataset training = make_training(3000);
  core::InductionControls controls;
  controls.options.max_depth = 5;
  const std::string expected =
      tree_bytes(core::ScalParC::fit(training, 4, controls).tree);

  TempDir dir("scalparc_elastic");
  core::InductionControls ckpt = controls;
  ckpt.checkpoint.directory = dir.path;
  mp::FaultPlan plan;
  plan.parse("kill:r=2,level=3");
  mp::RunOptions options;
  options.fault_plan = &plan;
  EXPECT_THROW(core::ScalParC::fit(training, 4, ckpt, kZero, options),
               mp::InjectedFault);

  EXPECT_THROW(core::ScalParC::resume_from_checkpoint(training, 3, ckpt),
               core::CheckpointError);

  core::InductionControls elastic = ckpt;
  elastic.checkpoint.allow_repartition = true;
  for (const int p : {1, 2, 3, 6}) {
    const core::FitReport resumed =
        core::ScalParC::resume_from_checkpoint(training, p, elastic);
    EXPECT_EQ(tree_bytes(resumed.tree), expected) << "p=" << p;
  }
}

}  // namespace
}  // namespace scalparc
