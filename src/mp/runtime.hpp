// Thread-backed SPMD runtime: spawns one thread per rank, runs the supplied
// body on each, and collects per-rank statistics, memory peaks and modeled
// time. This substitutes for "MPI on the Cray T3D" (see DESIGN.md §2):
// ranks share nothing except messages, so communication volume and pattern
// match a true distributed-memory run.
//
// Failure semantics: a rank that throws poisons every channel, so peers
// blocked in recv unwind with RankAborted. try_run_ranks reports which rank
// failed first (and with what message) instead of rethrowing; run_ranks
// keeps the throwing contract. Every blocking receive is bounded by the
// RunOptions timeout and an all-ranks-blocked deadlock detector, so a lost
// message or an injected deadlock terminates with a diagnostic instead of
// hanging the process. An optional FaultPlan injects deterministic crashes,
// payload corruption, delays and message drops (see mp/fault.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "mp/comm.hpp"
#include "mp/costmodel.hpp"
#include "mp/health.hpp"
#include "mp/mailbox.hpp"
#include "mp/stats.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::mp {

class FaultPlan;  // mp/fault.hpp

// Default per-receive timeout: 120 s, overridable via the
// SCALPARC_TEST_RECV_TIMEOUT_S environment variable so test binaries can make
// fault-suite failures fail in seconds instead of minutes. Read on every call
// (not cached) so tests can change it between runs. A set-but-malformed (or
// non-positive) value throws std::invalid_argument naming the variable and
// the offending text instead of silently falling back to the default.
double default_recv_timeout_s();

// Ack/retransmit layer configuration (see mp/mailbox.hpp). Enabled by
// default: dropped, corrupted and duplicated messages heal in-band without
// surfacing to the application.
struct ReliabilityOptions {
  bool enabled = true;
  // Per-receive cap on heal attempts (nacks + timer retransmit requests);
  // once exhausted the legacy failure paths (CorruptMessage, deadlock
  // detector, recv timeout) take over.
  int max_retransmits = 8;
  // First timer-driven retransmit request fires after ~backoff_ms; each
  // subsequent one doubles the wait (capped), with deterministic jitter.
  double backoff_ms = 25.0;
  double backoff_cap_ms = 1000.0;
  // Per-channel bound on retained clean copies of unacknowledged sends.
  std::size_t inflight_cap = 64;
};

struct RunOptions {
  // Faults to inject; nullptr runs clean. Must outlive the run.
  const FaultPlan* fault_plan = nullptr;
  // Per-receive wall-clock timeout in seconds; <= 0 disables. Generous by
  // default: it exists so a lost message can never hang ctest forever even
  // if the deadlock detector is switched off.
  double recv_timeout_s = default_recv_timeout_s();
  // Abort with a per-rank diagnostic as soon as every unfinished rank is
  // blocked in a receive with no deliverable message.
  bool detect_deadlock = true;
  // Self-healing transport (ack/retransmit/dedupe).
  ReliabilityOptions reliability;
  // Gray-failure subsystem (phi-accrual heartbeats, adaptive per-channel
  // timeouts, straggler classification). All off by default; see
  // mp/health.hpp.
  HealthOptions health;
  // Elastic grow: world size of the previous (failed) attempt. 0 on a normal
  // run. When positive and smaller than this run's nranks, ranks in
  // [prior_world, nranks) are *joiners* that must pass the join_handshake
  // capability exchange before they can carry restored partitions.
  int prior_world = 0;
};

// Shared state between the ranks of one run: the p x p channel matrix plus
// the per-rank wait registry backing the deadlock detector.
class Hub {
 public:
  explicit Hub(int nranks, const RunOptions& options = {});

  int size() const { return nranks_; }
  const RunOptions& options() const { return options_; }

  // Channel carrying messages from `src` to `dst`.
  Channel& channel(int src, int dst) {
    return channels_[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(nranks_) +
                     static_cast<std::size_t>(dst)];
  }

  // True when every channel has been drained (sanity check after a run).
  bool all_channels_empty() const;

  // Removes every queued message; returns how many were discarded. Called
  // in run teardown so an aborted run cannot leak undelivered messages.
  std::size_t drain_all_channels();

  // Aborts the run: wakes every blocked receiver with RankAborted.
  void poison_all();

  // Aggregated reliability counters over all channels.
  ChannelStats transport_stats() const;

  // Gray-failure health lanes (heartbeats, watermarks, busy time) shared by
  // all ranks of the run. Always constructed; its hot paths are only driven
  // when options().health.monitoring().
  HealthRegistry& health() { return health_; }
  const HealthRegistry& health() const { return health_; }

  // --- deadlock detection and liveness --------------------------------
  // Ranks register what they are blocked on; a rank whose wait slice
  // expires asks for a diagnostic. Non-empty result means the run is
  // provably stuck: every unfinished rank is blocked and none of their
  // awaited messages is queued or retransmittable (sends are buffered, so
  // no new message can ever appear).
  //
  // Each rank carries a liveness epoch, bumped on every blocked/unblocked
  // transition; the diagnostic reports it, and mark_dead records a rank that
  // terminated with a primary error so the diagnostic (and the recovery
  // layer, via RunResult::dead_ranks) can classify "rank dead — shrink or
  // restart" apart from "all ranks blocked" livelock.
  // A receiver leaves the registry as soon as it pops a frame and
  // re-enters if the frame is then discarded (duplicate) or nacked; the
  // re-entry passes on the receive's heal_exhausted state.
  void mark_blocked(int rank, int src, std::int64_t tag,
                    bool heal_exhausted = false);
  void mark_unblocked(int rank);
  // The blocked receiver exhausted its retransmit budget: the detector must
  // stop assuming it will heal the channel itself and regain authority to
  // declare the run stuck.
  void mark_heal_exhausted(int rank);
  void mark_finished(int rank);
  void mark_dead(int rank);
  // Elastic grow: records that `rank` (a joiner, >= options().prior_world)
  // passed the capability handshake, bumping its liveness epoch so the
  // deadlock detector treats the admit as observed progress.
  void admit_joiner(int rank);
  std::uint64_t joiners_admitted() const;
  std::vector<int> dead_ranks() const;
  std::string deadlock_diagnostic();
  // Sum of all ranks' liveness epochs: total blocked/unblocked transitions
  // the wait registry observed (runtime.liveness_epoch_bumps metric).
  std::uint64_t total_liveness_epoch_bumps() const;

 private:
  // One-shot registry scan. Empty string: someone can still progress. For an
  // all-blocked livelock verdict, the unfinished ranks' liveness epochs are
  // appended to `epochs` (left empty for the rank-death classification) so
  // deadlock_diagnostic can demand a stable re-observation before aborting.
  std::string deadlock_probe(std::vector<std::uint64_t>* epochs);

  struct WaitState {
    bool blocked = false;
    bool finished = false;
    bool dead = false;
    // True once this receive's retransmit budget ran out (set by
    // mark_blocked): disables the can_retransmit deadlock-probe suppression.
    bool heal_exhausted = false;
    int src = -1;
    std::int64_t tag = 0;
    // Liveness epoch: number of blocked/unblocked transitions observed.
    std::uint64_t epoch = 0;
  };

  int nranks_;
  RunOptions options_;
  HealthRegistry health_;
  std::vector<Channel> channels_;
  mutable std::mutex wait_mutex_;
  std::vector<WaitState> waits_;
  int unfinished_ = 0;
  std::uint64_t joiners_admitted_ = 0;  // guarded by wait_mutex_
};

// What a joiner brings to the table, exchanged during the grow handshake.
// Every field must match rank 0's view of the checkpointed job exactly: a
// joiner restoring against a different checkpoint fingerprint or dataset
// geometry would silently produce a divergent tree.
struct JoinCapability {
  std::uint64_t fingerprint = 0;   // checkpoint schema/options fingerprint
  std::int64_t total_records = 0;  // global record count of the training set
  std::int32_t num_attributes = 0;
};
static_assert(std::is_trivially_copyable_v<JoinCapability>);

// Admission protocol for elastic grow, called by every rank (SPMD) before
// the re-tiling restore. No-op (returns 0) unless the run was configured
// with 0 < RunOptions::prior_world < world size. Otherwise each joiner
// (rank >= prior_world) sends its JoinCapability to rank 0; rank 0 checks
// every field against its own view, admits the joiner at the current
// liveness epoch (Hub::admit_joiner), and distributes the admitted count to
// all ranks. A capability mismatch throws on rank 0 — a primary, classified
// failure — so a bad joiner can never receive partitions. Returns the number
// of joiners admitted and records it as recovery.joiners_admitted.
int join_handshake(Comm& comm, const JoinCapability& capability);

struct RankOutcome {
  CommStats stats;
  util::MemoryMeter meter;
  double vtime_seconds = 0.0;
  // This rank's slice of the unified registry; the thread-local sink
  // (mp::metrics_sink) points here while the rank body runs.
  MetricsSnapshot metrics;
};

// Classification of a failed run, derived from the primary error's type:
// kRankDeath means a specific rank terminated (its partitions are gone and
// the world can shrink to the survivors); kDeadlock / kTimeout mean no rank
// provably died — only a full restart is sound. kStraggler means every rank
// is alive and correct but one is persistently slow (gray failure): the
// recovery layer can rebalance work away from it and resume from the last
// checkpoint.
enum class FailureKind { kNone, kRankDeath, kDeadlock, kTimeout, kStraggler };

struct RunResult {
  // Modeled parallel runtime: max over ranks of the final virtual clock.
  double modeled_seconds = 0.0;
  // Actual wall-clock time of the threaded run (noisy when oversubscribed).
  double wall_seconds = 0.0;
  std::vector<RankOutcome> ranks;

  // Failure report (try_run_ranks): first rank whose body threw a primary
  // error, -1 for a clean run. Ranks that merely unwound with RankAborted
  // after a peer's failure are not reported.
  int failed_rank = -1;
  std::string failure_message;
  std::exception_ptr error;
  FailureKind failure_kind = FailureKind::kNone;
  // kStraggler only: the rank classified as persistently slow and its
  // estimated slowdown factor (busy-time ratio vs the median peer, clamped).
  int straggler_rank = -1;
  double straggler_slowdown = 0.0;
  // Every rank that terminated with its own primary error (liveness
  // registry); the complement are the survivors a shrink recovery keeps.
  std::vector<int> dead_ranks;
  // Messages discarded from the channels during teardown (non-zero only
  // after an aborted run).
  std::size_t undelivered_messages = 0;
  // Aggregated ack/retransmit counters over all channels: how much in-band
  // healing the transport performed during the run.
  ChannelStats transport;
  // Unified registry: every rank's snapshot merged (counters summed, gauges
  // maxed, histograms folded) plus the run-scoped transport/runtime
  // families. See mp/metrics.hpp and docs/observability.md.
  MetricsSnapshot metrics;

  bool failed() const { return failed_rank >= 0; }

  CommStats total_stats() const;
  std::size_t max_peak_bytes_per_rank() const;
  std::uint64_t max_bytes_sent_per_rank() const;
};

// Runs `body(comm)` on `nranks` ranks. Never rethrows a rank's exception:
// inspect RunResult::failed()/failed_rank/error instead. A clean run with
// undelivered messages still throws std::logic_error (protocol bug).
RunResult try_run_ranks(int nranks, const CostModel& model,
                        const std::function<void(Comm&)>& body,
                        const RunOptions& options = {});

// Runs `body(comm)` on `nranks` ranks and returns the aggregated result.
// Any exception thrown by a rank is rethrown on the calling thread after all
// ranks have been joined.
RunResult run_ranks(int nranks, const CostModel& model,
                    const std::function<void(Comm&)>& body,
                    const RunOptions& options = {});

}  // namespace scalparc::mp
