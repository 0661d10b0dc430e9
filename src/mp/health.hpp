// Gray-failure health monitoring: phi-accrual suspicion, adaptive timeouts
// and straggler evidence for the thread-backed SPMD runtime.
//
// The resilience stack below this header is *binary*: a rank is healthy
// until a fixed recv timeout or the deadlock detector declares it gone.
// Production clusters mostly fail in the gray zone in between — a rank that
// is alive and progressing, just persistently slower than its peers (an
// oversubscribed core, a degraded disk). Because the induction loop is
// level-synchronous, one such rank paces the entire fit.
//
// Three cooperating signals, all side-band (registry writes, never channel
// messages, so the tag discipline and the all-channels-empty invariants are
// untouched):
//
//   heartbeats   every rank stamps a per-rank lane from Comm::begin_op, from
//                each bounded wait slice of a blocking receive, and between
//                realized-work sleep chunks. A PhiAccrualEstimator over the
//                inter-heartbeat history turns silence into a continuous
//                suspicion score phi(t) = -log10 P(interval > t): phi 1 means
//                a 10% chance the rank is still fine, phi 8 a 1e-8 chance.
//
//   watermarks   the induction engines advance a per-rank progress counter
//                at phase and level boundaries, so the Hub can tell
//                slow-but-progressing (watermark moves, heartbeats flow)
//                from stuck (neither moves) — only the former is a
//                straggler; the latter stays with the deadlock/timeout/
//                rank-death classification of PR 6.
//
//   busy time    wall-clock time a rank spent *not* blocked in a receive
//                (fed by the Hub wait registry) and not inside checkpoint
//                I/O (Comm::IoScope), i.e. on work a rebalance can move.
//                Level-synchronous barriers equalize wall time per level
//                across ranks, so slowdown is only visible in the busy-time
//                ratio: while peers idle at a collective the straggler keeps
//                accumulating busy seconds.
//
// Per-channel inter-arrival estimators (fed by Channel::push) additionally
// derive adaptive per-channel receive timeouts from the observed latency
// distribution; the fixed RunOptions::recv_timeout_s stays as the ceiling
// (and, with adaptive timeouts off, the differential oracle).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace scalparc::mp {

// A blocking receive classified its awaited peer as a persistent straggler:
// the peer is alive (heartbeats flowing) and progressing (watermark moving)
// but sustained evidence shows it pacing the run. The run aborts so the
// recovery layer can rebalance work away from the slow rank and resume from
// the last checkpoint (RecoveryPolicy::kRebalance).
struct StragglerDetected : std::runtime_error {
  explicit StragglerDetected(const std::string& what)
      : std::runtime_error(what) {}
};

// Knobs of the gray-failure subsystem. Everything defaults to off so a
// run without explicit opt-in behaves exactly like the PR 6 runtime (the
// differential oracle for the adaptive paths).
struct HealthOptions {
  // Classify a persistently slow rank as FailureKind::kStraggler instead of
  // letting it silently pace the whole fit.
  bool detect_stragglers = false;
  // Derive per-channel receive deadlines from the observed inter-arrival
  // distribution. A tripped adaptive deadline only escalates to RecvTimeout
  // when the sender's heartbeat lane is silent too; otherwise it stretches
  // (doubling, capped by the fixed recv_timeout_s ceiling), so a clean run
  // can never fail earlier than with the fixed timeout alone.
  bool adaptive_timeouts = false;
  // Suspicion level treated as "silent": phi 8 ~ a 1e-8 chance the observed
  // gap is ordinary latency.
  double phi_threshold = 8.0;
  // Lower clamp for adaptive deadlines so a noisy estimator can never spin
  // a receive in sub-slice timeouts.
  double timeout_floor_s = 0.25;
  // Straggler evidence must hold continuously this long before classifying.
  // Must span at least one induction level of the target workload, so the
  // blocked peers' own per-level busy time lands inside the window.
  double sustain_s = 1.5;
  // A receive must have been blocked at least this long before straggler
  // evidence is acted on.
  double min_blocked_s = 0.5;
  // Busy-time ratio (suspect vs median of the other ranks, over the
  // evidence window) above which the suspect is a straggler.
  double slow_ratio = 3.0;

  bool monitoring() const { return detect_stragglers || adaptive_timeouts; }
  // Throws std::invalid_argument naming the offending field on any
  // non-positive / non-finite knob (parse-time hardening for CLI and env).
  void validate() const;
};

// Sliding-window phi-accrual failure estimator (Hayashibara et al.): keeps
// the last `window` inter-arrival samples, models them as a normal
// distribution and scores a silence of t seconds as
//   phi(t) = -log10( 0.5 * erfc((t - mean) / (stddev * sqrt(2))) )
// phi is continuous and monotone in t, so callers pick a threshold instead
// of a binary timeout. Not internally synchronized — guard externally (the
// mailbox feeds its estimator under the channel mutex, the registry under a
// per-rank mutex).
class PhiAccrualEstimator {
 public:
  explicit PhiAccrualEstimator(int window = 64, int min_samples = 8);

  void record(double interval_s);
  int samples() const { return count_; }
  bool primed() const { return count_ >= min_samples_; }
  double mean() const;
  // Floored at a fraction of the mean: a perfectly regular arrival stream
  // must not collapse the distribution into a zero-width spike.
  double stddev() const;
  // Suspicion after `silence_s` of silence; 0 while unprimed (no history,
  // no opinion). Capped at kMaxPhi where erfc underflows.
  double phi(double silence_s) const;
  // Smallest silence whose suspicion reaches `phi_threshold` (the adaptive
  // timeout): inverts phi by bisection. Requires primed().
  double timeout_for_phi(double phi_threshold) const;

  static constexpr double kMaxPhi = 40.0;

 private:
  int window_;
  int min_samples_;
  std::vector<double> ring_;
  int count_ = 0;
  int next_ = 0;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
};

// Per-rank health state shared by all ranks of one run; owned by the Hub.
// Heartbeat stamps are atomics (hot path), the estimator and the busy-time
// ledger sit behind per-rank mutexes so rank lanes never contend with each
// other and the whole structure is ThreadSanitizer-clean.
class HealthRegistry {
 public:
  HealthRegistry(int nranks, const HealthOptions& options);

  const HealthOptions& options() const { return options_; }
  bool enabled() const { return options_.monitoring(); }

  // Full heartbeat: stamps the lane and feeds the inter-heartbeat
  // estimator. Called from comm-op boundaries and wait slices.
  void heartbeat(int rank);
  // Stamp-only heartbeat for hot compute loops (no estimator feed).
  void heartbeat_cheap(int rank);

  // Progress watermark: advanced by the induction engines at phase/level
  // boundaries. `level` is recorded for diagnostics.
  void advance_watermark(int rank, int level);

  // Busy-time ledger, driven by the Hub wait registry: busy = wall since
  // run start minus time spent blocked in receives or inside disk I/O.
  void on_blocked(int rank);
  void on_unblocked(int rank);
  void on_finished(int rank);

  // Marks `rank` as inside local disk I/O (Comm::IoScope, not nestable).
  // It cannot heartbeat while it blocks in a write, so alive() vouches for
  // it, and the interval does not count as busy.
  void set_in_io(int rank, bool in_io);

  // Heartbeat suspicion of `rank` right now; 0 while the estimator is
  // unprimed.
  double suspicion(int rank) const;
  // A rank is alive when it is inside disk I/O or its heartbeat silence
  // scores below the phi threshold (unprimed lanes fall back to a 1 s grace
  // window). `phi_out` gets the silence's suspicion either way.
  bool alive(int rank, double* phi_out = nullptr) const;

  struct Snapshot {
    // Wall-clock seconds since the registry (i.e. the run) started.
    double elapsed_s = 0.0;
    std::vector<std::uint64_t> watermarks;
    std::vector<double> busy_seconds;
    std::vector<char> finished;
  };
  Snapshot snapshot() const;

  std::uint64_t heartbeats_received() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }
  std::uint64_t watermark_advances() const {
    return watermark_advances_.load(std::memory_order_relaxed);
  }

  // Classification result, recorded by the receive that threw
  // StragglerDetected and surfaced through RunResult.
  void note_straggler(int rank, double slowdown);
  int straggler_rank() const;
  double straggler_slowdown() const;

 private:
  struct RankLane {
    mutable std::mutex mu;
    PhiAccrualEstimator beats;
    std::atomic<std::int64_t> last_beat_ns{-1};
    std::uint64_t watermark = 0;
    int level = -1;
    double blocked_accum_s = 0.0;
    std::chrono::steady_clock::time_point blocked_since{};
    bool blocked = false;  // in a not-busy interval: a receive or disk I/O
    bool in_io = false;
    bool finished = false;

    RankLane(int window, int min_samples) : beats(window, min_samples) {}
  };

  // Opens or closes a not-busy interval of `l`; the caller holds l.mu.
  static void set_blocked(RankLane& l, bool blocked,
                          std::chrono::steady_clock::time_point now);

  RankLane& lane(int rank) { return *lanes_[static_cast<std::size_t>(rank)]; }
  const RankLane& lane(int rank) const {
    return *lanes_[static_cast<std::size_t>(rank)];
  }

  HealthOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<RankLane>> lanes_;
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> watermark_advances_{0};
  mutable std::mutex straggler_mu_;
  int straggler_rank_ = -1;
  double straggler_slowdown_ = 0.0;
};

// Parse-time hardening shared by the CLI and env knobs: parses `text` as a
// strictly positive finite double, throwing std::invalid_argument that
// names `flag` and the offending value instead of silently defaulting.
double parse_positive_health_value(const std::string& flag,
                                   const std::string& text);

}  // namespace scalparc::mp
