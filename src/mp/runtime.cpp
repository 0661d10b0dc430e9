#include "mp/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mp/fault.hpp"
#include "mp/telemetry.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace scalparc::mp {

double default_recv_timeout_s() {
  if (const char* text = std::getenv("SCALPARC_TEST_RECV_TIMEOUT_S")) {
    // A set-but-broken override must be loud: a typo silently reverting to
    // the 120 s default turns a seconds-scale fault suite into minutes.
    return parse_positive_health_value("SCALPARC_TEST_RECV_TIMEOUT_S", text);
  }
  return 120.0;
}

Hub::Hub(int nranks, const RunOptions& options)
    : nranks_(nranks), options_(options), health_(nranks, options.health) {
  if (nranks <= 0) throw std::invalid_argument("Hub: nranks must be positive");
  channels_ = std::vector<Channel>(static_cast<std::size_t>(nranks) *
                                   static_cast<std::size_t>(nranks));
  for (Channel& c : channels_) {
    c.set_inflight_cap(options_.reliability.inflight_cap);
  }
  waits_.resize(static_cast<std::size_t>(nranks));
  unfinished_ = nranks;
}

bool Hub::all_channels_empty() const {
  return std::all_of(channels_.begin(), channels_.end(),
                     [](const Channel& c) { return c.empty(); });
}

std::size_t Hub::drain_all_channels() {
  std::size_t total = 0;
  for (Channel& c : channels_) total += c.drain();
  return total;
}

void Hub::poison_all() {
  for (Channel& c : channels_) c.poison();
}

ChannelStats Hub::transport_stats() const {
  ChannelStats total;
  for (const Channel& c : channels_) total += c.stats();
  return total;
}

void Hub::mark_blocked(int rank, int src, std::int64_t tag,
                       bool heal_exhausted) {
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    WaitState& w = waits_[static_cast<std::size_t>(rank)];
    w.blocked = true;
    w.src = src;
    w.tag = tag;
    w.heal_exhausted = heal_exhausted;
    ++w.epoch;
  }
  if (health_.enabled()) health_.on_blocked(rank);
}

void Hub::mark_heal_exhausted(int rank) {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  waits_[static_cast<std::size_t>(rank)].heal_exhausted = true;
}

void Hub::mark_unblocked(int rank) {
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    WaitState& w = waits_[static_cast<std::size_t>(rank)];
    w.blocked = false;
    ++w.epoch;
  }
  if (health_.enabled()) health_.on_unblocked(rank);
}

void Hub::mark_dead(int rank) {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  waits_[static_cast<std::size_t>(rank)].dead = true;
}

void Hub::admit_joiner(int rank) {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  ++waits_[static_cast<std::size_t>(rank)].epoch;
  ++joiners_admitted_;
}

std::uint64_t Hub::joiners_admitted() const {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  return joiners_admitted_;
}

std::vector<int> Hub::dead_ranks() const {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  std::vector<int> dead;
  for (int r = 0; r < nranks_; ++r) {
    if (waits_[static_cast<std::size_t>(r)].dead) dead.push_back(r);
  }
  return dead;
}

std::uint64_t Hub::total_liveness_epoch_bumps() const {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  std::uint64_t total = 0;
  for (const WaitState& w : waits_) total += w.epoch;
  return total;
}

void Hub::mark_finished(int rank) {
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    WaitState& w = waits_[static_cast<std::size_t>(rank)];
    if (!w.finished) {
      w.finished = true;
      w.blocked = false;
      --unfinished_;
    }
  }
  if (health_.enabled()) health_.on_finished(rank);
}

std::string Hub::deadlock_diagnostic() {
  // A rank is briefly still registered as blocked in the instants between
  // popping its frame and leaving the registry, so a single probe can observe
  // a phantom "all blocked, nothing deliverable" state when threads are
  // starved (oversubscribed CPUs). True deadlock is *stable*: confirm by
  // re-probing after a pause and requiring every liveness epoch unchanged —
  // any progress in between bumps an epoch and cancels the verdict.
  std::vector<std::uint64_t> first;
  std::string diag = deadlock_probe(&first);
  if (diag.empty() || first.empty()) return diag;  // clear, or stable death
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<std::uint64_t> second;
  diag = deadlock_probe(&second);
  if (diag.empty()) return "";
  if (second.empty()) return diag;  // escalated to a rank-death diagnostic
  return first == second ? diag : "";
}

std::string Hub::deadlock_probe(std::vector<std::uint64_t>* epochs) {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  if (unfinished_ == 0) return "";
  // Liveness-epoch classification: a registered dead rank means this is not
  // an all-blocked livelock — the blocked survivors are waiting on a rank
  // that will never send again, and recovery must shrink the world to the
  // survivors or restart it.
  bool any_dead = false;
  for (const WaitState& w : waits_) any_dead = any_dead || w.dead;
  if (any_dead) {
    std::ostringstream diag;
    diag << "rank death: survivors are blocked on rank(s) that terminated;";
    for (int r = 0; r < nranks_; ++r) {
      const WaitState& w = waits_[static_cast<std::size_t>(r)];
      if (w.dead) {
        diag << " rank " << r << " dead (liveness epoch " << w.epoch << ");";
      }
    }
    diag << " shrink to survivors or restart";
    return diag.str();
  }
  for (const WaitState& w : waits_) {
    if (!w.finished && !w.blocked) return "";  // someone can still progress
  }
  // All unfinished ranks are blocked; the run is stuck unless one of the
  // awaited messages is already queued, or the reliability layer still holds
  // a retransmittable copy (the blocked receiver will heal the channel
  // itself). Sends complete before the sender can register as blocked, so
  // this probe cannot miss an in-flight push.
  for (int r = 0; r < nranks_; ++r) {
    const WaitState& w = waits_[static_cast<std::size_t>(r)];
    if (w.finished) continue;
    Channel& c = channel(w.src, r);
    if (c.has_message(w.tag)) return "";
    if (options_.reliability.enabled && !w.heal_exhausted &&
        c.can_retransmit(w.tag)) {
      return "";
    }
  }
  std::ostringstream diag;
  diag << "deadlock: every unfinished rank is blocked with no deliverable "
          "message;";
  for (int r = 0; r < nranks_; ++r) {
    const WaitState& w = waits_[static_cast<std::size_t>(r)];
    if (w.finished) continue;
    epochs->push_back(w.epoch);
    diag << " rank " << r << " blocked in recv(src=" << w.src
         << ", tag=" << w.tag << ", liveness epoch " << w.epoch << ");";
  }
  return diag.str();
}

int join_handshake(Comm& comm, const JoinCapability& capability) {
  const int prior = comm.prior_world();
  const int p = comm.size();
  if (prior <= 0 || prior >= p) return 0;  // not a grow resume
  // Two collective-style tags, advanced identically on every rank: one for
  // the joiner -> root capability upload, one for the admitted-count fanout.
  const std::int64_t cap_tag = comm.next_collective_tag();
  const std::int64_t admit_tag = comm.next_collective_tag();
  int admitted = 0;
  if (comm.rank() == 0) {
    for (int joiner = prior; joiner < p; ++joiner) {
      const auto offered = comm.recv_value<JoinCapability>(joiner, cap_tag);
      if (offered.fingerprint != capability.fingerprint ||
          offered.total_records != capability.total_records ||
          offered.num_attributes != capability.num_attributes) {
        std::ostringstream what;
        what << "join_handshake: joiner rank " << joiner
             << " capability mismatch (fingerprint " << offered.fingerprint
             << " vs " << capability.fingerprint << ", records "
             << offered.total_records << " vs " << capability.total_records
             << ", attrs " << offered.num_attributes << " vs "
             << capability.num_attributes << "); refusing to admit";
        throw std::runtime_error(what.str());
      }
      comm.admit_joiner(joiner);
      ++admitted;
    }
    for (int r = 1; r < p; ++r) comm.send_value<int>(r, admit_tag, admitted);
  } else {
    if (comm.rank() >= prior) {
      comm.send_value<JoinCapability>(0, cap_tag, capability);
    }
    admitted = comm.recv_value<int>(0, admit_tag);
  }
  if (MetricsSnapshot* sink = metrics_sink()) {
    if (comm.rank() == 0) {
      sink->add("recovery.joiners_admitted", static_cast<double>(admitted));
    }
  }
  return admitted;
}

CommStats RunResult::total_stats() const {
  CommStats total;
  for (const RankOutcome& r : ranks) total += r.stats;
  return total;
}

std::size_t RunResult::max_peak_bytes_per_rank() const {
  std::size_t peak = 0;
  for (const RankOutcome& r : ranks) peak = std::max(peak, r.meter.peak_bytes());
  return peak;
}

std::uint64_t RunResult::max_bytes_sent_per_rank() const {
  std::uint64_t peak = 0;
  for (const RankOutcome& r : ranks) peak = std::max(peak, r.stats.bytes_sent);
  return peak;
}

RunResult try_run_ranks(int nranks, const CostModel& model,
                        const std::function<void(Comm&)>& body,
                        const RunOptions& options) {
  if (nranks <= 0) {
    throw std::invalid_argument("run_ranks: nranks must be positive");
  }
  Hub hub(nranks, options);
  RunResult result;
  result.ranks.resize(static_cast<std::size_t>(nranks));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  util::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      RankOutcome& outcome = result.ranks[static_cast<std::size_t>(r)];
      // Bind the thread-local rank context (log-line prefix + trace lane)
      // and the rank's metrics sink for the lifetime of the body.
      util::ThreadRankGuard rank_guard(r);
      MetricsSinkGuard sink_guard(&outcome.metrics);
      Comm comm(hub, r, model, &outcome.meter);
      try {
        body(comm);
      } catch (const RankAborted&) {
        // Secondary failure caused by another rank's abort; not reported.
      } catch (const DeadlockDetected&) {
        // The reporting rank is a victim, not a casualty: nobody provably
        // died, so it is not registered in the liveness registry.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        hub.poison_all();
      } catch (const RecvTimeout&) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        hub.poison_all();
      } catch (const StragglerDetected&) {
        // Like DeadlockDetected, the reporting rank is a victim: the
        // straggler itself is alive and correct, so nobody is marked dead.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        hub.poison_all();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Poison before registering the death: waiters must wake with
        // RankAborted (secondary) rather than observe the death through the
        // deadlock diagnostic and report a phantom primary failure.
        hub.poison_all();
        hub.mark_dead(r);
      }
      hub.mark_finished(r);
      outcome.stats = comm.stats();
      outcome.vtime_seconds = comm.vtime();
      absorb_comm_stats(outcome.metrics, outcome.stats);
      outcome.metrics.merge_histogram("comm.message_bytes",
                                      comm.message_bytes_histogram());
      if (comm.backoff_waits() > 0) {
        outcome.metrics.add("transport.backoff_waits",
                            static_cast<double>(comm.backoff_waits()));
      }
      if (comm.heals() > 0) {
        outcome.metrics.add("transport.heals",
                            static_cast<double>(comm.heals()));
      }
      if (comm.deadlock_probes() > 0) {
        outcome.metrics.add("runtime.deadlock_probes",
                            static_cast<double>(comm.deadlock_probes()));
      }
      if (comm.heartbeats_sent() > 0) {
        outcome.metrics.add("health.heartbeats_sent",
                            static_cast<double>(comm.heartbeats_sent()));
      }
      outcome.metrics.merge_histogram("health.suspicion_phi_x100",
                                      comm.suspicion_histogram());
      outcome.metrics.merge_histogram("health.watermark_lag",
                                      comm.watermark_lag_histogram());
      if (comm.adaptive_timeout_max_s() > 0.0) {
        outcome.metrics.gauge_max("health.adaptive_timeout_s",
                                  comm.adaptive_timeout_max_s());
      }
      outcome.metrics.gauge_max(
          "memory.peak_bytes_per_rank",
          static_cast<double>(outcome.meter.peak_bytes()));
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds = wall.elapsed_seconds();

  result.dead_ranks = hub.dead_ranks();
  for (int r = 0; r < nranks; ++r) {
    if (!errors[static_cast<std::size_t>(r)]) continue;
    result.failed_rank = r;
    result.error = errors[static_cast<std::size_t>(r)];
    try {
      std::rethrow_exception(result.error);
    } catch (const DeadlockDetected& e) {
      result.failure_kind = FailureKind::kDeadlock;
      result.failure_message = e.what();
    } catch (const RecvTimeout& e) {
      result.failure_kind = FailureKind::kTimeout;
      result.failure_message = e.what();
    } catch (const StragglerDetected& e) {
      result.failure_kind = FailureKind::kStraggler;
      result.failure_message = e.what();
      result.straggler_rank = hub.health().straggler_rank();
      result.straggler_slowdown = hub.health().straggler_slowdown();
    } catch (const std::exception& e) {
      result.failure_kind = FailureKind::kRankDeath;
      result.failure_message = e.what();
    } catch (...) {
      result.failure_kind = FailureKind::kRankDeath;
      result.failure_message = "non-standard exception";
    }
    break;
  }

  // Teardown hygiene: a poisoned run may leave undelivered messages queued;
  // drain them so they cannot leak into the diagnostics of a later run. A
  // *clean* run with queued messages is a protocol bug and must be loud —
  // except for stale duplicates already absorbed by the reliability layer,
  // which drain() classifies into the duplicate counter instead.
  result.undelivered_messages = hub.drain_all_channels();
  result.transport = hub.transport_stats();
  if (!hub.all_channels_empty()) {
    throw std::logic_error("run_ranks: channels not empty after drain");
  }
  if (!result.failed() && result.undelivered_messages > 0) {
    throw std::logic_error(
        "run_ranks: clean run left " +
        std::to_string(result.undelivered_messages) +
        " undelivered message(s) queued (unmatched send/recv pair)");
  }

  for (const RankOutcome& r : result.ranks) {
    result.modeled_seconds = std::max(result.modeled_seconds, r.vtime_seconds);
  }

  // Fold the per-rank snapshots plus the run-scoped transport/runtime
  // counters into the unified registry.
  for (const RankOutcome& r : result.ranks) result.metrics.merge(r.metrics);
  absorb_channel_stats(result.metrics, result.transport);
  result.metrics.add("runtime.liveness_epoch_bumps",
                     static_cast<double>(hub.total_liveness_epoch_bumps()));
  if (hub.health().heartbeats_received() > 0) {
    result.metrics.add("health.heartbeats_received",
                       static_cast<double>(hub.health().heartbeats_received()));
  }
  if (hub.health().watermark_advances() > 0) {
    result.metrics.add("health.watermark_advances",
                       static_cast<double>(hub.health().watermark_advances()));
  }
  if (result.failure_kind == FailureKind::kStraggler) {
    result.metrics.add("health.stragglers_detected", 1.0);
    telemetry::record_event(
        "straggler", "rank " + std::to_string(result.straggler_rank) +
                         " classified slow (x" +
                         std::to_string(result.straggler_slowdown) + "): " +
                         result.failure_message);
  }
  result.metrics.gauge_max("runtime.ranks", static_cast<double>(nranks));
  result.metrics.gauge_max("runtime.modeled_seconds", result.modeled_seconds);
  result.metrics.gauge_max("runtime.wall_seconds", result.wall_seconds);
  return result;
}

RunResult run_ranks(int nranks, const CostModel& model,
                    const std::function<void(Comm&)>& body,
                    const RunOptions& options) {
  RunResult result = try_run_ranks(nranks, model, body, options);
  if (result.failed()) std::rethrow_exception(result.error);
  return result;
}

}  // namespace scalparc::mp
