#include "mp/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "util/crc32.hpp"

namespace scalparc::mp {

namespace {

// How long a receiver waits between deadlock-detector probes. Small enough
// that an injected deadlock resolves promptly, large enough that the probe
// never shows up in profiles of healthy runs.
constexpr std::chrono::milliseconds kRecvSlice{25};

// splitmix64, for deterministic retransmit-backoff jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Backoff with +-25% deterministic jitter so retransmit timers of different
// ranks/tags do not fire in lockstep, yet a fixed run replays identically.
double jittered_ms(double backoff_ms, int rank, std::int64_t tag, int attempt) {
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(rank) << 48 ^
            static_cast<std::uint64_t>(tag) << 8 ^
            static_cast<std::uint64_t>(attempt));
  const double unit = static_cast<double>(h % 1024) / 1024.0;  // [0, 1)
  return backoff_ms * (0.75 + 0.5 * unit);
}

std::chrono::steady_clock::duration duration_from_ms(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

Comm::Comm(Hub& hub, int rank, const CostModel& model,
           util::MemoryMeter* meter)
    : hub_(hub), rank_(rank), model_(model), meter_(meter) {
  if (rank < 0 || rank >= hub.size()) {
    throw std::invalid_argument("Comm: rank out of range");
  }
  const HealthOptions& health = hub.options().health;
  health_monitoring_ = health.monitoring();
  detect_stragglers_ = health.detect_stragglers;
  adaptive_timeouts_ = health.adaptive_timeouts;
  if (const FaultPlan* plan = hub.options().fault_plan) {
    slow_factor_ = plan->slow_factor_for(rank);
  }
}

void Comm::heartbeat() {
  if (!health_monitoring_) return;
  hub_.health().heartbeat(rank_);
  ++heartbeats_sent_;
}

void Comm::settle_realized_work() {
  // Sleep in bounded chunks, heartbeating between them: a rank throttled 8x
  // spends most of its wall time here and must stay visibly alive.
  constexpr double kChunkS = 0.05;
  while (realize_debt_s_ > 0.0) {
    const double chunk = std::min(realize_debt_s_, kChunkS);
    std::this_thread::sleep_for(std::chrono::duration<double>(chunk));
    realize_debt_s_ -= chunk;
    heartbeat();
  }
  realize_debt_s_ = 0.0;
}

int Comm::size() const { return hub_.size(); }

int Comm::prior_world() const { return hub_.options().prior_world; }

void Comm::admit_joiner(int rank) { hub_.admit_joiner(rank); }

std::int64_t Comm::begin_op(const char* what) {
  const std::int64_t op = ++comm_ops_;
  heartbeat();
  if (slow_factor_ > 1.0) {
    // Per-op wall pause so a slow fault is visible even in virtual-time-only
    // runs: ~50 us of implied per-op CPU cost, scaled by (factor - 1).
    std::this_thread::sleep_for(
        std::chrono::duration<double>((slow_factor_ - 1.0) * 50e-6));
  }
  const FaultPlan* plan = hub_.options().fault_plan;
  if (plan != nullptr) {
    const double delay = plan->delay_ms_at_op(rank_, op);
    if (delay > 0.0) {
      plan->count_delay();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
    }
    if (plan->kills_at_op(rank_, op)) {
      plan->count_kill();
      std::ostringstream what_out;
      what_out << "injected fault: rank " << rank_ << " killed at " << what
               << " (op " << op << ")";
      throw InjectedFault(what_out.str());
    }
  }
  return op;
}

void Comm::fault_level_boundary(int level) {
  publish_watermark(level);
  const FaultPlan* plan = hub_.options().fault_plan;
  if (plan != nullptr && plan->kills_at_level(rank_, level)) {
    plan->count_kill();
    std::ostringstream what_out;
    what_out << "injected fault: rank " << rank_ << " killed at level "
             << level << " boundary";
    throw InjectedFault(what_out.str());
  }
}

void Comm::set_in_io(bool in_io) {
  if (health_monitoring_) hub_.health().set_in_io(rank_, in_io);
}

void Comm::publish_watermark(int level) {
  if (!health_monitoring_) return;
  hub_.health().advance_watermark(rank_, level);
}

void Comm::straggler_probe(int src, std::int64_t tag) {
  const HealthOptions& health = hub_.options().health;
  const HealthRegistry::Snapshot snap = hub_.health().snapshot();
  const int p = size();
  // Suspect: the busiest unfinished peer. In a level-synchronous program the
  // straggler is the rank still burning CPU while everyone else idles at a
  // barrier, so while this rank is blocked, the peer with the largest
  // cumulative busy time is the one pacing the run.
  int suspect = -1;
  double suspect_busy = 0.0;
  for (int r = 0; r < p; ++r) {
    if (r == rank_ || snap.finished[static_cast<std::size_t>(r)]) continue;
    const double busy = snap.busy_seconds[static_cast<std::size_t>(r)];
    if (suspect < 0 || busy > suspect_busy) {
      suspect = r;
      suspect_busy = busy;
    }
  }
  if (suspect < 0) {
    straggler_suspect_ = -1;
    return;
  }

  // Watermark check. Barriers keep every rank within about one phase of the
  // minimum, so equality is expected — the condition is a guard against
  // suspecting a rank that has *pulled ahead* of the pack (it cannot be the
  // one pacing the run). A rank whose heartbeats stop entirely is not a
  // straggler either: that is the stuck/dead territory of the deadlock
  // detector and the fixed timeout.
  std::uint64_t min_wm = 0, max_wm = 0;
  bool first_wm = true;
  for (int r = 0; r < p; ++r) {
    if (snap.finished[static_cast<std::size_t>(r)]) continue;
    const std::uint64_t wm = snap.watermarks[static_cast<std::size_t>(r)];
    min_wm = first_wm ? wm : std::min(min_wm, wm);
    max_wm = first_wm ? wm : std::max(max_wm, wm);
    first_wm = false;
  }
  const bool at_the_back =
      snap.watermarks[static_cast<std::size_t>(suspect)] <= min_wm + 1;
  double phi = 0.0;
  const bool alive = hub_.health().alive(suspect, &phi);
  suspicion_hist_.observe(static_cast<std::uint64_t>(phi * 100.0));
  watermark_lag_hist_.observe(max_wm - min_wm);

  // Busy-time ratio: suspect vs the median of everyone else (cumulative over
  // the run — a per-run registry, so a rebalanced retry starts fresh). The
  // floor keeps an early, nearly-idle median from inflating the ratio.
  std::vector<double> others;
  others.reserve(static_cast<std::size_t>(p) - 1);
  for (int r = 0; r < p; ++r) {
    if (r == suspect) continue;
    others.push_back(snap.busy_seconds[static_cast<std::size_t>(r)]);
  }
  std::nth_element(others.begin(), others.begin() + others.size() / 2,
                   others.end());
  const double median = others[others.size() / 2];
  const double floor_s = std::max(0.02 * snap.elapsed_s, 1e-3);
  const double ratio = suspect_busy / std::max(median, floor_s);

  // All evidence conditions must hold continuously for sustain_s:
  //   - the suspect is alive (heartbeats flowing) and at the back of the pack
  //   - this rank has been starved (cumulatively blocked) long enough
  //   - the suspect has done enough absolute work for the ratio to mean
  //     anything
  //   - the busy-time ratio clears the configured slowdown threshold
  const bool starved =
      snap.elapsed_s - snap.busy_seconds[static_cast<std::size_t>(rank_)] >=
      health.min_blocked_s;
  const bool busy_enough = suspect_busy >= health.min_blocked_s;
  const bool hold = alive && at_the_back && starved && busy_enough &&
                    ratio >= health.slow_ratio;
  const auto now = std::chrono::steady_clock::now();
  if (!hold) {
    straggler_suspect_ = -1;
    return;
  }
  if (straggler_suspect_ != suspect) {
    straggler_suspect_ = suspect;
    straggler_since_ = now;
    return;
  }
  if (std::chrono::duration<double>(now - straggler_since_).count() <
      health.sustain_s) {
    return;
  }
  const double slowdown = std::clamp(ratio, 2.0, 16.0);
  hub_.health().note_straggler(suspect, slowdown);
  std::ostringstream what_out;
  what_out << "straggler detected: rank " << suspect
           << " is alive (phi " << phi << ") and progressing (watermark "
           << snap.watermarks[static_cast<std::size_t>(suspect)] << ", min "
           << min_wm << ") but pacing the run: busy " << suspect_busy
           << "s vs median peer " << median << "s (" << ratio
           << "x) over " << snap.elapsed_s << "s; observed from rank "
           << rank_ << " blocked in recv(src=" << src << ", tag=" << tag
           << ")";
  hub_.poison_all();
  throw StragglerDetected(what_out.str());
}

void Comm::send_payload(int dst, std::int64_t tag, Payload payload) {
  if (dst < 0 || dst >= size()) {
    throw std::invalid_argument("Comm::send_payload: destination out of range");
  }
  const std::int64_t op = begin_op("send");
  // Sender pays per-message CPU overhead; the message lands at the receiver
  // no earlier than now + wire time.
  vtime_ += model_.send_overhead_s;
  Message message;
  message.tag = tag;
  message.arrival_vtime = vtime_ + model_.wire_seconds(payload.size());
  message.payload = std::move(payload);
  // Frame checksum first, wire faults second: a corrupted payload must be
  // *detected* at the receiver, never silently mis-parsed.
  message.crc = util::crc32(message.payload.bytes());
  stats_.record_send(current_op_, message.payload.size());
  message_bytes_hist_.observe(message.payload.size());
  Channel& channel = hub_.channel(rank_, dst);
  const ReliabilityOptions& reliability = hub_.options().reliability;
  if (reliability.enabled) {
    // Sequence and retain the clean frame *before* wire faults touch the
    // message: whatever the wire does, the receiver can always be given
    // back exactly what was sent. The in-flight buffer shares the payload
    // buffer; a corrupt fault below writes a private copy.
    message.seq = channel.assign_seq();
    channel.record_inflight(message);
  }
  const FaultPlan* plan = hub_.options().fault_plan;
  bool duplicate = false;
  if (plan != nullptr) {
    if (plan->drops_at_op(rank_, op)) {
      plan->count_drop();
      return;  // the wire ate it
    }
    if (plan->corrupts_at_op(rank_, op)) {
      plan->corrupt_payload(message.payload.mutable_bytes(), rank_, op);
    }
    if (plan->duplicates_at_op(rank_, op)) {
      plan->count_duplicate();
      duplicate = true;
    }
  }
  if (duplicate) {
    Message copy;
    copy.tag = message.tag;
    copy.seq = message.seq;
    copy.arrival_vtime = message.arrival_vtime;
    copy.crc = message.crc;
    copy.payload = Payload::copy_of(message.payload.bytes());
    channel.push(std::move(copy));
  }
  channel.push(std::move(message));
}

Payload Comm::recv_payload(int src, std::int64_t tag) {
  if (src < 0 || src >= size()) {
    throw std::invalid_argument("Comm::recv_payload: source out of range");
  }
  begin_op("recv");
  Channel& channel = hub_.channel(src, rank_);
  const RunOptions& options = hub_.options();
  const ReliabilityOptions& reliability = options.reliability;
  using clock = std::chrono::steady_clock;

  // Lazily initialized slow-path state, shared across protocol retries: the
  // overall timeout spans the whole logical receive, not one wire frame.
  bool waiting = false;
  bool bounded = false;
  clock::time_point overall_deadline = clock::time_point::max();
  clock::time_point next_retransmit = clock::time_point::max();
  // Adaptive per-channel deadline, derived from the observed inter-arrival
  // distribution once the channel's estimator is primed. On expiry it either
  // escalates (sender heartbeat-silent too: RecvTimeout) or stretches
  // (sender alive: double, capped at the fixed ceiling) — so with a live
  // sender this can never fail earlier than the fixed timeout alone.
  clock::time_point adaptive_deadline = clock::time_point::max();
  double adaptive_window_s = 0.0;
  double backoff_ms = reliability.backoff_ms;
  // Heal attempts charged against reliability.max_retransmits: nacks raised
  // plus timer-driven retransmit requests that actually re-queued a copy.
  int heal_attempts = 0;
  int heals_performed = 0;
  bool heal_exhausted = false;
  struct Unmark {
    Hub* hub = nullptr;
    int rank = 0;
    ~Unmark() {
      if (hub != nullptr) hub->mark_unblocked(rank);
    }
  } unmark;

  Message message;
  for (;;) {
    bool got = channel.try_pop(tag, message);
    if (!got) {
      if (!waiting) {
        waiting = true;
        const clock::time_point start = clock::now();
        bounded = options.recv_timeout_s > 0.0;
        if (bounded) {
          overall_deadline =
              start + std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(options.recv_timeout_s));
        }
        if (reliability.enabled) {
          next_retransmit =
              start + duration_from_ms(
                          jittered_ms(backoff_ms, rank_, tag, heal_attempts));
        }
        if (adaptive_timeouts_ && channel.arrival_primed()) {
          adaptive_window_s = std::max(
              channel.adaptive_timeout_s(options.health.phi_threshold),
              options.health.timeout_floor_s);
          if (bounded) {
            adaptive_window_s =
                std::min(adaptive_window_s, options.recv_timeout_s);
          }
          adaptive_deadline =
              start + duration_from_ms(adaptive_window_s * 1000.0);
          adaptive_timeout_max_s_ =
              std::max(adaptive_timeout_max_s_, adaptive_window_s);
        }
      }
      if (unmark.hub == nullptr) {
        // (Re-)enter the blocked registry. Re-entry after a discarded
        // duplicate or a nacked frame keeps this receive's heal-budget state.
        hub_.mark_blocked(rank_, src, tag, heal_exhausted);
        unmark.hub = &hub_;
        unmark.rank = rank_;
      }
      // Block in bounded slices; after each expired slice fire the
      // retransmit timer if due, then consult the deadlock detector and the
      // overall per-receive timeout.
      for (;;) {
        clock::time_point slice = clock::now() + kRecvSlice;
        if (slice > overall_deadline) slice = overall_deadline;
        if (slice > next_retransmit) slice = next_retransmit;
        if (slice > adaptive_deadline) slice = adaptive_deadline;
        if (channel.try_pop_until(tag, message, slice) ==
            Channel::PopStatus::kOk) {
          got = true;
          break;
        }
        const clock::time_point now = clock::now();
        // Every expired slice stamps this rank's own heartbeat lane (a
        // blocked waiter is alive) and, when straggler detection is on,
        // re-evaluates the gray-failure evidence.
        heartbeat();
        if (detect_stragglers_) straggler_probe(src, tag);
        if (reliability.enabled && now >= next_retransmit) {
          ++backoff_waits_;
          if (heal_attempts < reliability.max_retransmits) {
            // The awaited frame is overdue: if the sender side still holds a
            // clean unacknowledged copy for this tag, re-queue it (the frame
            // was dropped); if not, the sender simply has not sent yet.
            if (channel.request_retransmit(tag)) {
              ++heal_attempts;
              ++heals_performed;
            }
            backoff_ms = std::min(backoff_ms * 2.0, reliability.backoff_cap_ms);
            next_retransmit =
                now + duration_from_ms(
                          jittered_ms(backoff_ms, rank_, tag, heal_attempts));
          } else {
            // Budget spent: hand authority back to the deadlock detector
            // (its probe otherwise assumes this receiver will keep healing).
            hub_.mark_heal_exhausted(rank_);
            heal_exhausted = true;
            next_retransmit = clock::time_point::max();
          }
        }
        if (adaptive_timeouts_ && now >= adaptive_deadline) {
          double src_phi = 0.0;
          if (!hub_.health().alive(src, &src_phi)) {
            std::ostringstream what_out;
            what_out << "adaptive recv timeout: rank " << rank_ << " waited "
                     << adaptive_window_s << "s (phi threshold "
                     << options.health.phi_threshold << ") for recv(src="
                     << src << ", tag=" << tag << ") and rank " << src
                     << "'s heartbeat lane is silent too (phi " << src_phi
                     << ")";
            hub_.poison_all();
            throw RecvTimeout(what_out.str());
          }
          // Channel overdue but the sender is demonstrably alive: stretch.
          adaptive_window_s *= 2.0;
          if (bounded) {
            adaptive_window_s =
                std::min(adaptive_window_s, options.recv_timeout_s);
          }
          adaptive_deadline = now + duration_from_ms(adaptive_window_s * 1e3);
          adaptive_timeout_max_s_ =
              std::max(adaptive_timeout_max_s_, adaptive_window_s);
        }
        if (options.detect_deadlock) {
          ++deadlock_probes_;
          const std::string diag = hub_.deadlock_diagnostic();
          if (!diag.empty()) {
            // Last poison-aware look: if the run was already poisoned (a
            // peer died between our probe and its registration) unwind as a
            // secondary RankAborted instead of a phantom primary failure.
            if (channel.try_pop(tag, message)) {
              got = true;
              break;
            }
            hub_.poison_all();
            throw DeadlockDetected(diag);
          }
        }
        if (bounded && clock::now() >= overall_deadline) {
          std::ostringstream what_out;
          what_out << "recv timeout: rank " << rank_ << " waited "
                   << options.recv_timeout_s << "s for recv(src=" << src
                   << ", tag=" << tag << ")";
          hub_.poison_all();
          throw RecvTimeout(what_out.str());
        }
      }
    }

    // Leave the liveness registry as soon as the frame is popped: a rank
    // holding its frame is not blocked, and the CRC32 check of a large frame
    // can outlast the deadlock detector's confirmation pause — with
    // reliability off nothing else would veto a phantom "all blocked"
    // verdict. Leaving before the acknowledgement matters too: the ack drops
    // the sender's retransmittable copy.
    if (unmark.hub != nullptr) {
      hub_.mark_unblocked(rank_);
      unmark.hub = nullptr;
    }

    // Protocol checks. Dedupe strictly before CRC: a duplicate of an
    // already-accepted frame is discarded even if the wire mangled it, and a
    // seq must only be marked accepted once its frame passes the checksum
    // (a nacked frame's retransmission carries the same seq).
    if (reliability.enabled && message.seq != 0 &&
        channel.discard_if_duplicate(message.seq)) {
      continue;
    }
    if (message.crc != util::crc32(message.payload.bytes())) {
      if (reliability.enabled && message.seq != 0 &&
          heal_attempts < reliability.max_retransmits &&
          channel.nack_retransmit(message.seq)) {
        ++heal_attempts;
        ++heals_performed;
        continue;
      }
      std::ostringstream what_out;
      what_out << "corrupt message: rank " << rank_ << " recv(src=" << src
               << ", tag=" << tag << ", bytes=" << message.payload.size()
               << ") failed its CRC32 frame checksum";
      throw CorruptMessage(what_out.str());
    }
    if (reliability.enabled && message.seq != 0) {
      // Releases the in-flight handle on this frame, so the caller's take<T>
      // reclaims the sender's buffer without a copy.
      channel.acknowledge(message.seq);
    }
    if (message.arrival_vtime > vtime_) vtime_ = message.arrival_vtime;
    // Each heal cost a modeled control round trip on top of the original
    // arrival time (request or nack out, clean copy back).
    if (heals_performed > 0) {
      vtime_ += static_cast<double>(heals_performed) *
                (2.0 * model_.latency_s + model_.send_overhead_s);
    }
    heals_ += static_cast<std::uint64_t>(heals_performed);
    stats_.record_receive(message.payload.size());
    return std::move(message.payload);
  }
}

}  // namespace scalparc::mp
