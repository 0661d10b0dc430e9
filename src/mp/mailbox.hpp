// Point-to-point channels between ranks.
//
// Each (source, destination) pair has a dedicated FIFO channel. Sends are
// buffered (never block); receives block until a message with the requested
// tag is available. Because sends are buffered, higher-level exchange
// patterns (pairwise all-to-all, trees) cannot deadlock.
//
// If a rank dies with an exception, the runtime poisons every channel so
// that peers blocked in pop() wake up and unwind (RankAborted) instead of
// deadlocking the whole run.
//
// Receives additionally support a deadline (try_pop_until) so the runtime
// can bound every blocking wait: on expiry the Comm layer consults the Hub's
// deadlock detector and either keeps waiting, aborts the run with a per-rank
// diagnostic (DeadlockDetected), or gives up (RecvTimeout).
//
// Reliability (ack/retransmit): when enabled, every send carries a per-channel
// monotone sequence number and the sender side of the channel retains a
// shared handle on the clean frame of each unacknowledged message (bounded
// in-flight buffer) — no bytes are copied; an injected corruption writes a
// private copy of the frame instead (Payload::mutable_bytes). A receiver that
// pops a frame failing its CRC nacks it by sequence number (the clean frame
// is re-queued); a receiver whose wait times out requests a retransmit by
// tag. Accepted sequence numbers are tracked (compacted watermark +
// out-of-order set) so retransmit races and an injected `duplicate` fault
// are absorbed by dedupe instead of being delivered twice.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

#include "mp/health.hpp"
#include "mp/message.hpp"

namespace scalparc::mp {

// Thrown out of Channel::pop when the run has been aborted by another rank.
struct RankAborted : std::runtime_error {
  RankAborted() : std::runtime_error("message-passing run aborted by a peer rank") {}
};

// A received frame whose CRC32 checksum does not match its payload.
struct CorruptMessage : std::runtime_error {
  explicit CorruptMessage(const std::string& what) : std::runtime_error(what) {}
};

// A blocking receive exceeded the configured per-receive timeout.
struct RecvTimeout : std::runtime_error {
  explicit RecvTimeout(const std::string& what) : std::runtime_error(what) {}
};

// Every unfinished rank is blocked in a receive with no deliverable message:
// the run can never make progress. Carries a per-rank diagnostic.
struct DeadlockDetected : std::runtime_error {
  explicit DeadlockDetected(const std::string& what) : std::runtime_error(what) {}
};

// Reliability counters of one channel (or an aggregate over channels).
struct ChannelStats {
  // Clean frames re-queued from the in-flight buffer (nack- or timer-driven).
  std::uint64_t retransmits = 0;
  // CRC-mismatch nacks raised by the receiver.
  std::uint64_t nacks = 0;
  // Frames discarded because their sequence number was already accepted.
  std::uint64_t duplicates = 0;

  ChannelStats& operator+=(const ChannelStats& other) {
    retransmits += other.retransmits;
    nacks += other.nacks;
    duplicates += other.duplicates;
    return *this;
  }
  std::uint64_t heal_events() const { return retransmits + duplicates; }
};

class Channel {
 public:
  enum class PopStatus { kOk, kTimeout };

  void push(Message message);

  // Blocks until a message whose tag equals `tag` is present, removes it and
  // returns it. Messages with other tags are left queued (a fast sender may
  // have already pushed messages for a later operation). Throws RankAborted
  // if the channel is poisoned while waiting.
  Message pop(std::int64_t tag);

  // Like pop, but gives up at `deadline` and returns kTimeout instead of
  // blocking forever. Still throws RankAborted on poisoning.
  PopStatus try_pop_until(std::int64_t tag, Message& out,
                          std::chrono::steady_clock::time_point deadline);

  // Non-blocking: removes and returns a matching message if one is already
  // queued. Throws RankAborted if poisoned.
  bool try_pop(std::int64_t tag, Message& out);

  // True if a message with this tag is queued (deadlock-detector probe).
  bool has_message(std::int64_t tag) const;

  // Wakes all waiters with RankAborted; subsequent pops also throw.
  void poison();

  // True if any message is queued (used by shutdown sanity checks).
  bool empty() const;

  // Removes all queued messages (post-abort hygiene) and returns how many of
  // them were genuinely undelivered. Frames whose sequence number was already
  // accepted are stale duplicates absorbed by the reliability layer — they
  // are counted into stats().duplicates, not into the return value.
  std::size_t drain();

  // --- reliability (ack/retransmit) protocol --------------------------
  // Sender side. assign_seq hands out the next per-channel sequence number;
  // record_inflight retains a shared handle on the payload of `message`
  // (call it with the CRC-framed message *before* wire faults are applied)
  // in a bounded buffer — when the buffer is full the oldest frame is
  // evicted and can no longer be retransmitted. Acknowledging a frame
  // releases the retained handle, so a receiver that holds the only other
  // one reclaims the buffer without a copy.
  std::uint64_t assign_seq();
  void record_inflight(const Message& message);
  void set_inflight_cap(std::size_t cap);

  // Receiver side. discard_if_duplicate returns true (and counts a dupe) if
  // `seq` was already accepted. acknowledge marks `seq` accepted and releases
  // its in-flight frame. nack_retransmit re-queues the clean frame of `seq`
  // (CRC-mismatch recovery); request_retransmit re-queues the oldest
  // unacknowledged frame with `tag` that is not currently queued
  // (lost-message recovery). Both queue another handle on the retained
  // buffer and return false when no retransmittable frame exists.
  bool discard_if_duplicate(std::uint64_t seq);
  void acknowledge(std::uint64_t seq);
  bool nack_retransmit(std::uint64_t seq);
  bool request_retransmit(std::int64_t tag);

  // Deadlock-detector probe: true if a retransmittable frame with this tag is
  // buffered, i.e. a blocked receiver can still heal the channel itself.
  bool can_retransmit(std::int64_t tag) const;

  ChannelStats stats() const;

  // --- adaptive-timeout telemetry (gray-failure subsystem) ------------
  // Every push feeds a phi-accrual estimator over the channel's message
  // inter-arrival times, so a blocked receiver can derive its deadline from
  // the observed latency distribution instead of a one-size-fits-all
  // constant. Primed means enough samples for an opinion.
  bool arrival_primed() const;
  // Seconds since the last push (0 before the first message arrives).
  double arrival_silence_s() const;
  // Smallest silence whose suspicion reaches `phi_threshold`; call only
  // when arrival_primed().
  double adaptive_timeout_s(double phi_threshold) const;

 private:
  // The clean (pre-fault) frame of an unacknowledged message: its header and
  // a shared handle on the payload buffer the sender moved onto the wire.
  struct Inflight {
    std::uint64_t seq = 0;
    std::int64_t tag = 0;
    double arrival_vtime = 0.0;
    std::uint32_t crc = 0;
    Payload payload;
  };

  // Caller must hold mutex_. Returns true and fills `out` on a tag match.
  bool take_locked(std::int64_t tag, Message& out);
  // Caller must hold mutex_. True if `seq` is in the accepted set.
  bool accepted_locked(std::uint64_t seq) const;
  // Caller must hold mutex_. Rebuilds a Message around another handle on an
  // in-flight frame and queues it (the caller notifies ready_ after releasing
  // the lock).
  void requeue_locked(const Inflight& frame);

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Message> queue_;
  bool poisoned_ = false;

  std::uint64_t next_seq_ = 0;
  std::deque<Inflight> inflight_;
  std::size_t inflight_cap_ = 64;
  // Accepted sequence numbers: everything <= watermark plus a compacted
  // out-of-order set (receives match by tag, so acceptance order can differ
  // from send order).
  std::uint64_t accepted_watermark_ = 0;
  std::set<std::uint64_t> accepted_ahead_;
  ChannelStats stats_;

  // Message inter-arrival history (guarded by mutex_, fed in push).
  PhiAccrualEstimator arrivals_;
  std::chrono::steady_clock::time_point last_arrival_{};
  bool has_arrival_ = false;
};

}  // namespace scalparc::mp
