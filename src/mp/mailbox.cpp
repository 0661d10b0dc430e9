#include "mp/mailbox.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace scalparc::mp {

void Channel::push(Message message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (has_arrival_) {
      arrivals_.record(
          std::chrono::duration<double>(now - last_arrival_).count());
    }
    last_arrival_ = now;
    has_arrival_ = true;
    queue_.push_back(std::move(message));
  }
  ready_.notify_all();
}

bool Channel::take_locked(std::int64_t tag, Message& out) {
  const auto it = std::find_if(queue_.begin(), queue_.end(), [tag](const Message& m) {
    return m.tag == tag;
  });
  if (it == queue_.end()) return false;
  out = std::move(*it);
  queue_.erase(it);
  return true;
}

Message Channel::pop(std::int64_t tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  Message out;
  for (;;) {
    if (take_locked(tag, out)) return out;
    if (poisoned_) throw RankAborted{};
    ready_.wait(lock);
  }
}

Channel::PopStatus Channel::try_pop_until(
    std::int64_t tag, Message& out,
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (take_locked(tag, out)) return PopStatus::kOk;
    if (poisoned_) throw RankAborted{};
    if (ready_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One last look: the message may have landed with the notification
      // racing the deadline.
      if (take_locked(tag, out)) return PopStatus::kOk;
      if (poisoned_) throw RankAborted{};
      return PopStatus::kTimeout;
    }
  }
}

bool Channel::try_pop(std::int64_t tag, Message& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (take_locked(tag, out)) return true;
  if (poisoned_) throw RankAborted{};
  return false;
}

bool Channel::has_message(std::int64_t tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(queue_.begin(), queue_.end(),
                     [tag](const Message& m) { return m.tag == tag; });
}

void Channel::poison() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    poisoned_ = true;
  }
  ready_.notify_all();
}

bool Channel::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty();
}

std::size_t Channel::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t undelivered = 0;
  for (const Message& m : queue_) {
    if (m.seq != 0 && accepted_locked(m.seq)) {
      // A stale duplicate (retransmit race or injected duplicate fault) the
      // receiver never needed to look at; absorbed, not lost.
      ++stats_.duplicates;
    } else {
      ++undelivered;
    }
  }
  queue_.clear();
  inflight_.clear();
  return undelivered;
}

std::uint64_t Channel::assign_seq() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_seq_;
}

void Channel::record_inflight(const Message& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (inflight_.size() >= inflight_cap_) inflight_.pop_front();
  Inflight frame;
  frame.seq = message.seq;
  frame.tag = message.tag;
  frame.arrival_vtime = message.arrival_vtime;
  frame.crc = message.crc;
  frame.payload = message.payload.share();
  inflight_.push_back(std::move(frame));
}

void Channel::set_inflight_cap(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_cap_ = cap == 0 ? 1 : cap;
}

bool Channel::accepted_locked(std::uint64_t seq) const {
  return seq <= accepted_watermark_ || accepted_ahead_.count(seq) != 0;
}

bool Channel::discard_if_duplicate(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!accepted_locked(seq)) return false;
  ++stats_.duplicates;
  return true;
}

void Channel::acknowledge(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!accepted_locked(seq)) {
    if (seq == accepted_watermark_ + 1) {
      ++accepted_watermark_;
      while (accepted_ahead_.erase(accepted_watermark_ + 1) != 0) {
        ++accepted_watermark_;
      }
    } else {
      accepted_ahead_.insert(seq);
    }
  }
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->seq == seq) {
      inflight_.erase(it);
      break;
    }
  }
}

void Channel::requeue_locked(const Inflight& frame) {
  Message message;
  message.tag = frame.tag;
  message.seq = frame.seq;
  message.arrival_vtime = frame.arrival_vtime;
  message.crc = frame.crc;
  message.payload = frame.payload.share();
  queue_.push_back(std::move(message));
  ++stats_.retransmits;
}

bool Channel::nack_retransmit(std::uint64_t seq) {
  bool requeued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.nacks;
    for (const Inflight& frame : inflight_) {
      if (frame.seq == seq) {
        requeue_locked(frame);
        requeued = true;
        break;
      }
    }
  }
  if (requeued) ready_.notify_all();
  return requeued;
}

bool Channel::request_retransmit(std::int64_t tag) {
  bool requeued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Inflight& frame : inflight_) {
      if (frame.tag != tag || accepted_locked(frame.seq)) continue;
      // A frame that is still queued is merely awaiting its pop; only a
      // vanished (dropped) frame needs retransmission. Spurious requeues
      // would be absorbed by dedupe anyway, but skipping them keeps the
      // retransmit counter an honest measure of healing work.
      const bool queued = std::any_of(
          queue_.begin(), queue_.end(),
          [&frame](const Message& m) { return m.seq == frame.seq; });
      if (queued) continue;
      requeue_locked(frame);
      requeued = true;
      break;
    }
  }
  if (requeued) ready_.notify_all();
  return requeued;
}

bool Channel::can_retransmit(std::int64_t tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(inflight_.begin(), inflight_.end(),
                     [tag](const Inflight& c) { return c.tag == tag; });
}

ChannelStats Channel::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool Channel::arrival_primed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arrivals_.primed();
}

double Channel::arrival_silence_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!has_arrival_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_arrival_)
      .count();
}

double Channel::adaptive_timeout_s(double phi_threshold) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arrivals_.timeout_for_phi(phi_threshold);
}

}  // namespace scalparc::mp
