// Wire-level message for the in-process message-passing runtime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <typeinfo>
#include <vector>

namespace scalparc::mp {

// Type-erased, move-only payload buffer. The transport is zero-copy: a
// sender that owns a typed vector moves it into the Payload (adopt), the
// Message carrying it is moved through the channel, and a receiver asking
// for the same element type reclaims the very same vector (take) — the
// bytes are never duplicated. A receiver asking for a different type (or a
// sender that only holds a borrowed span) pays exactly one copy.
//
// The buffer is reference counted so that the reliability layer can keep a
// second handle on a sent frame (share) instead of a byte copy. Handles are
// copy-on-write: a writer whose buffer is shared (mutable_bytes) or a taker
// that is not the sole owner (take) copies first, so no handle ever sees the
// bytes change under it.
class Payload {
 public:
  Payload() = default;
  Payload(Payload&&) = default;
  Payload& operator=(Payload&&) = default;
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  // Takes ownership of `values`; no bytes are copied.
  template <typename T>
  static Payload adopt(std::vector<T>&& values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Payload elements must be trivially copyable");
    Payload p;
    auto held = std::make_shared<std::vector<T>>(std::move(values));
    p.data_ = reinterpret_cast<std::byte*>(held->data());
    p.size_ = held->size() * sizeof(T);
    p.type_ = &typeid(T);
    p.owner_ = std::move(held);
    return p;
  }

  // Single allocation + copy of a borrowed byte span.
  static Payload copy_of(std::span<const std::byte> bytes) {
    return adopt(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  // A second handle on the same buffer; no bytes are copied.
  Payload share() const {
    Payload p;
    p.owner_ = owner_;
    p.data_ = data_;
    p.size_ = size_;
    p.type_ = type_;
    return p;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::byte> bytes() const { return {data_, size_}; }
  // Mutable view for in-flight fault injection (payload corruption). A
  // shared buffer is copied first, so the write never reaches another
  // handle (the reliability layer's clean frame).
  std::span<std::byte> mutable_bytes() {
    if (owner_ && !sole_owner()) *this = copy_of(bytes());
    return {data_, size_};
  }

  // Surrenders the payload as a vector<T>. If this handle is the buffer's
  // sole owner and it was adopted from a vector of exactly T, this moves it
  // back out (zero-copy); otherwise it deserializes with one copy and leaves
  // any other handle intact. Trailing bytes that do not fill a whole T are
  // discarded, matching the historical recv<T> contract.
  template <typename T>
  std::vector<T> take() {
    std::vector<T> out;
    if (owner_ && type_ != nullptr && *type_ == typeid(T) && sole_owner()) {
      out = std::move(*static_cast<std::vector<T>*>(owner_.get()));
    } else {
      out.resize(size_ / sizeof(T));
      if (!out.empty()) std::memcpy(out.data(), data_, out.size() * sizeof(T));
    }
    owner_.reset();
    data_ = nullptr;
    size_ = 0;
    type_ = nullptr;
    return out;
  }

 private:
  // True if no other handle shares the buffer. use_count() is a relaxed
  // read; the acquire fence orders this handle's next writes after every
  // access a released handle made on another thread.
  bool sole_owner() const {
    if (owner_.use_count() != 1) return false;
    std::atomic_thread_fence(std::memory_order_acquire);
    return true;
  }

  std::shared_ptr<void> owner_;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  const std::type_info* type_ = nullptr;
};

struct Message {
  // Matching key. Collectives tag messages with a per-communicator sequence
  // number so that a rank running ahead can never confuse two operations.
  std::int64_t tag = 0;
  // Per-channel monotone sequence number assigned by the reliability layer
  // (1-based; 0 means "unsequenced", i.e. reliability disabled). Receivers
  // dedupe on it and address nack/retransmit requests with it.
  std::uint64_t seq = 0;
  // Modeled arrival time at the receiver (seconds on the virtual clock):
  // sender_vtime + latency + bytes * seconds_per_byte.
  double arrival_vtime = 0.0;
  // CRC32 frame checksum of `payload`, computed by the sender before the
  // message enters the wire; the receiver re-computes and throws
  // CorruptMessage on mismatch.
  std::uint32_t crc = 0;
  Payload payload;
};

}  // namespace scalparc::mp
