// Wire-level message for the in-process message-passing runtime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
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
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { release(); }

  // Takes ownership of `values`; no bytes are copied.
  template <typename T>
  static Payload adopt(std::vector<T>&& values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Payload elements must be trivially copyable");
    Payload p;
    auto* held = new Held<T>(std::move(values));
    p.buffer_ = held;
    p.data_ = reinterpret_cast<std::byte*>(held->values.data());
    p.size_ = held->values.size() * sizeof(T);
    return p;
  }

  // Single allocation + copy of a borrowed byte span.
  static Payload copy_of(std::span<const std::byte> bytes) {
    return adopt(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  // A second handle on the same buffer; no bytes are copied.
  Payload share() const {
    Payload p;
    if (buffer_ != nullptr) {
      // A handle is only ever made from a live one, so counting it needs no
      // ordering.
      buffer_->handles.fetch_add(1, std::memory_order_relaxed);
    }
    p.buffer_ = buffer_;
    p.data_ = data_;
    p.size_ = size_;
    return p;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::byte> bytes() const { return {data_, size_}; }
  // Mutable view for in-flight fault injection (payload corruption). A
  // shared buffer is copied first, so the write never reaches another
  // handle (the reliability layer's clean frame).
  std::span<std::byte> mutable_bytes() {
    if (buffer_ != nullptr && !sole_owner()) *this = copy_of(bytes());
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
    auto* held = dynamic_cast<Held<T>*>(buffer_);
    if (held != nullptr && sole_owner()) {
      out = std::move(held->values);
    } else {
      out.resize(size_ / sizeof(T));
      if (!out.empty()) std::memcpy(out.data(), data_, out.size() * sizeof(T));
    }
    release();
    return out;
  }

 private:
  // An adopted vector and the number of handles on it. A handle is released
  // with release order and sole_owner() reads the count with acquire order,
  // so a handle that finds itself alone is ordered after every access that
  // a released handle made on another thread.
  struct Buffer {
    Buffer() = default;
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    virtual ~Buffer() = default;
    std::atomic<std::size_t> handles{1};
  };
  template <typename T>
  struct Held final : Buffer {
    explicit Held(std::vector<T>&& adopted) : values(std::move(adopted)) {}
    std::vector<T> values;
  };

  bool sole_owner() const {
    return buffer_->handles.load(std::memory_order_acquire) == 1;
  }

  void steal(Payload& other) noexcept {
    buffer_ = std::exchange(other.buffer_, nullptr);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }

  // Drops this handle; the last one frees the buffer.
  void release() noexcept {
    if (buffer_ != nullptr &&
        buffer_->handles.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete buffer_;
    }
    buffer_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  Buffer* buffer_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
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
