// Per-level arena allocator for the induction hot loop.
//
// Every tree level needs the same family of scratch buffers — count
// matrices, boundary elements, kid-count matrices, regroup cursors — whose
// sizes shrink monotonically with the active record count. An Arena turns
// all of them into bump allocations from one block: reset() at a level
// boundary recycles the whole block in O(1) without returning memory to the
// heap, so steady-state levels perform zero heap allocation.
//
// Lifetime rules (see docs/architecture.md, "memory layout & scan kernels"):
//  * A span returned by alloc()/alloc_zeroed() is valid until the next
//    reset(); never store one across a level boundary.
//  * alloc() never moves previously returned spans: when the current block
//    is exhausted a fresh block is chained, and reset() coalesces all blocks
//    into one large block so the next level allocates from contiguous
//    memory again. Growth therefore only happens while the arena is still
//    warming up to the run's high-water mark.
//  * The arena is single-threaded by design — one per rank, like all
//    per-rank induction state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace scalparc::util {

class Arena {
 public:
  explicit Arena(std::size_t initial_bytes = 0) {
    if (initial_bytes > 0) {
      blocks_.push_back(Block::make(initial_bytes));
    }
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Uninitialized storage for `count` objects of T. T must be trivially
  // copyable and trivially destructible (the arena never runs destructors).
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena only holds trivial types");
    if (count == 0) return {};
    void* raw = bump(count * sizeof(T), alignof(T));
    return {static_cast<T*>(raw), count};
  }

  template <typename T>
  std::span<T> alloc_zeroed(std::size_t count) {
    std::span<T> out = alloc<T>(count);
    // An empty span may carry a null pointer, which memset must not see.
    if (!out.empty()) std::memset(out.data(), 0, out.size_bytes());
    return out;
  }

  // Recycles everything allocated since the previous reset. If allocation
  // overflowed into chained blocks, they are coalesced into one block of
  // their combined size so steady state settles on a single contiguous
  // region.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) total += b.capacity;
      blocks_.clear();
      blocks_.push_back(Block::make(total));
    } else if (!blocks_.empty()) {
      blocks_.back().cursor = 0;
    }
    used_ = 0;
  }

  // Bytes handed out since the last reset (high-water diagnostics).
  std::size_t used() const { return used_; }
  // Total bytes owned by the arena's blocks.
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.capacity;
    return total;
  }
  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t cursor = 0;

    static Block make(std::size_t bytes) {
      Block b;
      b.capacity = bytes;
      b.data.reset(new std::byte[bytes]);
      return b;
    }
  };

  void* bump(std::size_t bytes, std::size_t align) {
    if (blocks_.empty()) {
      blocks_.push_back(Block::make(std::max<std::size_t>(bytes, kMinBlock)));
    }
    Block* block = &blocks_.back();
    std::size_t cursor = aligned(block->cursor, align);
    if (cursor + bytes > block->capacity) {
      // Chain a fresh block at least double the current total so the number
      // of warm-up growths is logarithmic; existing spans stay valid.
      const std::size_t grown = std::max(bytes + align, 2 * capacity());
      blocks_.push_back(Block::make(std::max(grown, kMinBlock)));
      block = &blocks_.back();
      cursor = aligned(block->cursor, align);
    }
    void* out = block->data.get() + cursor;
    block->cursor = cursor + bytes;
    used_ += bytes;
    return out;
  }

  static std::size_t aligned(std::size_t cursor, std::size_t align) {
    return (cursor + align - 1) & ~(align - 1);
  }

  static constexpr std::size_t kMinBlock = 4096;
  std::vector<Block> blocks_;
  std::size_t used_ = 0;
};

}  // namespace scalparc::util
