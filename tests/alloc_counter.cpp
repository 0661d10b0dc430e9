#include "alloc_counter.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace scalparc::test {
namespace {

struct RankCounts {
  std::atomic<std::size_t> bytes{0};
  std::atomic<std::size_t> largest{0};
  std::atomic<std::size_t> large_blocks{0};
};

std::array<RankCounts, kMaxCountedRanks> g_counts;
thread_local int t_counted_rank = -1;

void count(std::size_t size) {
  RankCounts& counts = g_counts[static_cast<std::size_t>(t_counted_rank)];
  counts.bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t largest = counts.largest.load(std::memory_order_relaxed);
  while (size > largest && !counts.largest.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  if (size >= kLargeBlock) {
    counts.large_blocks.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void reset_allocation_counts() {
  for (RankCounts& counts : g_counts) {
    counts.bytes.store(0);
    counts.largest.store(0);
    counts.large_blocks.store(0);
  }
}

void start_counting_allocations(int rank) {
  if (rank < 0 || rank >= kMaxCountedRanks) {
    throw std::out_of_range("start_counting_allocations: rank out of range");
  }
  t_counted_rank = rank;
}

void stop_counting_allocations() { t_counted_rank = -1; }

AllocationCounts allocation_counts(int rank) {
  const RankCounts& counts = g_counts.at(static_cast<std::size_t>(rank));
  return {counts.bytes.load(), counts.largest.load(),
          counts.large_blocks.load()};
}

AllocationCounts total_allocation_counts() {
  AllocationCounts total;
  for (int rank = 0; rank < kMaxCountedRanks; ++rank) {
    const AllocationCounts counts = allocation_counts(rank);
    total.bytes += counts.bytes;
    total.largest = std::max(total.largest, counts.largest);
    total.large_blocks += counts.large_blocks;
  }
  return total;
}

}  // namespace scalparc::test

// Out of line like the deletes below, so the compiler never pairs an inlined
// malloc() with operator delete or a new expression with free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (scalparc::test::t_counted_rank >= 0) scalparc::test::count(size);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
