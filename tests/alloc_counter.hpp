// Heap allocation counts per rank thread, for tests that pin what an
// exchange allocates. A test binary that links alloc_counter.cpp routes every
// global operator new through the counter; a rank thread's allocations count
// between its start_counting_allocations(rank) and
// stop_counting_allocations(), and no other thread's count.
#pragma once

#include <cstddef>

namespace scalparc::test {

// Blocks of this many bytes or more count as large.
inline constexpr std::size_t kLargeBlock = 4096;
// Ranks 0, ..., kMaxCountedRanks - 1 can count.
inline constexpr int kMaxCountedRanks = 8;

struct AllocationCounts {
  std::size_t bytes = 0;
  std::size_t largest = 0;
  std::size_t large_blocks = 0;
};

// Zeroes every rank's counts.
void reset_allocation_counts();
// The calling thread's allocations count as `rank`'s until it stops.
void start_counting_allocations(int rank);
void stop_counting_allocations();

AllocationCounts allocation_counts(int rank);
// Bytes and large blocks summed over the ranks; the largest block of any.
AllocationCounts total_allocation_counts();

}  // namespace scalparc::test
