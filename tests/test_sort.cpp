// Tests for the parallel sample sort and the order-preserving rebalance, over
// both record planes (entries and columns). Select with `ctest -L sort`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "data/attribute_list.hpp"
#include "mp/runtime.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

// ---------------------------------------------------------------------------
// partition_util
// ---------------------------------------------------------------------------

TEST(PartitionUtil, EqualSizesExactTiling) {
  const auto sizes = sort::equal_partition_sizes(10, 3);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 3u);
}

TEST(PartitionUtil, EqualSizesZeroTotal) {
  const auto sizes = sort::equal_partition_sizes(0, 4);
  for (const auto s : sizes) EXPECT_EQ(s, 0u);
}

TEST(PartitionUtil, EqualSizesMorePartsThanItems) {
  const auto sizes = sort::equal_partition_sizes(2, 5);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 2u);
}

TEST(PartitionUtil, EqualSizesRejectsBadParts) {
  EXPECT_THROW(sort::equal_partition_sizes(10, 0), std::invalid_argument);
}

TEST(PartitionUtil, OffsetsFromSizes) {
  const auto offsets = sort::offsets_from_sizes({2, 0, 3});
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 2u);
  EXPECT_EQ(offsets[2], 2u);
  EXPECT_EQ(offsets[3], 5u);
}

TEST(PartitionUtil, OwnerOfGlobalIndexSkipsEmptyChunks) {
  const std::vector<std::size_t> offsets{0, 2, 2, 5};
  EXPECT_EQ(sort::owner_of_global_index(0, offsets), 0);
  EXPECT_EQ(sort::owner_of_global_index(1, offsets), 0);
  EXPECT_EQ(sort::owner_of_global_index(2, offsets), 2);
  EXPECT_EQ(sort::owner_of_global_index(4, offsets), 2);
  EXPECT_THROW(sort::owner_of_global_index(5, offsets), std::out_of_range);
}

// ---------------------------------------------------------------------------
// sample_sort — parameterized over rank count
// ---------------------------------------------------------------------------

class SampleSort : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, SampleSort,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

// Gathers all ranks' chunks in rank order into one vector.
template <typename T>
std::vector<T> concatenate(const std::vector<std::vector<T>>& chunks) {
  std::vector<T> flat;
  for (const auto& c : chunks) flat.insert(flat.end(), c.begin(), c.end());
  return flat;
}

TEST_P(SampleSort, SortsUniformRandomData) {
  const int p = GetParam();
  constexpr int kPerRank = 500;
  std::vector<std::vector<std::int64_t>> outputs(static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    util::Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::int64_t> local(kPerRank);
    for (auto& v : local) v = rng.next_int(-1000000, 1000000);
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::sample_sort(comm, std::move(local), std::less<>{});
  });
  // Locally sorted, globally ordered across ranks, and a permutation of the
  // input (checked via multiset equality by re-generating inputs).
  std::vector<std::int64_t> expected;
  for (int r = 0; r < p; ++r) {
    util::Rng rng(1000 + static_cast<std::uint64_t>(r));
    for (int i = 0; i < kPerRank; ++i) expected.push_back(rng.next_int(-1000000, 1000000));
  }
  std::sort(expected.begin(), expected.end());
  const std::vector<std::int64_t> got = concatenate(outputs);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(got, expected);
}

TEST_P(SampleSort, HandlesDuplicateHeavyData) {
  const int p = GetParam();
  std::vector<std::vector<int>> outputs(static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    util::Rng rng(7 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<int> local(300);
    for (auto& v : local) v = static_cast<int>(rng.next_below(3));  // only 3 keys
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::sample_sort(comm, std::move(local), std::less<>{});
  });
  const auto flat = concatenate(outputs);
  EXPECT_EQ(flat.size(), static_cast<std::size_t>(300 * p));
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
}

TEST_P(SampleSort, HandlesEmptyAndSkewedInputs) {
  const int p = GetParam();
  std::vector<std::vector<int>> outputs(static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    // Only rank 0 has data.
    std::vector<int> local;
    if (comm.rank() == 0) {
      local.resize(100);
      for (int i = 0; i < 100; ++i) local[static_cast<std::size_t>(i)] = 99 - i;
    }
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::sample_sort(comm, std::move(local), std::less<>{});
  });
  const auto flat = concatenate(outputs);
  ASSERT_EQ(flat.size(), 100u);
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
  EXPECT_EQ(flat.front(), 0);
  EXPECT_EQ(flat.back(), 99);
}

TEST_P(SampleSort, AttributeEntriesTotalOrderWithTies) {
  const int p = GetParam();
  std::vector<std::vector<data::ContinuousEntry>> outputs(
      static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    util::Rng rng(55 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<data::ContinuousEntry> local(200);
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i].value = static_cast<double>(rng.next_below(5));  // heavy ties
      local[i].rid = comm.rank() * 200 + static_cast<std::int64_t>(i);
      local[i].cls = 0;
    }
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::sample_sort(comm, std::move(local), data::ContinuousEntryLess{});
  });
  const auto flat = concatenate(outputs);
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end(), data::ContinuousEntryLess{}));
  // All rids distinct -> strict total order -> exactly one valid arrangement.
  for (std::size_t i = 1; i < flat.size(); ++i) {
    EXPECT_TRUE(data::ContinuousEntryLess{}(flat[i - 1], flat[i]));
  }
}

// ---------------------------------------------------------------------------
// rebalance
// ---------------------------------------------------------------------------

class Rebalance : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, Rebalance, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(Rebalance, RestoresEqualBlocksPreservingOrder) {
  const int p = GetParam();
  std::vector<std::vector<int>> outputs(static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    // Rank r holds a run of (r+1)*10 consecutive values; runs are globally
    // ordered by rank.
    int start = 0;
    for (int r = 0; r < comm.rank(); ++r) start += (r + 1) * 10;
    std::vector<int> local(static_cast<std::size_t>((comm.rank() + 1) * 10));
    std::iota(local.begin(), local.end(), start);
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::rebalance_equal(comm, std::move(local));
  });
  std::size_t total = 0;
  for (int r = 0; r < p; ++r) total += static_cast<std::size_t>((r + 1) * 10);
  const auto sizes = sort::equal_partition_sizes(total, p);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(outputs[static_cast<std::size_t>(r)].size(), sizes[static_cast<std::size_t>(r)]);
  }
  const auto flat = concatenate(outputs);
  ASSERT_EQ(flat.size(), total);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], static_cast<int>(i));
  }
}

TEST_P(Rebalance, CustomTargets) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "needs at least 2 ranks";
  std::vector<std::vector<int>> outputs(static_cast<std::size_t>(p));
  // Everything should end up on the last rank.
  std::vector<std::size_t> targets(static_cast<std::size_t>(p), 0);
  targets.back() = static_cast<std::size_t>(p) * 5;
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    std::vector<int> local(5, comm.rank());
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::rebalance(comm, std::move(local), targets);
  });
  for (int r = 0; r + 1 < p; ++r) {
    EXPECT_TRUE(outputs[static_cast<std::size_t>(r)].empty());
  }
  EXPECT_EQ(outputs.back().size(), static_cast<std::size_t>(p) * 5);
  EXPECT_TRUE(std::is_sorted(outputs.back().begin(), outputs.back().end()));
}

TEST(SampleSortIntegration, SortThenRebalanceGivesBlockDistribution) {
  constexpr int kRanks = 4;
  std::vector<std::vector<double>> outputs(kRanks);
  mp::run_ranks(kRanks, kZero, [&](mp::Comm& comm) {
    util::Rng rng(99 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<double> local(257);  // deliberately not divisible
    for (auto& v : local) v = rng.next_double();
    auto sorted = sort::sample_sort(comm, std::move(local), std::less<>{});
    outputs[static_cast<std::size_t>(comm.rank())] =
        sort::rebalance_equal(comm, std::move(sorted));
  });
  const auto sizes = sort::equal_partition_sizes(257 * kRanks, kRanks);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(outputs[static_cast<std::size_t>(r)].size(), sizes[static_cast<std::size_t>(r)]);
  }
  const auto flat = concatenate(outputs);
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
}

// ---------------------------------------------------------------------------
// Column plane vs entry plane vs a serial std::sort of the gathered input
// ---------------------------------------------------------------------------

// Expects the columns to hold exactly `entries`, record by record.
void expect_same_records(const data::ContinuousColumns& cols,
                         const std::vector<data::ContinuousEntry>& entries) {
  ASSERT_EQ(cols.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(cols.values[i], entries[i].value) << "record " << i;
    EXPECT_EQ(cols.rids[i], entries[i].rid) << "record " << i;
    EXPECT_EQ(cols.cls[i], entries[i].cls) << "record " << i;
  }
}

TEST(SortDifferential, SampleSortColumnsMatchesEntrySort) {
  for (const int p : {1, 3, 4}) {
    std::vector<std::vector<data::ContinuousEntry>> inputs(
        static_cast<std::size_t>(p));
    std::vector<std::vector<data::ContinuousEntry>> outputs(
        static_cast<std::size_t>(p));
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      std::mt19937 rng(100 + static_cast<unsigned>(comm.rank()));
      std::uniform_int_distribution<int> value_of(0, 30);
      std::uniform_int_distribution<int> size_of(5, 60);
      const int n = size_of(rng);
      std::vector<data::ContinuousEntry> entries(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        entries[static_cast<std::size_t>(i)].value =
            static_cast<double>(value_of(rng));
        entries[static_cast<std::size_t>(i)].rid = comm.rank() * 1000 + i;
        entries[static_cast<std::size_t>(i)].cls = i % 2;
      }
      const data::ContinuousColumns cols = data::columns_from_entries(entries);
      inputs[static_cast<std::size_t>(comm.rank())] = entries;

      const std::vector<data::ContinuousEntry> sorted_entries =
          sort::sample_sort(comm, entries, data::ContinuousEntryLess{});
      const data::ContinuousColumns sorted_cols =
          sort::sample_sort_columns(comm, cols);

      expect_same_records(sorted_cols, sorted_entries);
      outputs[static_cast<std::size_t>(comm.rank())] = sorted_entries;
    });
    std::vector<data::ContinuousEntry> expected = concatenate(inputs);
    std::sort(expected.begin(), expected.end(), data::ContinuousEntryLess{});
    const std::vector<data::ContinuousEntry> got = concatenate(outputs);
    expect_same_records(data::columns_from_entries(got), expected);
  }
}

TEST(SortDifferential, RebalanceColumnsMatchesEntryRebalance) {
  const int p = 4;
  std::vector<std::vector<data::ContinuousEntry>> inputs(
      static_cast<std::size_t>(p));
  std::vector<std::vector<data::ContinuousEntry>> outputs(
      static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    // Deliberately skewed local sizes.
    const std::size_t n = static_cast<std::size_t>(comm.rank()) * 13 + 2;
    std::vector<data::ContinuousEntry> entries(n);
    for (std::size_t i = 0; i < n; ++i) {
      entries[i].value = static_cast<double>(comm.rank()) + 0.01 * static_cast<double>(i);
      entries[i].rid = comm.rank() * 100 + static_cast<std::int64_t>(i);
      entries[i].cls = static_cast<std::int32_t>(i % 2);
    }
    const data::ContinuousColumns cols = data::columns_from_entries(entries);
    inputs[static_cast<std::size_t>(comm.rank())] = entries;
    std::uint64_t total = mp::allreduce_value(
        comm, static_cast<std::uint64_t>(n), mp::SumOp{});
    const std::vector<std::size_t> targets =
        sort::equal_partition_sizes(total, p);

    const std::vector<data::ContinuousEntry> balanced_entries =
        sort::rebalance(comm, entries, targets);
    const data::ContinuousColumns balanced_cols =
        sort::rebalance_columns(comm, cols, targets);

    EXPECT_EQ(balanced_cols.size(),
              targets[static_cast<std::size_t>(comm.rank())]);
    expect_same_records(balanced_cols, balanced_entries);
    outputs[static_cast<std::size_t>(comm.rank())] = balanced_entries;
  });
  std::vector<data::ContinuousEntry> expected = concatenate(inputs);
  std::sort(expected.begin(), expected.end(), data::ContinuousEntryLess{});
  expect_same_records(data::columns_from_entries(concatenate(outputs)),
                      expected);
}

}  // namespace
}  // namespace scalparc
