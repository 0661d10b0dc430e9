// Tests for the parallel hashing paradigm: the collision-free distributed
// hash table (update / enquiry / blocked rounds, validated against a serial
// map for a sweep of rank counts), what its exchanges send and allocate, and
// the ScalParC node table (epoch-stamped child assignments).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "core/node_table.hpp"
#include "mp/collectives.hpp"
#include "mp/runtime.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

struct Value {
  std::int64_t payload = 0;
};

using Table = core::DistributedHashTable<Value>;

class Dht : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, Dht, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST_P(Dht, HashIsCollisionFreeBlockDistribution) {
  const int p = GetParam();
  constexpr std::uint64_t kKeys = 29;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    Table table(comm, kKeys, Value{});
    // The paper's example: N = 9, p = 3 gives h(j) = (j div 3, j mod 3).
    std::vector<int> owner_count(static_cast<std::size_t>(p), 0);
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
      const int owner = table.owner_of(key);
      const std::uint64_t slot = table.slot_of(key);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, p);
      EXPECT_EQ(static_cast<std::uint64_t>(key),
                static_cast<std::uint64_t>(owner) * table.block() + slot);
      ++owner_count[static_cast<std::size_t>(owner)];
    }
    // Block distribution: every owner holds at most ceil(N/p).
    for (const int count : owner_count) {
      EXPECT_LE(count, static_cast<int>(table.block()));
    }
  });
}

TEST_P(Dht, UpdateThenEnquireMatchesSerialMap) {
  const int p = GetParam();
  constexpr std::uint64_t kKeys = 200;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    Table table(comm, kKeys, Value{-1});
    // Each rank updates a strided subset of keys.
    std::vector<Table::Update> updates;
    for (std::int64_t key = comm.rank(); key < static_cast<std::int64_t>(kKeys);
         key += p) {
      updates.push_back(Table::Update{key, Value{key * 10}});
    }
    table.update(updates);
    // Every rank enquires a different permutation of all keys.
    std::vector<std::int64_t> keys;
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
      keys.push_back((key * 7 + comm.rank()) % static_cast<std::int64_t>(kKeys));
    }
    const std::vector<Value> got = table.enquire(keys);
    ASSERT_EQ(got.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(got[i].payload, keys[i] * 10);
    }
  });
}

TEST_P(Dht, LastWriterWinsWithinOneRound) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Table table(comm, 10, Value{0});
    // Only rank 0 writes, twice to the same key: later entry wins (FIFO
    // application at the owner).
    std::vector<Table::Update> updates;
    if (comm.rank() == 0) {
      updates.push_back(Table::Update{3, Value{111}});
      updates.push_back(Table::Update{3, Value{222}});
    }
    table.update(updates);
    const auto got = table.enquire(std::vector<std::int64_t>{3});
    EXPECT_EQ(got[0].payload, 222);
  });
}

TEST_P(Dht, BlockedUpdatesMatchUnblocked) {
  const int p = GetParam();
  constexpr std::uint64_t kKeys = 150;
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Table table(comm, kKeys, Value{-1});
    // Rank 0 sends ALL updates (the pathological skew §3.3.2 worries about);
    // a block limit of 16 forces ceil(150/16) = 10 all-to-all rounds on
    // every rank.
    std::vector<Table::Update> updates;
    if (comm.rank() == 0) {
      for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
        updates.push_back(Table::Update{key, Value{key + 1000}});
      }
    }
    table.update(updates, /*block_limit=*/16);
    std::vector<std::int64_t> keys;
    for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
      keys.push_back(key);
    }
    const auto got = table.enquire(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(got[i].payload, static_cast<std::int64_t>(i) + 1000);
    }
  });

  // Every rank sends a different, non-zero number of updates, 6 + 9r, the
  // last of which rewrites the rank's first key. Under a block limit of 4
  // the ranks run out of rounds at different times (after 2, 4, 6, 8, 11,
  // ... rounds) and join the later rounds with empty batches. No two ranks
  // write one key, so a serial map replaying each rank's updates in order
  // is the oracle.
  constexpr std::int64_t kSpread = 293;  // prime: k -> 7k mod 293 is 1:1
  const auto updates_of = [](int rank) {
    std::int64_t first = 0;
    for (int q = 0; q < rank; ++q) first += 5 + 9 * q;
    std::vector<Table::Update> updates;
    for (std::int64_t i = 0; i < 5 + 9 * rank; ++i) {
      const std::int64_t key = (first + i) * 7 % kSpread;
      updates.push_back(Table::Update{key, Value{key * 10 + rank}});
    }
    updates.push_back(Table::Update{updates.front().key, Value{-1000 - rank}});
    return updates;
  };
  std::map<std::int64_t, std::int64_t> oracle;
  for (int rank = 0; rank < p; ++rank) {
    for (const Table::Update& u : updates_of(rank)) {
      oracle[u.key] = u.value.payload;
    }
  }
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    Table table(comm, kSpread, Value{-1});
    const std::vector<Table::Update> updates = updates_of(comm.rank());
    table.update(updates, /*block_limit=*/4);
    std::vector<std::int64_t> keys(kSpread);
    std::iota(keys.begin(), keys.end(), std::int64_t{0});
    const auto got = table.enquire(keys);
    for (const std::int64_t key : keys) {
      const auto it = oracle.find(key);
      EXPECT_EQ(got[static_cast<std::size_t>(key)].payload,
                it == oracle.end() ? -1 : it->second)
          << "key " << key;
    }
  });
}

TEST_P(Dht, BlockedUpdateBoundsStagedBufferMemory) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "needs >= 2 ranks for staging to matter";
  constexpr std::uint64_t kKeys = 4096;
  const auto run = [&](std::int64_t block_limit) {
    return mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      Table table(comm, kKeys, Value{});
      std::vector<Table::Update> updates;
      if (comm.rank() == 0) {
        for (std::int64_t key = 0; key < static_cast<std::int64_t>(kKeys); ++key) {
          updates.push_back(Table::Update{key, Value{key}});
        }
      }
      table.update(updates, block_limit);
    });
  };
  const auto unblocked = run(0);
  const auto blocked = run(64);
  // Peak comm-buffer memory must be strictly smaller with blocking.
  std::size_t peak_unblocked = 0;
  std::size_t peak_blocked = 0;
  for (const auto& r : unblocked.ranks) {
    peak_unblocked = std::max(
        peak_unblocked, r.meter.peak_bytes(util::MemCategory::kCommBuffers));
  }
  for (const auto& r : blocked.ranks) {
    peak_blocked = std::max(peak_blocked,
                            r.meter.peak_bytes(util::MemCategory::kCommBuffers));
  }
  EXPECT_LT(peak_blocked, peak_unblocked);
}

TEST_P(Dht, EnquireUnwrittenKeyReturnsInitial) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Table table(comm, 5, Value{-7});
    table.update({});
    const auto got = table.enquire(std::vector<std::int64_t>{0, 4});
    EXPECT_EQ(got[0].payload, -7);
    EXPECT_EQ(got[1].payload, -7);
  });
}

TEST(Dht, KeyOutOfRangeThrows) {
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               Table table(comm, 10, Value{});
                               (void)table.owner_of(10);
                             }),
               std::out_of_range);
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               Table table(comm, 10, Value{});
                               (void)table.owner_of(-1);
                             }),
               std::out_of_range);
}

TEST(Dht, LocalSizeTilesKeySpace) {
  // 10 keys over 4 ranks: block = 3, local sizes 3,3,3,1.
  mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    Table table(comm, 10, Value{});
    const std::uint64_t expected[] = {3, 3, 3, 1};
    EXPECT_EQ(table.local_size(), expected[comm.rank()]);
  });
}

TEST(Dht, MoreRanksThanKeys) {
  mp::run_ranks(6, kZero, [](mp::Comm& comm) {
    Table table(comm, 3, Value{-1});
    std::vector<Table::Update> updates;
    if (comm.rank() == 5) {
      updates.push_back(Table::Update{2, Value{42}});
    }
    table.update(updates);
    const auto got = table.enquire(std::vector<std::int64_t>{2});
    EXPECT_EQ(got[0].payload, 42);
  });
}

// ---------------------------------------------------------------------------
// NodeTable (epoch semantics)
// ---------------------------------------------------------------------------

class NodeTableTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, NodeTableTest, ::testing::Values(1, 2, 3, 5));

TEST_P(NodeTableTest, UpdateAndEnquireRoundTrip) {
  const int p = GetParam();
  constexpr std::uint64_t kRecords = 64;
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    core::NodeTable table(comm, kRecords);
    table.begin_level();
    std::vector<std::int64_t> rids;
    std::vector<std::int32_t> children;
    for (std::int64_t rid = comm.rank(); rid < static_cast<std::int64_t>(kRecords);
         rid += p) {
      rids.push_back(rid);
      children.push_back(static_cast<std::int32_t>(rid % 3));
    }
    table.update(rids, children, /*block_limit=*/0);
    std::vector<std::int64_t> all;
    for (std::int64_t rid = 0; rid < static_cast<std::int64_t>(kRecords); ++rid) {
      all.push_back(rid);
    }
    std::vector<std::int32_t> got(all.size());
    table.enquire(all, got);
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<std::int32_t>(all[i] % 3));
    }
  });
}

TEST_P(NodeTableTest, StaleEnquiryThrows) {
  const int p = GetParam();
  EXPECT_THROW(
      mp::run_ranks(p, kZero,
                    [](mp::Comm& comm) {
                      core::NodeTable table(comm, 8);
                      table.begin_level();
                      std::vector<std::int64_t> rids;
                      std::vector<std::int32_t> children;
                      if (comm.rank() == 0) {
                        rids = {0, 1, 2, 3};
                        children = {0, 0, 1, 1};
                      }
                      table.update(rids, children, 0);
                      table.begin_level();  // new level, no updates yet
                      std::vector<std::int64_t> query{2};
                      std::vector<std::int32_t> got(query.size());
                      table.enquire(query, got);
                    }),
      std::logic_error);
}

TEST_P(NodeTableTest, EpochsSeparateLevels) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    core::NodeTable table(comm, 4);
    for (std::uint32_t level = 1; level <= 3; ++level) {
      table.begin_level();
      std::vector<std::int64_t> rids;
      std::vector<std::int32_t> children;
      if (comm.is_root()) {
        rids = {0, 1, 2, 3};
        children.assign(4, static_cast<std::int32_t>(level));
      }
      table.update(rids, children, 0);
      std::vector<std::int64_t> query{0, 3};
      std::vector<std::int32_t> got(query.size());
      table.enquire(query, got);
      EXPECT_EQ(got[0], static_cast<std::int32_t>(level));
      EXPECT_EQ(got[1], static_cast<std::int32_t>(level));
    }
  });
}

TEST(NodeTableTest2, MismatchedSpansThrow) {
  EXPECT_THROW(mp::run_ranks(1, kZero,
                             [](mp::Comm& comm) {
                               core::NodeTable table(comm, 4);
                               table.begin_level();
                               std::vector<std::int64_t> rids{0, 1};
                               std::vector<std::int32_t> children{0};
                               table.update(rids, children, 0);
                             }),
               std::invalid_argument);
}

TEST(NodeTableTest2, SteadyLevelAllocatesNoRecordSizedBuffer) {
  // After one warm-up level sizes the exchange buffers, a second update plus
  // enquiry of the same shape reuses them: nothing near a chunk's size (over
  // 30,000 entries of 8 or 16 bytes) is allocated on any rank.
  constexpr int kRanks = 3;
  constexpr std::int64_t kRecords = 300000;
  constexpr std::int64_t kBlock = kRecords / kRanks;
  test::reset_allocation_counts();
  mp::run_ranks(kRanks, kZero, [](mp::Comm& comm) {
    core::NodeTable table(comm, kRecords);
    // Every rank updates a strided third of the rids, so it sends to every
    // owner. It enquires those rids plus 2,000 more of the next rank's
    // block: rank r asks its successor more keys than the successor asks
    // it, so an answer chunk comes back to serve a larger request.
    std::vector<std::int64_t> rids;
    std::vector<std::int32_t> children;
    for (std::int64_t rid = comm.rank(); rid < kRecords; rid += kRanks) {
      rids.push_back(rid);
      children.push_back(static_cast<std::int32_t>(rid % 5));
    }
    std::vector<std::int64_t> asked = rids;
    const std::int64_t next_block = (comm.rank() + 1) % kRanks * kBlock;
    for (std::int64_t rid = next_block; rid < next_block + 2000; ++rid) {
      asked.push_back(rid);
    }
    std::vector<std::int32_t> got(asked.size());
    const auto level = [&] {
      table.begin_level();
      table.update(rids, children, /*block_limit=*/0);
      table.enquire(asked, got);
    };
    level();
    mp::barrier(comm);
    test::start_counting_allocations(comm.rank());
    level();
    test::stop_counting_allocations();
    for (std::size_t i = 0; i < asked.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::int32_t>(asked[i] % 5));
    }
  });
  const test::AllocationCounts counts = test::total_allocation_counts();
  EXPECT_LT(counts.largest, std::size_t{4096});
  EXPECT_LT(counts.bytes, std::size_t{64} << 10);
  std::printf("steady level: %zu bytes allocated, largest %zu\n",
              counts.bytes, counts.largest);
}

TEST(NodeTableTest2, WireBytesPerEntryAndAlltoallCalls) {
  // Pins what the node table's exchanges put on the wire at p = 3: an
  // update entry is a uint64 slot plus a NodeTableEntry (16 B), an enquiry
  // sends each key as an 8 B slot and gets the 8 B entry back. Only entries
  // for another rank travel; a rank keeps its own chunk.
  constexpr int kRanks = 3;
  constexpr std::int64_t kRecords = 300;
  constexpr std::int64_t kBlock = kRecords / kRanks;
  constexpr std::int64_t kBlockLimit = 16;
  // Rank r updates every rid with rid % 3 == r, so every rid has a child,
  // and enquires an uneven, rank-dependent subset of all rids.
  const auto updated_by = [](int rank) {
    std::vector<std::int64_t> rids;
    for (std::int64_t rid = rank; rid < kRecords; rid += kRanks) {
      rids.push_back(rid);
    }
    return rids;
  };
  const auto asked_by = [](int rank) {
    std::vector<std::int64_t> rids;
    for (std::int64_t rid = kRecords - 1; rid >= 0; --rid) {
      if ((rid * 7 + rank) % (rank + 2) == 0) rids.push_back(rid);
    }
    return rids;
  };
  const auto owner = [](std::int64_t rid) {
    return static_cast<int>(rid / kBlock);
  };
  const auto sent_away = [&](int rank, std::span<const std::int64_t> rids) {
    return static_cast<std::uint64_t>(
        std::count_if(rids.begin(), rids.end(), [&](std::int64_t rid) {
          return owner(rid) != rank;
        }));
  };
  std::vector<std::uint64_t> answers_returned(kRanks, 0);
  for (int rank = 0; rank < kRanks; ++rank) {
    for (const std::int64_t rid : asked_by(rank)) {
      if (owner(rid) != rank) ++answers_returned[owner(rid)];
    }
  }
  // The blocked update sends a prefix of 40 + 25r rids: every rank joins
  // ceil(90 / 16) = 6 rounds.
  const auto blocked_prefix = [](int rank) {
    return static_cast<std::size_t>(40 + 25 * rank);
  };
  constexpr std::uint64_t kBlockedRounds = 6;

  mp::run_ranks(kRanks, kZero, [&](mp::Comm& comm) {
    const int r = comm.rank();
    constexpr auto kAlltoall = static_cast<std::size_t>(mp::CommOp::kAlltoall);
    const auto alltoall = [&](const mp::CommStats& before) {
      const mp::CommStats& now = comm.stats();
      return std::pair<std::uint64_t, std::uint64_t>{
          now.bytes_sent_by_op[kAlltoall] - before.bytes_sent_by_op[kAlltoall],
          now.calls_by_op[kAlltoall] - before.calls_by_op[kAlltoall]};
    };
    core::NodeTable table(comm, kRecords);
    table.begin_level();
    const std::vector<std::int64_t> rids = updated_by(r);
    std::vector<std::int32_t> children(rids.size());
    for (std::size_t i = 0; i < rids.size(); ++i) {
      children[i] = static_cast<std::int32_t>(rids[i] % 4);
    }

    mp::CommStats before = comm.stats();
    table.update(rids, children, /*block_limit=*/0);
    auto [bytes, calls] = alltoall(before);
    EXPECT_EQ(bytes, 16 * sent_away(r, rids)) << "rank " << r;
    EXPECT_EQ(calls, 1u) << "rank " << r;

    const std::vector<std::int64_t> asked = asked_by(r);
    std::vector<std::int32_t> got(asked.size());
    before = comm.stats();
    table.enquire(asked, got);
    std::tie(bytes, calls) = alltoall(before);
    EXPECT_EQ(bytes, 8 * sent_away(r, asked) +
                         8 * answers_returned[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_EQ(calls, 2u) << "rank " << r;
    for (std::size_t i = 0; i < asked.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::int32_t>(asked[i] % 4));
    }

    const std::span<const std::int64_t> prefix(rids.data(), blocked_prefix(r));
    before = comm.stats();
    table.update(prefix, std::span<const std::int32_t>(children).first(
                             prefix.size()),
                 kBlockLimit);
    std::tie(bytes, calls) = alltoall(before);
    EXPECT_EQ(bytes, 16 * sent_away(r, prefix)) << "rank " << r;
    EXPECT_EQ(calls, kBlockedRounds) << "rank " << r;
  });
}

TEST(NodeTableTest2, MemoryIsBlockSizedPerRank) {
  constexpr std::uint64_t kRecords = 1024;
  const auto result = mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    core::NodeTable table(comm, kRecords);
    mp::barrier(comm);
  });
  for (const auto& rank : result.ranks) {
    const std::size_t table_bytes =
        rank.meter.peak_bytes(util::MemCategory::kNodeTable);
    // 1024/4 = 256 entries of 8 bytes each.
    EXPECT_EQ(table_bytes, 256 * sizeof(core::NodeTableEntry));
  }
}

}  // namespace
}  // namespace scalparc
