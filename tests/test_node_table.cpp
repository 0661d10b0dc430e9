// Tests for the parallel hashing paradigm: the collision-free distributed
// hash table (update / enquiry / blocked rounds), the ScalParC node table
// (epoch-stamped child assignments) and the arbitrary-key open-addressing
// table — validated against a serial map for a sweep of rank counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "core/flat_hash.hpp"
#include "core/node_table.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "util/random.hpp"

// Every allocation of this test binary goes through these replacements, so
// a test can count what its rank threads allocate.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_counted_bytes{0};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_counted_bytes.fetch_add(size, std::memory_order_relaxed);
    std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest_allocation.compare_exchange_weak(
               largest, size, std::memory_order_relaxed)) {
    }
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs a new expression with free().
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

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
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
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
    (void)p;
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
    if (comm.is_root()) g_counting.store(true);
    mp::barrier(comm);
    level();
    mp::barrier(comm);
    if (comm.is_root()) g_counting.store(false);
    for (std::size_t i = 0; i < asked.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::int32_t>(asked[i] % 5));
    }
  });
  const std::size_t largest = g_largest_allocation.load();
  const std::size_t total = g_counted_bytes.load();
  EXPECT_LT(largest, std::size_t{4096});
  EXPECT_LT(total, std::size_t{64} << 10);
  std::printf("steady level: %zu bytes allocated, largest %zu\n", total,
              largest);
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

// ---------------------------------------------------------------------------
// DistributedFlatHashTable: arbitrary keys (§3.3.1's closing remark on
// collisions). ChainedHash is named for the paper's open-chaining wording;
// the table under test resolves collisions by open addressing.
// ---------------------------------------------------------------------------

struct Payload {
  std::int64_t value = 0;
};

using Flat = core::DistributedFlatHashTable<Payload>;

class ChainedHash : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, ChainedHash, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(ChainedHash, SparseArbitraryKeysRoundTrip) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    // Few buckets, many colliding sparse keys: probing must absorb them.
    Flat table(comm, /*num_buckets=*/17);
    std::vector<Flat::Update> updates;
    for (int i = comm.rank(); i < 120; i += p) {
      const std::int64_t key = static_cast<std::int64_t>(i) * 1000003 - 500;
      updates.push_back(Flat::Update{key, Payload{key * 2}});
    }
    table.update(updates);
    std::vector<std::int64_t> keys;
    for (int i = 0; i < 120; ++i) {
      keys.push_back(static_cast<std::int64_t>(i) * 1000003 - 500);
    }
    const auto lookups = table.enquire(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(lookups[i].found) << "key index " << i;
      EXPECT_EQ(lookups[i].value.value, keys[i] * 2);
    }
  });
}

TEST_P(ChainedHash, MissingKeysReportNotFound) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Flat table(comm, 8);
    std::vector<Flat::Update> updates;
    if (comm.is_root()) updates.push_back(Flat::Update{42, Payload{7}});
    table.update(updates);
    const auto lookups =
        table.enquire(std::vector<std::int64_t>{42, 43, -42});
    EXPECT_TRUE(lookups[0].found);
    EXPECT_EQ(lookups[0].value.value, 7);
    EXPECT_FALSE(lookups[1].found);
    EXPECT_FALSE(lookups[2].found);
  });
}

TEST_P(ChainedHash, InsertOrAssignOverwrites) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Flat table(comm, 4);
    std::vector<Flat::Update> first;
    std::vector<Flat::Update> second;
    if (comm.is_root()) {
      first.push_back(Flat::Update{99, Payload{1}});
      second.push_back(Flat::Update{99, Payload{2}});
    }
    table.update(first);
    table.update(second);
    const auto lookups = table.enquire(std::vector<std::int64_t>{99});
    EXPECT_EQ(lookups[0].value.value, 2);
    // No duplicate entries.
    const std::uint64_t entries = mp::allreduce_value(
        comm, static_cast<std::uint64_t>(table.local_entries()), mp::SumOp{});
    EXPECT_EQ(entries, 1u);
  });
}

TEST_P(ChainedHash, BlockedUpdatesEquivalent) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    Flat table(comm, 32);
    std::vector<Flat::Update> updates;
    if (comm.rank() == 0) {
      for (std::int64_t i = 0; i < 100; ++i) {
        updates.push_back(Flat::Update{i * 7919, Payload{i}});
      }
    }
    table.update(updates, /*block_limit=*/9);
    std::vector<std::int64_t> keys;
    for (std::int64_t i = 0; i < 100; ++i) keys.push_back(i * 7919);
    const auto lookups = table.enquire(keys);
    for (std::int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(lookups[static_cast<std::size_t>(i)].found);
      EXPECT_EQ(lookups[static_cast<std::size_t>(i)].value.value, i);
    }
  });
}

TEST_P(ChainedHash, MatchesSerialMapUnderRandomWorkload) {
  const int p = GetParam();
  // Serial oracle computed identically on all ranks.
  std::map<std::int64_t, std::int64_t> oracle;
  util::Rng rng(404);
  std::vector<Flat::Update> all_updates;
  for (int i = 0; i < 500; ++i) {
    const auto key = static_cast<std::int64_t>(rng.next_int(-1000, 1000));
    const auto value = static_cast<std::int64_t>(rng.next_int(0, 1 << 20));
    all_updates.push_back(Flat::Update{key, Payload{value}});
    oracle[key] = value;
  }
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    Flat table(comm, 64);
    // Round-robin the update stream over ranks but preserve relative order
    // per key by splitting into sequential batches (later batches win).
    for (std::size_t begin = 0; begin < all_updates.size(); begin += 100) {
      std::vector<Flat::Update> mine;
      for (std::size_t i = begin; i < std::min(begin + 100, all_updates.size());
           ++i) {
        if (static_cast<int>(i) % comm.size() == comm.rank()) {
          mine.push_back(all_updates[i]);
        }
      }
      // One batch per round; within a batch each key appears at most once
      // per rank, and across rounds later rounds overwrite earlier ones.
      table.update(mine);
    }
    std::vector<std::int64_t> keys;
    for (const auto& [key, value] : oracle) keys.push_back(key);
    const auto lookups = table.enquire(keys);
    std::size_t i = 0;
    std::size_t matches = 0;
    for (const auto& [key, value] : oracle) {
      ASSERT_TRUE(lookups[i].found) << "key " << key;
      matches += lookups[i].value.value == value;
      ++i;
    }
    // Keys written exactly once must match the oracle; rewritten keys may
    // legitimately hold any of their written values when two ranks write the
    // same key in the same round, so only require a large majority here.
    EXPECT_GT(matches, oracle.size() * 3 / 4);
  });
}

TEST(ChainedHash, RejectsZeroBuckets) {
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) { Flat table(comm, 0); }),
               std::invalid_argument);
}

TEST(ChainedHash, MixKeyScattersDenseKeys) {
  // Dense keys must spread across buckets (unlike identity hashing).
  std::vector<int> histogram(16, 0);
  for (std::int64_t key = 0; key < 1600; ++key) {
    ++histogram[core::mix_key(static_cast<std::uint64_t>(key)) % 16];
  }
  for (const int count : histogram) {
    EXPECT_GT(count, 50);
    EXPECT_LT(count, 150);
  }
}

TEST(FlatHashDifferential, MatchesChainedTable) {
  // Against a serial std::map replaying the same two update rounds.
  struct Tag {
    std::int64_t tag = 0;
  };
  std::map<std::int64_t, std::int64_t> oracle;
  for (std::int64_t k = 0; k < 5000; ++k) oracle[(k * 37) % 6007] = k;
  for (std::int64_t k = 0; k < 1000; ++k) oracle[k] = -k;
  for (const int p : {1, 3}) {
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      // Few buckets: heavy probing and several capacity doublings.
      core::DistributedFlatHashTable<Tag> flat(comm, 97);
      std::vector<core::DistributedFlatHashTable<Tag>::Update> updates;
      for (std::int64_t k = comm.rank(); k < 5000; k += comm.size()) {
        updates.push_back({(k * 37) % 6007, {k}});
      }
      flat.update(updates);
      // Second round overwrites a subset: insert-or-assign semantics.
      updates.clear();
      for (std::int64_t k = comm.rank(); k < 1000; k += comm.size()) {
        updates.push_back({k, {-k}});
      }
      flat.update(updates, /*block_limit=*/100);

      std::vector<std::int64_t> keys;
      for (std::int64_t k = comm.rank(); k < 7000; k += comm.size()) {
        keys.push_back(k);  // includes keys never inserted
      }
      const auto found = flat.enquire(keys);
      ASSERT_EQ(found.size(), keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto it = oracle.find(keys[i]);
        EXPECT_EQ(found[i].found, it != oracle.end()) << keys[i];
        if (it != oracle.end() && found[i].found) {
          EXPECT_EQ(found[i].value.tag, it->second) << keys[i];
        }
      }
    });
  }
}

TEST(FlatHash, GrowsBeyondInitialCapacity) {
  struct Tag {
    std::int64_t tag = 0;
  };
  mp::run_ranks(1, kZero, [&](mp::Comm& comm) {
    core::DistributedFlatHashTable<Tag> table(comm, 8);
    const std::size_t initial = table.local_capacity();
    std::vector<core::DistributedFlatHashTable<Tag>::Update> updates;
    for (std::int64_t k = 0; k < 2000; ++k) updates.push_back({k, {k * 3}});
    table.update(updates);
    EXPECT_EQ(table.local_entries(), 2000u);
    EXPECT_GT(table.local_capacity(), initial);
    // Load factor stays under the 70% rehash threshold.
    EXPECT_LE((table.local_entries() + 1) * 10, table.local_capacity() * 7 +
                                                    10);
    std::vector<std::int64_t> keys;
    for (std::int64_t k = 0; k < 2000; ++k) keys.push_back(k);
    const auto found = table.enquire(keys);
    for (std::int64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(found[static_cast<std::size_t>(k)].found) << k;
      EXPECT_EQ(found[static_cast<std::size_t>(k)].value.tag, k * 3);
    }
  });
}

TEST(FlatHash, MetricsCountAppliedEntriesNotRehashMoves) {
  for (const int p : {1, 3}) {
    const mp::RunResult run = mp::run_ranks(p, kZero, [](mp::Comm& comm) {
      // 8 buckets seed a 16-slot table, so 2,000 distinct keys force
      // several doublings, each of which moves every live slot.
      Flat table(comm, 8);
      std::vector<Flat::Update> updates;
      for (std::int64_t k = comm.rank(); k < 2000; k += comm.size()) {
        updates.push_back({k, {k}});
      }
      table.update(updates);
      updates.clear();
      for (std::int64_t k = comm.rank(); k < 500; k += comm.size()) {
        updates.push_back({k, {-k}});  // overwrites
      }
      table.update(updates, /*block_limit=*/64);
      std::vector<std::int64_t> keys;
      for (std::int64_t k = comm.rank(); k < 2500; k += comm.size()) {
        keys.push_back(k);  // the last 500 were never inserted
      }
      (void)table.enquire(keys);
    });
    const mp::MetricsSnapshot& metrics = run.metrics;
    EXPECT_GT(metrics.value("hash.grows"), 0.0) << "p=" << p;
    EXPECT_EQ(metrics.value("hash.updates"), 2500.0) << "p=" << p;
    EXPECT_EQ(metrics.value("hash.lookups"), 2500.0) << "p=" << p;
    const mp::Metric* probes = metrics.find("hash.probe_length");
    ASSERT_NE(probes, nullptr);
    EXPECT_EQ(probes->histogram.count, 2500u + 2500u) << "p=" << p;
  }
}

}  // namespace
}  // namespace scalparc
