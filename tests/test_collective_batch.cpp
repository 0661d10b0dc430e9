// Property tests for the fused collective layer: a CollectiveBatch round
// over randomized packed directories (random segment counts, sizes, element
// types and roots, including empty segments) must be element-identical to
// running the unfused reference collective segment by segment. The
// transport under the rounds rides along: wire-fault healing and the
// deadlock detector's view of a receiver that is checking a large frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "mp/costmodel.hpp"
#include "mp/fault.hpp"
#include "mp/runtime.hpp"
#include "util/random.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

// A non-commutative combine rides along so argument-order bugs cannot hide:
// mirrors the induction loop's boundary propagation ("rightmost non-empty
// value wins").
struct Marker {
  double value = 0.0;
  std::uint8_t has = 0;
  std::uint8_t pad[7] = {};
};

struct RightmostOp {
  Marker operator()(const Marker& left, const Marker& right) const {
    return right.has != 0 ? right : left;
  }
};

// One randomized directory: interleaved int64-sum, Marker-rightmost and
// double-min segments. Sizes (possibly zero) and roots depend only on
// (seed, segment) so every rank builds the identical directory; values
// depend on the rank as well.
struct SegmentSpec {
  int type = 0;  // 0: int64 sum, 1: Marker rightmost, 2: double min
  std::size_t size = 0;
  int root = 0;
};

std::vector<SegmentSpec> make_directory(std::uint64_t seed, int p) {
  util::Rng rng(seed);
  const std::size_t count = 1 + rng.next_below(9);
  std::vector<SegmentSpec> specs(count);
  for (SegmentSpec& spec : specs) {
    spec.type = static_cast<int>(rng.next_below(3));
    // ~1 in 4 segments is empty.
    spec.size = rng.next_bool(0.25) ? 0 : 1 + rng.next_below(17);
    spec.root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
  }
  return specs;
}

std::vector<std::int64_t> int_values(std::uint64_t seed, int rank,
                                     std::size_t n) {
  util::Rng rng(seed ^ (0x9E37ULL * static_cast<std::uint64_t>(rank + 1)));
  std::vector<std::int64_t> out(n);
  for (auto& v : out) v = rng.next_int(-1000, 1000);
  return out;
}

std::vector<Marker> marker_values(std::uint64_t seed, int rank, std::size_t n) {
  util::Rng rng(seed ^ (0xB0B1ULL * static_cast<std::uint64_t>(rank + 1)));
  std::vector<Marker> out(n);
  for (auto& m : out) {
    m.has = rng.next_bool(0.6) ? 1 : 0;
    m.value = m.has ? rng.next_double(-5.0, 5.0) : 0.0;
  }
  return out;
}

std::vector<double> double_values(std::uint64_t seed, int rank, std::size_t n) {
  util::Rng rng(seed ^ (0xCAFEULL * static_cast<std::uint64_t>(rank + 1)));
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double(-100.0, 100.0);
  return out;
}

class BatchSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, BatchSweep, ::testing::Values(1, 2, 3, 4, 8));

// Packed exscan == per-segment exscan_vec, element for element.
TEST_P(BatchSweep, ExscanMatchesUnfusedReference) {
  const int p = GetParam();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<SegmentSpec> specs = make_directory(seed, p);
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      const int r = comm.rank();
      mp::CollectiveBatch batch(comm);
      std::vector<std::size_t> ids;
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const std::uint64_t sseed = seed * 1000 + s;
        switch (specs[s].type) {
          case 0:
            ids.push_back(batch.add<std::int64_t>(
                int_values(sseed, r, specs[s].size), mp::SumOp{},
                std::int64_t{0}));
            break;
          case 1:
            ids.push_back(batch.add<Marker>(marker_values(sseed, r, specs[s].size),
                                            RightmostOp{}, Marker{}));
            break;
          default:
            ids.push_back(batch.add<double>(double_values(sseed, r, specs[s].size),
                                            mp::MinOp{},
                                            std::numeric_limits<double>::max()));
        }
      }
      batch.exscan();
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const std::uint64_t sseed = seed * 1000 + s;
        if (specs[s].type == 0) {
          const std::vector<std::int64_t> local = int_values(sseed, r, specs[s].size);
          const std::vector<std::int64_t> expected = mp::exscan_vec(
              comm, std::span<const std::int64_t>(local), mp::SumOp{},
              std::int64_t{0});
          const auto got = batch.view<std::int64_t>(ids[s]);
          ASSERT_EQ(got.size(), expected.size());
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " seg " << s;
          }
        } else if (specs[s].type == 1) {
          const std::vector<Marker> local = marker_values(sseed, r, specs[s].size);
          const std::vector<Marker> expected = mp::exscan_vec(
              comm, std::span<const Marker>(local), RightmostOp{}, Marker{});
          const auto got = batch.view<Marker>(ids[s]);
          ASSERT_EQ(got.size(), expected.size());
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(got[i].has, expected[i].has);
            EXPECT_DOUBLE_EQ(got[i].value, expected[i].value);
          }
        } else {
          const std::vector<double> local = double_values(sseed, r, specs[s].size);
          const std::vector<double> expected = mp::exscan_vec(
              comm, std::span<const double>(local), mp::MinOp{},
              std::numeric_limits<double>::max());
          const auto got = batch.view<double>(ids[s]);
          ASSERT_EQ(got.size(), expected.size());
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_DOUBLE_EQ(got[i], expected[i]);
          }
        }
      }
    });
  }
}

// Packed allreduce == per-segment allreduce_vec.
TEST_P(BatchSweep, AllreduceMatchesUnfusedReference) {
  const int p = GetParam();
  for (std::uint64_t seed = 20; seed <= 28; ++seed) {
    const std::vector<SegmentSpec> specs = make_directory(seed, p);
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      const int r = comm.rank();
      mp::CollectiveBatch batch(comm);
      std::vector<std::size_t> ids;
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const std::uint64_t sseed = seed * 1000 + s;
        if (specs[s].type == 2) {
          ids.push_back(batch.add<double>(double_values(sseed, r, specs[s].size),
                                          mp::MinOp{}));
        } else {
          ids.push_back(batch.add<std::int64_t>(
              int_values(sseed, r, specs[s].size), mp::SumOp{}));
        }
      }
      batch.allreduce();
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const std::uint64_t sseed = seed * 1000 + s;
        if (specs[s].type == 2) {
          const std::vector<double> local = double_values(sseed, r, specs[s].size);
          const std::vector<double> expected = mp::allreduce_vec(
              comm, std::span<const double>(local), mp::MinOp{});
          const auto got = batch.view<double>(ids[s]);
          ASSERT_EQ(got.size(), expected.size());
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_DOUBLE_EQ(got[i], expected[i]);
          }
        } else {
          const std::vector<std::int64_t> local = int_values(sseed, r, specs[s].size);
          const std::vector<std::int64_t> expected = mp::allreduce_vec(
              comm, std::span<const std::int64_t>(local), mp::SumOp{});
          const auto got = batch.view<std::int64_t>(ids[s]);
          ASSERT_EQ(got.size(), expected.size());
          for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(got[i], expected[i]);
          }
        }
      }
    });
  }
}

// Packed rooted reduce == reduce_vec to each segment's own root.
TEST_P(BatchSweep, ReduceRootedMatchesUnfusedReference) {
  const int p = GetParam();
  for (std::uint64_t seed = 40; seed <= 48; ++seed) {
    const std::vector<SegmentSpec> specs = make_directory(seed, p);
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      const int r = comm.rank();
      mp::CollectiveBatch batch(comm);
      std::vector<std::size_t> ids;
      for (std::size_t s = 0; s < specs.size(); ++s) {
        ids.push_back(batch.add<std::int64_t>(
            int_values(seed * 1000 + s, r, specs[s].size), mp::SumOp{},
            std::int64_t{0}, specs[s].root));
      }
      batch.reduce_rooted();
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const std::vector<std::int64_t> local =
            int_values(seed * 1000 + s, r, specs[s].size);
        const std::vector<std::int64_t> expected = mp::reduce_vec(
            comm, std::span<const std::int64_t>(local), mp::SumOp{},
            specs[s].root);
        if (r != specs[s].root) continue;  // only the root's view is defined
        const auto got = batch.view<std::int64_t>(ids[s]);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " seg " << s;
        }
      }
    });
  }
}

// Packed rooted broadcast == bcast from each segment's own root.
TEST_P(BatchSweep, BcastRootedMatchesUnfusedReference) {
  const int p = GetParam();
  for (std::uint64_t seed = 60; seed <= 68; ++seed) {
    const std::vector<SegmentSpec> specs = make_directory(seed, p);
    mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
      const int r = comm.rank();
      mp::CollectiveBatch batch(comm);
      std::vector<std::size_t> ids;
      for (std::size_t s = 0; s < specs.size(); ++s) {
        // Only the root's contribution matters; other ranks contribute a
        // correctly-sized placeholder, as the induction loop does.
        const std::vector<std::int64_t> contribution =
            r == specs[s].root
                ? int_values(seed * 1000 + s, specs[s].root, specs[s].size)
                : std::vector<std::int64_t>(specs[s].size, 0);
        ids.push_back(batch.add<std::int64_t>(
            std::span<const std::int64_t>(contribution), mp::SumOp{},
            std::int64_t{0}, specs[s].root));
      }
      batch.bcast_rooted();
      for (std::size_t s = 0; s < specs.size(); ++s) {
        const std::vector<std::int64_t> expected =
            int_values(seed * 1000 + s, specs[s].root, specs[s].size);
        const auto got = batch.view<std::int64_t>(ids[s]);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " seg " << s;
        }
      }
    });
  }
}

// reset() keeps the batch reusable: run two different rounds back to back.
TEST_P(BatchSweep, ResetAllowsReuseAcrossRounds) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    const std::vector<std::int64_t> ones(5, 1);
    const std::size_t a =
        batch.add<std::int64_t>(std::span<const std::int64_t>(ones),
                                mp::SumOp{}, std::int64_t{0});
    batch.exscan();
    for (const std::int64_t v : batch.view<std::int64_t>(a)) {
      EXPECT_EQ(v, comm.rank());
    }
    batch.reset();
    EXPECT_EQ(batch.num_segments(), 0u);
    const std::size_t b = batch.add<std::int64_t>(
        std::span<const std::int64_t>(ones), mp::SumOp{});
    batch.allreduce();
    for (const std::int64_t v : batch.view<std::int64_t>(b)) {
      EXPECT_EQ(v, comm.size());
    }
  });
}

// reset() keeps the packed buffer's capacity, and so does every round: after
// a reset, an add of the same size and an allreduce, each rank's segment
// still lies where it lay before.
TEST(CollectiveBatch, AllreduceKeepsTheBufferResetKeeps) {
  mp::run_ranks(3, kZero, [](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    const std::vector<std::int64_t> ones(1000, 1);
    const std::size_t a = batch.add<std::int64_t>(
        std::span<const std::int64_t>(ones), mp::SumOp{});
    batch.allreduce();
    const std::int64_t* before = batch.view<std::int64_t>(a).data();
    batch.reset();
    const std::size_t b = batch.add<std::int64_t>(
        std::span<const std::int64_t>(ones), mp::SumOp{});
    batch.allreduce();
    EXPECT_EQ(batch.view<std::int64_t>(b).data(), before)
        << "rank " << comm.rank();
    for (const std::int64_t v : batch.view<std::int64_t>(b)) {
      ASSERT_EQ(v, comm.size());
    }
  });
}

// Fused rounds cost O(1) collective calls regardless of segment count.
TEST(CollectiveBatch, OneCallPerRoundInStats) {
  const auto result = mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    const std::vector<std::int64_t> data(8, 1);
    for (int s = 0; s < 10; ++s) {
      batch.add<std::int64_t>(std::span<const std::int64_t>(data),
                              mp::SumOp{});
    }
    batch.exscan();
  });
  const mp::CommStats& stats = result.ranks[0].stats;
  EXPECT_EQ(stats.calls_by_op[static_cast<int>(mp::CommOp::kScan)], 1u);
}

TEST(CollectiveBatch, EmptyBatchRoundsAreNoOps) {
  mp::run_ranks(3, kZero, [](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    batch.exscan();
    batch.allreduce();
    batch.reduce_rooted();
    batch.bcast_rooted();
    EXPECT_EQ(batch.packed_bytes(), 0u);
  });
}

TEST(CollectiveBatch, ViewRejectsElementSizeMismatch) {
  mp::run_ranks(1, kZero, [](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    const std::vector<std::int64_t> data(3, 1);
    const std::size_t id = batch.add<std::int64_t>(
        std::span<const std::int64_t>(data), mp::SumOp{});
    EXPECT_THROW((void)batch.view<std::int32_t>(id), std::invalid_argument);
  });
}

// Two rooted reduces of one directory at p = 3, rank 2 owning no segment,
// each rank filling its packs in place. A received pack stays behind as the
// send buffer for that peer, so the owners' second round allocates nothing
// of pack size. Rank 2 receives no pack back and allocates exactly its two
// send packs again. Every root's result equals a serial sum/min oracle, and
// each message carries exactly the bytes of its root's segments.
TEST(CollectiveBatch, RootedReduceRecyclesItsPacks) {
  constexpr int kRanks = 3;
  struct Spec {
    int root;
    bool minimum;  // double minima, else int64 sums
    std::size_t n;
  };
  // Uneven packs (root 0: 36,000 bytes, root 1: 28,000) and an empty
  // segment.
  const std::vector<Spec> specs = {{0, false, 3000}, {0, true, 1000},
                                   {1, false, 2500}, {1, true, 1000},
                                   {1, false, 0},    {0, false, 500}};
  std::array<std::uint64_t, kRanks> pack_bytes{};
  for (const Spec& spec : specs) {
    pack_bytes[static_cast<std::size_t>(spec.root)] += spec.n * 8;
  }
  const auto sum_value = [](int round, int rank, std::size_t s,
                            std::size_t i) {
    return static_cast<std::int64_t>((i * 7919 + s * 131 +
                                      static_cast<std::size_t>(rank) * 17 +
                                      static_cast<std::size_t>(round) * 5) %
                                     2001) -
           1000;
  };
  const auto min_value = [](int round, int rank, std::size_t s,
                            std::size_t i) {
    return static_cast<double>((i * 104729 + s * 37 +
                                static_cast<std::size_t>(rank) * 7919 +
                                static_cast<std::size_t>(round) * 3) %
                               9973) *
           0.5;
  };
  test::reset_allocation_counts();

  mp::run_ranks(kRanks, kZero, [&](mp::Comm& comm) {
    const int r = comm.rank();
    mp::CollectiveBatch batch(comm);
    std::vector<std::size_t> ids(specs.size());
    const auto round = [&](int round) {
      batch.reset();
      for (std::size_t s = 0; s < specs.size(); ++s) {
        ids[s] = specs[s].minimum
                     ? batch.place<double>(
                           specs[s].n, mp::MinOp{},
                           std::numeric_limits<double>::infinity(),
                           specs[s].root)
                     : batch.place<std::int64_t>(specs[s].n, mp::SumOp{},
                                                 std::int64_t{0},
                                                 specs[s].root);
      }
      for (std::size_t s = 0; s < specs.size(); ++s) {
        if (specs[s].minimum) {
          const std::span<double> seg = batch.segment<double>(ids[s]);
          for (std::size_t i = 0; i < seg.size(); ++i) {
            seg[i] = min_value(round, r, s, i);
          }
        } else {
          const std::span<std::int64_t> seg =
              batch.segment<std::int64_t>(ids[s]);
          for (std::size_t i = 0; i < seg.size(); ++i) {
            seg[i] = sum_value(round, r, s, i);
          }
        }
      }
      batch.reduce_rooted();
    };
    const auto check = [&](int round) {
      for (std::size_t s = 0; s < specs.size(); ++s) {
        if (specs[s].root != r) continue;
        for (std::size_t i = 0; i < specs[s].n; ++i) {
          if (specs[s].minimum) {
            double expected = std::numeric_limits<double>::infinity();
            for (int q = 0; q < kRanks; ++q) {
              expected = std::min(expected, min_value(round, q, s, i));
            }
            ASSERT_EQ(batch.view<double>(ids[s])[i], expected)
                << "round " << round << " seg " << s << " element " << i;
          } else {
            std::int64_t expected = 0;
            for (int q = 0; q < kRanks; ++q) {
              expected += sum_value(round, q, s, i);
            }
            ASSERT_EQ(batch.view<std::int64_t>(ids[s])[i], expected)
                << "round " << round << " seg " << s << " element " << i;
          }
        }
      }
    };
    round(0);
    check(0);
    mp::barrier(comm);
    test::start_counting_allocations(r);
    const mp::CommStats before = comm.stats();
    round(1);
    const mp::CommStats after = comm.stats();
    test::stop_counting_allocations();
    check(1);

    std::uint64_t sent = 0;
    std::uint64_t messages = 0;
    for (int q = 0; q < kRanks; ++q) {
      if (q == r || pack_bytes[static_cast<std::size_t>(q)] == 0) continue;
      sent += pack_bytes[static_cast<std::size_t>(q)];
      ++messages;
    }
    const std::uint64_t own = pack_bytes[static_cast<std::size_t>(r)];
    EXPECT_EQ(after.bytes_sent - before.bytes_sent, sent) << "rank " << r;
    EXPECT_EQ(after.messages_sent - before.messages_sent, messages)
        << "rank " << r;
    EXPECT_EQ(after.bytes_received - before.bytes_received,
              own > 0 ? (kRanks - 1) * own : 0)
        << "rank " << r;
    EXPECT_EQ(after.messages_received - before.messages_received,
              own > 0 ? std::uint64_t{kRanks - 1} : 0)
        << "rank " << r;
  });
  EXPECT_EQ(test::allocation_counts(0).large_blocks, 0u);
  EXPECT_EQ(test::allocation_counts(1).large_blocks, 0u);
  EXPECT_EQ(test::allocation_counts(2).large_blocks, 2u);
}

TEST(CollectiveBatch, RoundsRejectTheOtherKindOfDirectory) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    batch.place<std::int64_t>(4, mp::SumOp{});
    EXPECT_THROW(batch.place<std::int64_t>(4, mp::SumOp{}, std::int64_t{0}, 1),
                 std::logic_error);
    EXPECT_THROW(batch.reduce_rooted(), std::logic_error);
    batch.reset();
    batch.place<std::int64_t>(4, mp::SumOp{}, std::int64_t{0}, 1);
    EXPECT_THROW(batch.allreduce(), std::logic_error);
  });
}

TEST(CollectiveBatch, AddRejectsBadRoot) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    mp::CollectiveBatch batch(comm);
    const std::vector<std::int64_t> data(3, 1);
    EXPECT_THROW(batch.add<std::int64_t>(std::span<const std::int64_t>(data),
                                         mp::SumOp{}, std::int64_t{0}, 7),
                 std::invalid_argument);
  });
}

// Packed rounds ride the self-healing transport: drop, corrupt and duplicate
// faults injected into the fused frames heal via ack/retransmit and every
// rank still computes the exact unfused reference result.
TEST(CollectiveBatch, FusedRoundsHealInjectedWireFaults) {
  const int p = 4;
  const std::uint64_t seed = 7;
  const std::vector<SegmentSpec> specs = make_directory(seed, p);

  auto round = [&](mp::Comm& comm) {
    const int r = comm.rank();
    mp::CollectiveBatch batch(comm);
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ids.push_back(batch.add<std::int64_t>(
          int_values(seed * 1000 + s, r, specs[s].size), mp::SumOp{},
          std::int64_t{0}));
    }
    batch.exscan();
    std::vector<std::int64_t> flat;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const auto view = batch.view<std::int64_t>(ids[s]);
      flat.insert(flat.end(), view.begin(), view.end());
    }
    batch.reset();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ids[s] = batch.add<std::int64_t>(
          int_values(seed * 2000 + s, r, specs[s].size), mp::SumOp{},
          std::int64_t{0});
    }
    batch.allreduce();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const auto view = batch.view<std::int64_t>(ids[s]);
      flat.insert(flat.end(), view.begin(), view.end());
    }
    return flat;
  };

  std::vector<std::vector<std::int64_t>> clean(static_cast<std::size_t>(p));
  mp::run_ranks(p, kZero, [&](mp::Comm& comm) {
    clean[static_cast<std::size_t>(comm.rank())] = round(comm);
  });

  mp::FaultPlan plan;
  plan.parse(
      "drop:r=0,op=1;drop:r=1,op=2;"
      "corrupt:r=2,op=1;corrupt:r=3,op=2;"
      "duplicate:r=0,op=3;duplicate:r=2,op=4");
  mp::RunOptions options;
  options.fault_plan = &plan;
  options.reliability.backoff_ms = 4.0;
  options.reliability.backoff_cap_ms = 40.0;
  std::vector<std::vector<std::int64_t>> healed(static_cast<std::size_t>(p));
  const mp::RunResult run = mp::try_run_ranks(
      p, kZero,
      [&](mp::Comm& comm) {
        healed[static_cast<std::size_t>(comm.rank())] = round(comm);
      },
      options);
  EXPECT_FALSE(run.failed()) << run.failure_message;
  EXPECT_GE(plan.drops_injected(), 1u);
  EXPECT_GE(run.transport.retransmits, 1u);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(healed[static_cast<std::size_t>(r)],
              clean[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

// With reliability off nothing vetoes the deadlock probe, so a receiver must
// leave the blocked registry as soon as it pops its frame. The CRC32 check of
// a 64 MB frame outlasts the probe's 20 ms confirmation pause; a receiver
// still registered as blocked during it made both ranks look stuck while
// rank 1 waited for the reply.
TEST(DeadlockDetector, ReceiverCheckingALargeFrameIsNotBlocked) {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  mp::RunOptions options;
  options.reliability.enabled = false;
  const mp::RunResult run = mp::try_run_ranks(
      2, kZero,
      [&](mp::Comm& comm) {
        if (comm.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          comm.send(0, 1, std::vector<std::byte>(kBytes, std::byte{0x5a}));
          EXPECT_EQ(comm.recv_value<int>(0, 2), 7);
        } else {
          EXPECT_EQ(comm.recv<std::byte>(1, 1).size(), kBytes);
          comm.send_value<int>(1, 2, 7);
        }
      },
      options);
  EXPECT_FALSE(run.failed()) << run.failure_message;
}

}  // namespace
}  // namespace scalparc
