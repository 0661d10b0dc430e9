// Unit tests for the message-passing runtime: point-to-point, the frame
// checksum, payload sharing, every collective against a serial oracle for a
// sweep of rank counts, the cost model's virtual clock, statistics
// accounting, and failure handling.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "mp/costmodel.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "mp/runtime.hpp"
#include "util/crc32.hpp"

namespace scalparc {
namespace {

const mp::CostModel kZero = mp::CostModel::zero();

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

TEST(MpP2P, RoundTrip) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> payload{1, 2, 3};
      comm.send<int>(1, 7, payload);
      const auto echoed = comm.recv<int>(1, 8);
      EXPECT_EQ(echoed, payload);
    } else {
      const auto got = comm.recv<int>(0, 7);
      comm.send<int>(0, 8, got);
    }
  });
}

TEST(MpP2P, TagMatchingAllowsOutOfOrderArrival) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, /*tag=*/100, 10);
      comm.send_value<int>(1, /*tag=*/200, 20);
    } else {
      // Receive the second message first.
      EXPECT_EQ(comm.recv_value<int>(0, 200), 20);
      EXPECT_EQ(comm.recv_value<int>(0, 100), 10);
    }
  });
}

TEST(MpP2P, EmptyPayload) {
  mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::span<const int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(MpP2P, BadDestinationThrows) {
  EXPECT_THROW(mp::run_ranks(1, kZero,
                             [](mp::Comm& comm) {
                               comm.send_value<int>(5, 0, 1);
                             }),
               std::invalid_argument);
}

TEST(MpP2P, MoveSentVectorArrivesWithoutCopy) {
  // The reliability layer retains every frame until it is acknowledged; the
  // retained handle must not turn the move-send into a copy.
  ASSERT_TRUE(mp::RunOptions{}.reliability.enabled);
  static constexpr std::size_t kCount = (std::size_t{1} << 20) / sizeof(std::int64_t);
  const void* sent_at = nullptr;
  mp::run_ranks(2, kZero, [&sent_at](mp::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::int64_t> values(kCount);
      std::iota(values.begin(), values.end(), std::int64_t{0});
      sent_at = values.data();
      comm.send<std::int64_t>(1, 3, std::move(values));
    } else {
      const std::vector<std::int64_t> got = comm.recv<std::int64_t>(0, 3);
      EXPECT_EQ(static_cast<const void*>(got.data()), sent_at);
      ASSERT_EQ(got.size(), kCount);
      EXPECT_EQ(got.back(), static_cast<std::int64_t>(kCount - 1));
    }
  });
}

TEST(MpRuntime, ExceptionPropagatesAndPeersUnblock) {
  // Rank 1 dies; rank 0 is blocked in recv and must be woken via poisoning.
  EXPECT_THROW(mp::run_ranks(2, kZero,
                             [](mp::Comm& comm) {
                               if (comm.rank() == 0) {
                                 (void)comm.recv<int>(1, 9);
                               } else {
                                 throw std::runtime_error("rank 1 died");
                               }
                             }),
               std::runtime_error);
}

TEST(MpRuntime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(mp::run_ranks(0, kZero, [](mp::Comm&) {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Frame checksum (CRC-32/IEEE)
// ---------------------------------------------------------------------------

// Bit-at-a-time CRC-32 over one byte at a time: the definition the table
// kernel must reproduce.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

std::vector<unsigned char> seeded_bytes(std::size_t n) {
  std::mt19937 gen(12345);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(gen());
  return bytes;
}

TEST(FrameChecksum, StandardCheckValue) {
  const char text[] = "123456789";
  EXPECT_EQ(util::crc32(text, 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(std::as_bytes(std::span(text, 9))), 0xCBF43926u);
}

TEST(FrameChecksum, EmptyInputWithSeedZeroIsZero) {
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
  EXPECT_EQ(util::crc32(std::span<const std::byte>{}), 0u);
}

TEST(FrameChecksum, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths from 64 up run the carry-less-multiply kernel where the CPU has
  // it: every count of 64-byte steps, 16-byte blocks and tail bytes up to
  // 1,200 at every alignment.
  const std::vector<unsigned char> buffer = seeded_bytes(1200 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1200; ++len) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(util::crc32(start, len), reference_crc32(start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(FrameChecksum, MatchesReferenceOnLargeBuffers) {
  const std::vector<unsigned char> buffer = seeded_bytes((std::size_t{1} << 20) + 16);
  for (const std::size_t len :
       {std::size_t{4096}, std::size_t{65536 + 7}, std::size_t{300001},
        std::size_t{1} << 20}) {
    for (const std::size_t offset : {0, 5}) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(util::crc32(start, len), reference_crc32(start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(FrameChecksum, SlicingKernelMatchesReference) {
  // The table kernel runs whole buffers on CPUs without carry-less multiply.
  const std::vector<unsigned char> buffer = seeded_bytes((std::size_t{1} << 20) + 16);
  for (const std::size_t len : {std::size_t{0}, std::size_t{15}, std::size_t{64},
                                std::size_t{1201}, std::size_t{1} << 20}) {
    const unsigned char* start = buffer.data() + 3;
    ASSERT_EQ(util::detail::crc32_slice16(0xFFFFFFFFu, start, len) ^ 0xFFFFFFFFu,
              reference_crc32(start, len))
        << "length " << len;
  }
}

TEST(FrameChecksum, SeededChunksEqualOnePass) {
  // The seed chains a checksum over chunks of a stream; every split point
  // across the 16-byte block boundary and the 64-byte minimum of the
  // folding kernel must agree.
  const std::vector<unsigned char> buffer = seeded_bytes(200);
  for (std::size_t len = 0; len < 200; ++len) {
    const std::uint32_t whole = util::crc32(buffer.data(), len);
    for (std::size_t split = 0; split <= len; ++split) {
      const std::uint32_t head = util::crc32(buffer.data(), split);
      ASSERT_EQ(util::crc32(buffer.data() + split, len - split, head), whole)
          << "length " << len << " split " << split;
    }
  }
}

// ---------------------------------------------------------------------------
// Payload sharing
// ---------------------------------------------------------------------------

std::vector<std::int64_t> ramp(std::size_t n) {
  std::vector<std::int64_t> values(n);
  std::iota(values.begin(), values.end(), std::int64_t{100});
  return values;
}

TEST(PayloadSharing, SoleOwnerWritesInPlace) {
  mp::Payload payload = mp::Payload::adopt(ramp(8));
  const std::byte* before = payload.bytes().data();
  EXPECT_EQ(payload.mutable_bytes().data(), before);
}

TEST(PayloadSharing, WriteThroughOneHandleLeavesTheOtherUnchanged) {
  const std::vector<std::int64_t> expected = ramp(8);
  mp::Payload clean = mp::Payload::adopt(ramp(8));
  mp::Payload wire = clean.share();
  ASSERT_EQ(wire.bytes().data(), clean.bytes().data());

  const std::span<std::byte> written = wire.mutable_bytes();
  ASSERT_EQ(written.size(), expected.size() * sizeof(std::int64_t));
  written[0] ^= std::byte{0xFF};

  EXPECT_NE(wire.bytes().data(), clean.bytes().data());
  EXPECT_EQ(clean.take<std::int64_t>(), expected);
  EXPECT_NE(wire.take<std::int64_t>(), expected);
}

TEST(PayloadSharing, TakeOnSharedPayloadCopies) {
  const std::vector<std::int64_t> expected = ramp(16);
  mp::Payload first = mp::Payload::adopt(ramp(16));
  mp::Payload second = first.share();
  const std::byte* buffer = first.bytes().data();

  const std::vector<std::int64_t> copied = second.take<std::int64_t>();
  EXPECT_EQ(copied, expected);
  EXPECT_NE(static_cast<const void*>(copied.data()), buffer);
  EXPECT_TRUE(second.empty());

  // The other handle is still readable and, now the sole owner, reclaims the
  // original vector without a copy.
  ASSERT_EQ(first.size(), expected.size() * sizeof(std::int64_t));
  EXPECT_EQ(first.bytes().data(), buffer);
  const std::vector<std::int64_t> moved = first.take<std::int64_t>();
  EXPECT_EQ(moved, expected);
  EXPECT_EQ(static_cast<const void*>(moved.data()), buffer);
}

TEST(PayloadSharing, RetainedFrameIsTheSentBuffer) {
  // The in-flight buffer holds a handle on the sent frame, not a copy: a
  // retransmission carries the very same bytes, and once the frame is
  // acknowledged the receiver's handle is the sole owner again.
  mp::Channel channel;
  mp::Message sent;
  sent.tag = 5;
  sent.seq = channel.assign_seq();
  sent.payload = mp::Payload::adopt(ramp(32));
  const std::byte* buffer = sent.payload.bytes().data();
  channel.record_inflight(sent);
  channel.push(std::move(sent));

  mp::Message first = channel.pop(5);
  ASSERT_TRUE(channel.nack_retransmit(first.seq));
  mp::Message again = channel.pop(5);
  EXPECT_EQ(again.payload.bytes().data(), buffer);
  EXPECT_EQ(channel.stats().retransmits, 1u);

  channel.acknowledge(first.seq);
  EXPECT_FALSE(channel.can_retransmit(5));
  again = mp::Message{};
  const std::vector<std::int64_t> got = first.payload.take<std::int64_t>();
  EXPECT_EQ(got, ramp(32));
  EXPECT_EQ(static_cast<const void*>(got.data()), buffer);
}

// ---------------------------------------------------------------------------
// Collectives vs serial oracles across rank counts
// ---------------------------------------------------------------------------

class Collectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankSweep, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13));

TEST_P(Collectives, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    mp::run_ranks(p, kZero, [root](mp::Comm& comm) {
      std::vector<std::int64_t> data;
      if (comm.rank() == root) data = {1, 2, 3, 42};
      mp::bcast(comm, data, root);
      ASSERT_EQ(data.size(), 4u);
      EXPECT_EQ(data[3], 42);
    });
  }
}

TEST_P(Collectives, BroadcastValue) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const double v = mp::bcast_value(comm, comm.rank() == 0 ? 3.25 : -1.0, 0);
    EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST_P(Collectives, ReduceSumToEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    mp::run_ranks(p, kZero, [root, p](mp::Comm& comm) {
      const std::int64_t value = comm.rank() + 1;
      const std::int64_t sum = mp::reduce_value(comm, value, mp::SumOp{}, root);
      if (comm.rank() == root) {
        EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p + 1) / 2);
      }
    });
  }
}

TEST_P(Collectives, AllreduceVector) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    const std::vector<std::int64_t> local{comm.rank(), 1, 2 * comm.rank()};
    const auto total = mp::allreduce_vec(
        comm, std::span<const std::int64_t>(local), mp::SumOp{});
    const std::int64_t ranks_sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
    ASSERT_EQ(total.size(), 3u);
    EXPECT_EQ(total[0], ranks_sum);
    EXPECT_EQ(total[1], p);
    EXPECT_EQ(total[2], 2 * ranks_sum);
  });
}

TEST_P(Collectives, AllreduceMinMax) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    EXPECT_EQ(mp::allreduce_value(comm, comm.rank(), mp::MinOp{}), 0);
    EXPECT_EQ(mp::allreduce_value(comm, comm.rank(), mp::MaxOp{}), p - 1);
  });
}

TEST_P(Collectives, ExscanSum) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const std::int64_t r = comm.rank();
    const std::int64_t prefix =
        mp::exscan_value(comm, r + 1, mp::SumOp{}, std::int64_t{0});
    // sum of 1..r
    EXPECT_EQ(prefix, r * (r + 1) / 2);
  });
}

TEST_P(Collectives, ExscanVector) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) {
    const std::int64_t r = comm.rank();
    const std::vector<std::int64_t> local{1, r};
    const auto prefix = mp::exscan_vec(
        comm, std::span<const std::int64_t>(local), mp::SumOp{}, std::int64_t{0});
    ASSERT_EQ(prefix.size(), 2u);
    EXPECT_EQ(prefix[0], r);                 // count of earlier ranks
    EXPECT_EQ(prefix[1], r * (r - 1) / 2);   // sum of earlier ranks
  });
}

TEST_P(Collectives, GatherValues) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    const auto gathered = mp::gather_values(comm, comm.rank() * 10, 0);
    if (comm.is_root()) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) EXPECT_EQ(gathered[r], r * 10);
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(Collectives, GathervVariableChunks) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    std::vector<int> local(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto chunks = mp::gatherv(comm, std::span<const int>(local), p - 1);
    if (comm.rank() == p - 1) {
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(chunks[r].size(), static_cast<std::size_t>(r));
        for (const int v : chunks[r]) EXPECT_EQ(v, r);
      }
    }
  });
}

TEST_P(Collectives, AllgathervConcat) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    const std::vector<int> local{comm.rank(), comm.rank()};
    const auto flat = mp::allgatherv_concat(comm, std::span<const int>(local));
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(2 * p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(flat[2 * r], r);
      EXPECT_EQ(flat[2 * r + 1], r);
    }
  });
}

TEST_P(Collectives, AlltoallvPersonalizedExchange) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [p](mp::Comm& comm) {
    // Rank r sends d copies of value r*100+d to destination d.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[d].assign(static_cast<std::size_t>(d), comm.rank() * 100 + d);
    }
    const auto recv = mp::alltoallv(comm, send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(recv[s].size(), static_cast<std::size_t>(comm.rank()));
      for (const int v : recv[s]) EXPECT_EQ(v, s * 100 + comm.rank());
    }
  });
}

TEST_P(Collectives, Barrier) {
  const int p = GetParam();
  mp::run_ranks(p, kZero, [](mp::Comm& comm) { mp::barrier(comm); });
}

TEST(Collectives, AlltoallvRejectsWrongBufferCount) {
  EXPECT_THROW(
      mp::run_ranks(2, kZero,
                    [](mp::Comm& comm) {
                      std::vector<std::vector<int>> bad(1);
                      (void)mp::alltoallv(comm, bad);
                    }),
      std::invalid_argument);
}

TEST(Collectives, AlltoallvMovedChunksArriveWithoutCopy) {
  // Every chunk moves through the mailbox, past the reliability layer's
  // retained handle: each rank receives the very buffers its peers filled
  // and keeps its own chunk in place.
  ASSERT_TRUE(mp::RunOptions{}.reliability.enabled);
  constexpr int kRanks = 3;
  // filled_at[s * kRanks + d]: where rank s filled its chunk for rank d.
  std::vector<const void*> filled_at(kRanks * kRanks, nullptr);
  mp::run_ranks(kRanks, kZero, [&filled_at](mp::Comm& comm) {
    const int r = comm.rank();
    std::vector<std::vector<std::int64_t>> send(kRanks);
    for (int d = 0; d < kRanks; ++d) {
      send[d].assign(static_cast<std::size_t>(1000 + d), r * 100 + d);
      filled_at[static_cast<std::size_t>(r * kRanks + d)] = send[d].data();
    }
    const auto recv = mp::alltoallv(comm, std::move(send));
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(kRanks));
    for (int s = 0; s < kRanks; ++s) {
      const std::vector<std::int64_t>& chunk = recv[static_cast<std::size_t>(s)];
      EXPECT_EQ(static_cast<const void*>(chunk.data()),
                filled_at[static_cast<std::size_t>(s * kRanks + r)])
          << "chunk from rank " << s << " at rank " << r;
      ASSERT_EQ(chunk.size(), static_cast<std::size_t>(1000 + r));
      EXPECT_EQ(chunk.front(), s * 100 + r);
    }
  });
}

TEST(Collectives, CustomCombineStruct) {
  struct ArgMin {
    double value;
    std::int32_t rank;
    std::int32_t pad = 0;
  };
  struct ArgMinOp {
    ArgMin operator()(const ArgMin& a, const ArgMin& b) const {
      return b.value < a.value ? b : a;
    }
  };
  mp::run_ranks(5, kZero, [](mp::Comm& comm) {
    // Rank 3 has the smallest value.
    const double v = comm.rank() == 3 ? -1.0 : static_cast<double>(comm.rank());
    const ArgMin winner =
        mp::allreduce_value(comm, ArgMin{v, comm.rank()}, ArgMinOp{});
    EXPECT_EQ(winner.rank, 3);
    EXPECT_DOUBLE_EQ(winner.value, -1.0);
  });
}

// ---------------------------------------------------------------------------
// Cost model / virtual time
// ---------------------------------------------------------------------------

TEST(MpCostModel, WorkAdvancesClock) {
  mp::CostModel model = mp::CostModel::zero();
  model.seconds_per_work_unit = 1e-6;
  const auto result = mp::run_ranks(2, model, [](mp::Comm& comm) {
    comm.add_work(1000.0);
  });
  EXPECT_DOUBLE_EQ(result.modeled_seconds, 1e-3);
}

TEST(MpCostModel, MessageCostsLatencyAndBandwidth) {
  mp::CostModel model = mp::CostModel::zero();
  model.latency_s = 1e-3;
  model.seconds_per_byte = 1e-6;
  const auto result = mp::run_ranks(2, model, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> payload(1000);
      comm.send_bytes(1, 0, payload);
    } else {
      (void)comm.recv_bytes(0, 0);
    }
  });
  // Receiver clock: 1 ms latency + 1000 B * 1 us/B = 2 ms.
  EXPECT_NEAR(result.modeled_seconds, 2e-3, 1e-12);
}

TEST(MpCostModel, SlowestRankDominatesAfterCollective) {
  mp::CostModel model = mp::CostModel::zero();
  model.seconds_per_work_unit = 1e-6;
  const auto result = mp::run_ranks(4, model, [](mp::Comm& comm) {
    if (comm.rank() == 2) comm.add_work(5000.0);
    mp::barrier(comm);
  });
  // Every rank's clock must have been pulled up to at least rank 2's work.
  for (const auto& rank : result.ranks) {
    EXPECT_GE(rank.vtime_seconds, 5e-3);
  }
}

TEST(MpCostModel, ZeroModelKeepsClockAtZero) {
  const auto result = mp::run_ranks(3, kZero, [](mp::Comm& comm) {
    comm.add_work(100.0);
    mp::barrier(comm);
  });
  EXPECT_DOUBLE_EQ(result.modeled_seconds, 0.0);
}

TEST(MpCostModel, CrayT3DDefaultsAreSane) {
  const mp::CostModel t3d = mp::CostModel::cray_t3d();
  EXPECT_GT(t3d.latency_s, 0.0);
  EXPECT_GT(t3d.seconds_per_byte, 0.0);
  EXPECT_GT(t3d.wire_seconds(1 << 20), t3d.wire_seconds(1));
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(MpStats, CountsBytesAndMessages) {
  const auto result = mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::int32_t> payload(25, 1);
      comm.send<std::int32_t>(1, 0, payload);
    } else {
      (void)comm.recv<std::int32_t>(0, 0);
    }
  });
  EXPECT_EQ(result.ranks[0].stats.bytes_sent, 100u);
  EXPECT_EQ(result.ranks[0].stats.messages_sent, 1u);
  EXPECT_EQ(result.ranks[1].stats.bytes_received, 100u);
  EXPECT_EQ(result.ranks[1].stats.messages_received, 1u);
}

TEST(MpStats, AttributesBytesToCollectiveClass) {
  const auto result = mp::run_ranks(4, kZero, [](mp::Comm& comm) {
    std::vector<std::vector<std::int64_t>> send(4);
    for (auto& buf : send) buf.assign(10, comm.rank());
    (void)mp::alltoallv(comm, send);
  });
  const mp::CommStats total = result.total_stats();
  EXPECT_GT(total.bytes_sent_by_op[static_cast<int>(mp::CommOp::kAlltoall)], 0u);
  EXPECT_EQ(total.bytes_sent_by_op[static_cast<int>(mp::CommOp::kBroadcast)], 0u);
  EXPECT_EQ(total.calls_by_op[static_cast<int>(mp::CommOp::kAlltoall)], 4u);
}

TEST(MpStats, WorkUnitsRecorded) {
  const auto result = mp::run_ranks(2, kZero, [](mp::Comm& comm) {
    comm.add_work(12.5);
  });
  EXPECT_DOUBLE_EQ(result.ranks[0].stats.work_units, 12.5);
  EXPECT_DOUBLE_EQ(result.total_stats().work_units, 25.0);
}

TEST(MpStats, OpNames) {
  EXPECT_EQ(mp::comm_op_name(mp::CommOp::kAlltoall), "alltoall");
  EXPECT_EQ(mp::comm_op_name(mp::CommOp::kScan), "scan");
}

TEST(MpStats, MaxBytesPerRank) {
  const auto result = mp::run_ranks(3, kZero, [](mp::Comm& comm) {
    if (comm.rank() == 1) {
      const std::vector<std::byte> big(1000);
      comm.send_bytes(0, 0, big);
    }
    mp::barrier(comm);
    if (comm.rank() == 0) (void)comm.recv_bytes(1, 0);
  });
  EXPECT_GE(result.max_bytes_sent_per_rank(), 1000u);
}

}  // namespace
}  // namespace scalparc
