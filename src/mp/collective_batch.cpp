#include "mp/collective_batch.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace scalparc::mp {

void CollectiveBatch::combine_all(std::byte* dst,
                                  std::span<const std::byte> incoming,
                                  bool incoming_left) const {
  if (incoming.size() != buffer_.size()) {
    throw std::logic_error(
        "CollectiveBatch: peer sent a differently-sized packed buffer "
        "(directories disagree across ranks)");
  }
  for (const Segment& seg : segments_) {
    seg.combine(dst + seg.offset, incoming.data() + seg.offset, seg.bytes,
                incoming_left);
  }
}

void CollectiveBatch::pack_rooted(int root) {
  std::size_t bytes = 0;
  for (const Segment& seg : segments_) {
    if (seg.root == root) bytes += seg.bytes;
  }
  pack_.clear();
  pack_.reserve(bytes);
  for (const Segment& seg : segments_) {
    if (seg.root != root) continue;
    pack_.insert(pack_.end(), buffer_.data() + seg.offset,
                 buffer_.data() + seg.offset + seg.bytes);
  }
}

bool CollectiveBatch::owns_any(int root) const {
  for (const Segment& seg : segments_) {
    if (seg.root == root) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Exclusive scan: distance doubling over the whole packed buffer. One
// message per rank per round, log2(p) rounds — independent of how many
// segments ride in the batch.
// ---------------------------------------------------------------------------

void CollectiveBatch::exscan() {
  if (segments_.empty()) return;
  Comm::OpScope scope(comm_, CommOp::kScan);
  const int p = comm_.size();
  const int r = comm_.rank();

  // The exclusive result starts as each segment's identity, replicated.
  exclusive_.assign(buffer_.size(), std::byte{0});
  for (const Segment& seg : segments_) {
    for (std::size_t off = 0; off < seg.bytes; off += seg.elem_size) {
      std::memcpy(exclusive_.data() + seg.offset + off, seg.identity,
                  seg.elem_size);
    }
  }

  for (int d = 1; d < p; d <<= 1) {
    const std::int64_t tag = comm_.next_collective_tag();
    if (r + d < p) {
      comm_.send<std::byte>(r + d, tag, std::span<const std::byte>(buffer_));
    }
    if (r - d >= 0) {
      const std::vector<std::byte> incoming = comm_.recv<std::byte>(r - d, tag);
      // The incoming buffer covers ranks strictly left of this rank's
      // running segment: fold it in from the left.
      combine_all(exclusive_.data(), incoming, /*incoming_left=*/true);
      combine_all(buffer_.data(), incoming, /*incoming_left=*/true);
    }
  }
  buffer_.swap(exclusive_);
}

// ---------------------------------------------------------------------------
// Allreduce: binomial reduce of the packed buffer to rank 0, then binomial
// broadcast back out. Matches the algorithm shape of allreduce_vec so the
// modeled cost is comparable — but runs once for all segments.
// ---------------------------------------------------------------------------

void CollectiveBatch::allreduce() {
  if (segments_.empty()) return;
  Comm::OpScope scope(comm_, CommOp::kAllreduce);
  const int p = comm_.size();
  const int r = comm_.rank();
  if (p == 1) return;

  {  // reduce to rank 0 (vrank == rank because root is 0)
    const std::int64_t tag = comm_.next_collective_tag();
    int mask = 1;
    while (mask < p) {
      if ((r & mask) == 0) {
        const int src = r | mask;
        if (src < p) {
          const std::vector<std::byte> incoming = comm_.recv<std::byte>(src, tag);
          combine_all(buffer_.data(), incoming, /*incoming_left=*/false);
        }
      } else {
        const int dst = r & ~mask;
        comm_.send<std::byte>(dst, tag, std::span<const std::byte>(buffer_));
        break;
      }
      mask <<= 1;
    }
  }
  {  // broadcast from rank 0
    const std::int64_t tag = comm_.next_collective_tag();
    int mask = 1;
    while (mask < p) {
      if (r & mask) {
        const std::vector<std::byte> incoming =
            comm_.recv<std::byte>(r - mask, tag);
        if (incoming.size() != buffer_.size()) {
          throw std::logic_error("CollectiveBatch: bad broadcast size");
        }
        // Copied in, not assigned: buffer_ keeps the capacity reset()
        // promises to keep.
        if (!incoming.empty()) {
          std::memcpy(buffer_.data(), incoming.data(), incoming.size());
        }
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if ((r & (mask - 1)) == 0 && (r | mask) != r && r + mask < p) {
        comm_.send<std::byte>(r + mask, tag, std::span<const std::byte>(buffer_));
      }
      mask >>= 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Rooted reduce: the paper's coordinator scheme as one round. Every rank
// packs, per distinct root, its contributions to that root's segments and
// sends them directly; each root folds the p-1 incoming packs into its own
// segments. Replaces one binomial reduce per categorical attribute with a
// single direct exchange carrying all matrices at once.
// ---------------------------------------------------------------------------

void CollectiveBatch::reduce_rooted() {
  if (segments_.empty()) return;
  Comm::OpScope scope(comm_, CommOp::kReduce);
  const int p = comm_.size();
  const int r = comm_.rank();
  if (p == 1) return;
  const std::int64_t tag = comm_.next_collective_tag();

  for (int dst = 0; dst < p; ++dst) {
    if (dst == r || !owns_any(dst)) continue;
    pack_rooted(dst);
    // The pack is dead after the send: hand the buffer to the mailbox.
    comm_.send<std::byte>(dst, tag, std::move(pack_));
  }
  if (!owns_any(r)) return;
  for (int src = 0; src < p; ++src) {
    if (src == r) continue;
    const std::vector<std::byte> incoming = comm_.recv<std::byte>(src, tag);
    std::size_t cursor = 0;
    for (const Segment& seg : segments_) {
      if (seg.root != r) continue;
      if (cursor + seg.bytes > incoming.size()) {
        throw std::logic_error(
            "CollectiveBatch: rooted pack shorter than the directory");
      }
      seg.combine(buffer_.data() + seg.offset, incoming.data() + cursor,
                  seg.bytes, /*incoming_left=*/false);
      cursor += seg.bytes;
    }
    if (cursor != incoming.size()) {
      throw std::logic_error(
          "CollectiveBatch: rooted pack longer than the directory");
    }
  }
}

// ---------------------------------------------------------------------------
// Rooted broadcast: each root publishes its segments to every rank in one
// round (direct sends). Replaces one binomial bcast per winning categorical
// attribute with a single round carrying all value->child mappings.
// ---------------------------------------------------------------------------

void CollectiveBatch::bcast_rooted() {
  if (segments_.empty()) return;
  Comm::OpScope scope(comm_, CommOp::kBroadcast);
  const int p = comm_.size();
  const int r = comm_.rank();
  if (p == 1) return;
  const std::int64_t tag = comm_.next_collective_tag();

  if (owns_any(r)) {
    pack_rooted(r);
    for (int dst = 0; dst < p; ++dst) {
      if (dst == r) continue;
      comm_.send<std::byte>(dst, tag, std::span<const std::byte>(pack_));
    }
  }
  for (int src = 0; src < p; ++src) {
    if (src == r || !owns_any(src)) continue;
    const std::vector<std::byte> incoming = comm_.recv<std::byte>(src, tag);
    std::size_t cursor = 0;
    for (const Segment& seg : segments_) {
      if (seg.root != src) continue;
      if (cursor + seg.bytes > incoming.size()) {
        throw std::logic_error(
            "CollectiveBatch: rooted pack shorter than the directory");
      }
      if (seg.bytes > 0) {
        std::memcpy(buffer_.data() + seg.offset, incoming.data() + cursor,
                    seg.bytes);
      }
      cursor += seg.bytes;
    }
    if (cursor != incoming.size()) {
      throw std::logic_error(
          "CollectiveBatch: rooted pack longer than the directory");
    }
  }
}

}  // namespace scalparc::mp
