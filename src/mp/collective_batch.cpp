#include "mp/collective_batch.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace scalparc::mp {

CollectiveBatch::CollectiveBatch(Comm& comm)
    : comm_(comm), packs_(static_cast<std::size_t>(comm.size())) {}

void CollectiveBatch::reset() {
  segments_.clear();
  rooted_ = false;
  reduced_ = false;
  packed_bytes_ = 0;
  filled_segments_ = 0;
  buffer_.clear();
  for (Pack& pack : packs_) {
    pack.size = 0;
    pack.filled = 0;
    pack.segments = 0;
  }
}

void CollectiveBatch::check_defined(const Segment& seg, std::size_t id) const {
  if (id >= filled_segments_) {
    throw std::logic_error(
        "CollectiveBatch: segment read before it has storage");
  }
  if (reduced_ && seg.root != comm_.rank()) {
    throw std::logic_error(
        "CollectiveBatch: after reduce_rooted() only this rank's own "
        "segments are defined");
  }
}

void CollectiveBatch::fill() {
  if (filled_segments_ == segments_.size()) return;
  if (rooted_) {
    // A pack that outgrows its buffer is reallocated at the widest pack's
    // size, so a buffer recycled to any peer fits its next pack too.
    std::size_t widest = 0;
    for (const Pack& pack : packs_) widest = std::max(widest, pack.size);
    for (Pack& pack : packs_) {
      if (pack.size == pack.filled) continue;
      if (pack.size > pack.bytes.capacity()) {
        pack.bytes.resize(pack.filled);  // carry over only what is filled
        pack.bytes.reserve(widest);
      }
      pack.bytes.resize(pack.size);
      pack.filled = pack.size;
    }
  } else {
    // Zeroes the padding between segments along with the new bytes.
    buffer_.resize(segments_[filled_segments_].offset);
    buffer_.resize(packed_bytes_);
  }
  for (; filled_segments_ < segments_.size(); ++filled_segments_) {
    const Segment& seg = segments_[filled_segments_];
    fill_identity(storage(seg) + seg.offset, seg);
  }
}

// By doubling copies: one element, then ever larger copies of what is
// already filled.
void CollectiveBatch::fill_identity(std::byte* dst, const Segment& seg) {
  if (seg.bytes == 0) return;
  std::memcpy(dst, seg.identity, seg.elem_size);
  for (std::size_t done = seg.elem_size; done < seg.bytes;) {
    const std::size_t chunk = std::min(done, seg.bytes - done);
    std::memcpy(dst + done, dst, chunk);
    done += chunk;
  }
}

void CollectiveBatch::require(bool rooted, const char* round) const {
  if (rooted_ != rooted) {
    throw std::logic_error(std::string("CollectiveBatch::") + round +
                           (rooted ? ": needs rooted segments"
                                   : ": needs flat segments"));
  }
}

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

// ---------------------------------------------------------------------------
// Exclusive scan: distance doubling over the whole packed buffer. One
// message per rank per round, log2(p) rounds — independent of how many
// segments ride in the batch.
// ---------------------------------------------------------------------------

void CollectiveBatch::exscan() {
  if (segments_.empty()) return;
  require(false, "exscan");
  fill();
  Comm::OpScope scope(comm_, CommOp::kScan);
  const int p = comm_.size();
  const int r = comm_.rank();

  // The exclusive result starts as each segment's identity, replicated.
  exclusive_.assign(buffer_.size(), std::byte{0});
  for (const Segment& seg : segments_) {
    fill_identity(exclusive_.data() + seg.offset, seg);
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
  require(false, "allreduce");
  fill();
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
// moves its pack for each root to that root; each root folds the p-1
// incoming packs into its own pack in place. Replaces one binomial reduce
// per categorical attribute with a single direct exchange carrying all
// matrices at once. A received pack's buffer stays behind as this rank's
// pack for that peer, so the next directory fills it instead of
// allocating; Payload::take copies if the transport still shares the
// buffer, so the reuse is safe.
// ---------------------------------------------------------------------------

void CollectiveBatch::reduce_rooted() {
  if (segments_.empty()) return;
  require(true, "reduce_rooted");
  fill();
  Comm::OpScope scope(comm_, CommOp::kReduce);
  const int p = comm_.size();
  const int r = comm_.rank();
  if (p == 1) return;
  const std::int64_t tag = comm_.next_collective_tag();

  for (int dst = 0; dst < p; ++dst) {
    Pack& pack = packs_[static_cast<std::size_t>(dst)];
    if (dst == r || pack.segments == 0) continue;
    comm_.send<std::byte>(dst, tag, std::move(pack.bytes));
  }
  reduced_ = true;
  std::vector<std::byte>& own = packs_[static_cast<std::size_t>(r)].bytes;
  if (packs_[static_cast<std::size_t>(r)].segments == 0) return;
  for (int src = 0; src < p; ++src) {
    if (src == r) continue;
    std::vector<std::byte>& incoming =
        packs_[static_cast<std::size_t>(src)].bytes;
    incoming = comm_.recv<std::byte>(src, tag);
    if (incoming.size() != own.size()) {
      throw std::logic_error(
          "CollectiveBatch: rooted pack differs in size from the directory");
    }
    for (const Segment& seg : segments_) {
      if (seg.root != r) continue;
      seg.combine(own.data() + seg.offset, incoming.data() + seg.offset,
                  seg.bytes, /*incoming_left=*/false);
    }
  }
}

// ---------------------------------------------------------------------------
// Rooted broadcast: each root publishes its pack to every rank in one round
// (direct sends). Replaces one binomial bcast per winning categorical
// attribute with a single round carrying all value->child mappings.
// ---------------------------------------------------------------------------

void CollectiveBatch::bcast_rooted() {
  if (segments_.empty()) return;
  require(true, "bcast_rooted");
  fill();
  Comm::OpScope scope(comm_, CommOp::kBroadcast);
  const int p = comm_.size();
  const int r = comm_.rank();
  if (p == 1) return;
  const std::int64_t tag = comm_.next_collective_tag();

  const Pack& own = packs_[static_cast<std::size_t>(r)];
  if (own.segments > 0) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == r) continue;
      comm_.send<std::byte>(dst, tag, std::span<const std::byte>(own.bytes));
    }
  }
  for (int src = 0; src < p; ++src) {
    Pack& pack = packs_[static_cast<std::size_t>(src)];
    if (src == r || pack.segments == 0) continue;
    pack.bytes = comm_.recv<std::byte>(src, tag);
    if (pack.bytes.size() != pack.size) {
      throw std::logic_error(
          "CollectiveBatch: rooted pack differs in size from the directory");
    }
  }
}

}  // namespace scalparc::mp
