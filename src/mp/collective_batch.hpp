// Fused collectives: pack many heterogeneous contributions into one buffer
// and run them as a single communication round.
//
// ScalParC's split determination issues, per tree level, one exscan per
// continuous attribute list for its count matrices, a second for its segment
// boundaries, and one reduce (or allreduce) per categorical list — so the
// latency term of the cost model scales with the number of attributes
// instead of the tree depth. A CollectiveBatch restores the per-*level*
// communication structure the paper argues for (§3): every contribution is
// a segment of a packed byte buffer with an offset directory, and the whole
// buffer moves through ONE collective whose combine step dispatches
// per-segment (each segment remembers its element type's combine functor).
//
// A directory holds one of two kinds of segment, which decides where the
// bytes live:
//   flat     (no root)  one packed buffer, every segment start padded to a
//                       max_align_t boundary; exscan() and allreduce() move
//                       the whole buffer
//   rooted   (a root)   one pack per root rank: this rank's contributions to
//                       that root's segments back to back in directory order,
//                       byte for byte the message the root receives
//
// Supported rounds (all SPMD: every rank must add identical directories —
// same segment order, element types, sizes and roots — then call the same
// round):
//   exscan()         flat; distance doubling over the packed buffer; every
//                    segment receives its element-wise exclusive prefix
//   allreduce()      flat; binomial reduce to rank 0 + binomial broadcast
//   reduce_rooted()  rooted; each pack is moved to its root, which combines
//                    the p-1 incoming packs into its own in place and keeps
//                    each as its send buffer for that peer in the next
//                    round; only the root's view is defined
//   bcast_rooted()   rooted; each root sends its pack to every rank
//
// Segments are filled either by copy (add) or in place (place, then
// segment()); storage is sized once for all segments placed since the last
// fill. Segments may be empty. reset() clears the directory but keeps every
// buffer's capacity, so a batch reused across tree levels stops allocating
// once the levels stop growing. Combine functors must be stateless (empty
// class) so they can be re-instantiated inside the type-erased dispatch
// thunk.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "mp/comm.hpp"

namespace scalparc::mp {

class CollectiveBatch {
 public:
  // The root of a flat segment.
  static constexpr int kFlat = -1;

  explicit CollectiveBatch(Comm& comm);

  CollectiveBatch(const CollectiveBatch&) = delete;
  CollectiveBatch& operator=(const CollectiveBatch&) = delete;

  // Appends a segment of `n` elements, filled with `identity` until the
  // caller writes it through segment(); returns its id (position in the
  // directory). `identity` also seeds the exclusive prefix of exscan().
  // `root` names the owning rank of a rooted segment, kFlat a flat one.
  template <WireType T, typename Combine>
  std::size_t place(std::size_t n, Combine, const T& identity = T{},
                    int root = kFlat) {
    static_assert(std::is_empty_v<Combine> &&
                      std::is_default_constructible_v<Combine>,
                  "CollectiveBatch combine functors must be stateless");
    static_assert(sizeof(T) <= kMaxElemSize,
                  "CollectiveBatch element type too large");
    if (root < kFlat || root >= comm_.size()) {
      throw std::invalid_argument("CollectiveBatch: bad root");
    }
    if (reduced_) {
      throw std::logic_error(
          "CollectiveBatch: reset() before adding to a reduced directory");
    }
    const bool rooted = root != kFlat;
    if (!segments_.empty() && rooted != rooted_) {
      throw std::logic_error(
          "CollectiveBatch: a directory holds flat or rooted segments, not "
          "both");
    }
    rooted_ = rooted;
    Segment seg;
    seg.bytes = n * sizeof(T);
    seg.elem_size = sizeof(T);
    seg.root = root;
    seg.combine = &combine_thunk<T, Combine>;
    std::memcpy(seg.identity, &identity, sizeof(T));
    if (rooted) {
      // Packs carry no padding (their bytes are the wire bytes), so a
      // typed view needs the segment to start aligned by itself.
      Pack& pack = packs_[static_cast<std::size_t>(root)];
      seg.offset = pack.size;
      if (seg.offset % alignof(T) != 0) {
        throw std::logic_error(
            "CollectiveBatch: rooted segment would start misaligned in its "
            "pack");
      }
      pack.size += seg.bytes;
      ++pack.segments;
    } else {
      seg.offset = aligned_size(packed_bytes_);
    }
    packed_bytes_ = aligned_size(packed_bytes_) + seg.bytes;
    segments_.push_back(seg);
    return segments_.size() - 1;
  }

  // place() plus a copy of `local` into the new segment.
  template <WireType T, typename Combine>
  std::size_t add(std::span<const T> local, Combine combine,
                  const T& identity = T{}, int root = kFlat) {
    const std::size_t id = place<T>(local.size(), combine, identity, root);
    if (!local.empty()) {
      std::memcpy(segment<T>(id).data(), local.data(), local.size_bytes());
    }
    return id;
  }

  std::size_t num_segments() const { return segments_.size(); }
  // Payload bytes of the directory as one packed buffer, segment starts
  // padded to max_align_t, whichever kind it holds.
  std::size_t packed_bytes() const { return packed_bytes_; }

  // --- rounds (each is one collective operation in mp::Stats) -------------
  void exscan();
  void allreduce();
  void reduce_rooted();
  void bcast_rooted();

  // Writable view of a segment, to fill it in place before a round. Valid
  // until the next place(), add(), round or reset().
  template <WireType T>
  std::span<T> segment(std::size_t id) {
    fill();
    const Segment& seg = defined<T>(id);
    return {reinterpret_cast<T*>(storage(seg) + seg.offset),
            seg.bytes / sizeof(T)};
  }

  // Typed view of a segment's current contents (the result after a round).
  // After reduce_rooted() only the segments rooted at this rank are defined.
  template <WireType T>
  std::span<const T> view(std::size_t id) const {
    const Segment& seg = defined<T>(id);
    return {reinterpret_cast<const T*>(storage(seg) + seg.offset),
            seg.bytes / sizeof(T)};
  }

  // Clears the directory for the next round, keeping every buffer's
  // capacity.
  void reset();

 private:
  static constexpr std::size_t kMaxElemSize = 64;

  // Element-wise combine over one segment's raw bytes. `incoming_left`
  // selects the argument order, acc = combine(incoming, acc) vs
  // combine(acc, incoming) — exscan folds the left neighbour in from the
  // left, which matters for non-commutative combines (e.g. "rightmost
  // non-empty wins" boundary propagation).
  using CombineFn = void (*)(std::byte* acc, const std::byte* incoming,
                             std::size_t bytes, bool incoming_left);

  template <WireType T, typename Combine>
  static void combine_thunk(std::byte* acc, const std::byte* incoming,
                            std::size_t bytes, bool incoming_left) {
    const Combine combine{};
    const std::size_t n = bytes / sizeof(T);
    for (std::size_t i = 0; i < n; ++i) {
      T a, b;
      std::memcpy(&a, acc + i * sizeof(T), sizeof(T));
      std::memcpy(&b, incoming + i * sizeof(T), sizeof(T));
      const T out = incoming_left ? combine(b, a) : combine(a, b);
      std::memcpy(acc + i * sizeof(T), &out, sizeof(T));
    }
  }

  struct Segment {
    std::size_t offset = 0;  // in the flat buffer or in its root's pack
    std::size_t bytes = 0;
    std::size_t elem_size = 0;
    int root = kFlat;
    CombineFn combine = nullptr;
    std::byte identity[kMaxElemSize] = {};
  };

  // One root's pack. `bytes` outlives the directory: after a rooted reduce
  // it holds the pack received from that peer, recycled as the next send
  // buffer to it.
  struct Pack {
    std::vector<std::byte> bytes;
    std::size_t size = 0;      // declared by the directory
    std::size_t filled = 0;    // prefix that has storage
    std::size_t segments = 0;  // segments rooted here (a pack may be empty)
  };

  static std::size_t aligned_size(std::size_t n) {
    constexpr std::size_t a = alignof(std::max_align_t);
    return (n + a - 1) / a * a;
  }

  template <WireType T>
  const Segment& defined(std::size_t id) const {
    const Segment& seg = segments_.at(id);
    if (seg.elem_size != sizeof(T)) {
      throw std::invalid_argument(
          "CollectiveBatch: segment element size mismatch");
    }
    check_defined(seg, id);
    return seg;
  }
  void check_defined(const Segment& seg, std::size_t id) const;
  std::byte* storage(const Segment& seg) {
    return seg.root == kFlat
               ? buffer_.data()
               : packs_[static_cast<std::size_t>(seg.root)].bytes.data();
  }
  const std::byte* storage(const Segment& seg) const {
    return seg.root == kFlat
               ? buffer_.data()
               : packs_[static_cast<std::size_t>(seg.root)].bytes.data();
  }

  // Gives every segment placed since the last call its storage, each buffer
  // sized once, and fills it with the segment's identity.
  void fill();
  static void fill_identity(std::byte* dst, const Segment& seg);
  void require(bool rooted, const char* round) const;
  // Folds `incoming` (a peer's packed buffer, identical layout) into `dst`.
  void combine_all(std::byte* dst, std::span<const std::byte> incoming,
                   bool incoming_left) const;

  Comm& comm_;
  std::vector<Segment> segments_;
  bool rooted_ = false;            // kind of the current directory
  bool reduced_ = false;           // reduce_rooted() ran on it
  std::size_t packed_bytes_ = 0;   // see packed_bytes()
  std::size_t filled_segments_ = 0;
  std::vector<std::byte> buffer_;  // flat storage
  std::vector<Pack> packs_;        // rooted storage, one per rank
  std::vector<std::byte> exclusive_;  // exscan scratch, reused across calls
};

}  // namespace scalparc::mp
