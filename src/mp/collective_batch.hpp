// Fused collectives: pack many heterogeneous contributions into one buffer
// and run them as a single communication round.
//
// ScalParC's split determination issues, per tree level, one exscan per
// continuous attribute list for its count matrices, a second for its segment
// boundaries, and one reduce (or allreduce) per categorical list — so the
// latency term of the cost model scales with the number of attributes
// instead of the tree depth. A CollectiveBatch restores the per-*level*
// communication structure the paper argues for (§3): every contribution is
// appended to a packed byte buffer with an offset directory, and the whole
// buffer moves through ONE collective whose combine step dispatches
// per-segment (each segment remembers its element type's combine functor).
//
// Supported rounds (all SPMD: every rank must add identical directories —
// same segment order, element types, sizes and roots — then call the same
// round):
//   exscan()         distance doubling over the packed buffer; every
//                    segment receives its element-wise exclusive prefix
//   allreduce()      binomial reduce to rank 0 + binomial broadcast
//   reduce_rooted()  each segment is reduced to its own root rank by a
//                    direct exchange (every rank sends one packed message
//                    per distinct root); only the root's view is defined
//   bcast_rooted()   each segment is published by its root to all ranks
//
// Segments may be empty. reset() clears the directory but keeps buffer
// capacity so a batch can be reused across tree levels without
// reallocating. Combine functors must be stateless (empty class) so they
// can be re-instantiated inside the type-erased dispatch thunk.
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
  explicit CollectiveBatch(Comm& comm) : comm_(comm) {}

  CollectiveBatch(const CollectiveBatch&) = delete;
  CollectiveBatch& operator=(const CollectiveBatch&) = delete;

  // Appends `local` as a new segment; returns its id (position in the
  // directory). `identity` seeds the exclusive prefix of exscan(); `root`
  // names the owning rank for reduce_rooted()/bcast_rooted() and is ignored
  // by exscan()/allreduce().
  template <WireType T, typename Combine>
  std::size_t add(std::span<const T> local, Combine, const T& identity = T{},
                  int root = 0) {
    static_assert(std::is_empty_v<Combine> &&
                      std::is_default_constructible_v<Combine>,
                  "CollectiveBatch combine functors must be stateless");
    static_assert(sizeof(T) <= kMaxElemSize,
                  "CollectiveBatch element type too large");
    if (root < 0 || root >= comm_.size()) {
      throw std::invalid_argument("CollectiveBatch::add: bad root");
    }
    Segment seg;
    // Pad every segment start to a max_align_t boundary so typed views of
    // the packed buffer are always aligned.
    seg.offset = aligned_size(buffer_.size());
    seg.bytes = local.size_bytes();
    seg.elem_size = sizeof(T);
    seg.root = root;
    seg.combine = &combine_thunk<T, Combine>;
    std::memcpy(seg.identity, &identity, sizeof(T));
    buffer_.resize(seg.offset);  // zeroes only the alignment padding
    if (seg.bytes > 0) {
      const auto* bytes = reinterpret_cast<const std::byte*>(local.data());
      buffer_.insert(buffer_.end(), bytes, bytes + seg.bytes);
    }
    segments_.push_back(seg);
    return segments_.size() - 1;
  }

  std::size_t num_segments() const { return segments_.size(); }
  // Total packed payload bytes (one collective moves all of it at once).
  std::size_t packed_bytes() const { return buffer_.size(); }

  // --- rounds (each is one collective operation in mp::Stats) -------------
  void exscan();
  void allreduce();
  void reduce_rooted();
  void bcast_rooted();

  // Typed view of a segment's current contents (the result after a round).
  // After reduce_rooted() only the segment's root holds the reduced value.
  template <WireType T>
  std::span<const T> view(std::size_t segment) const {
    const Segment& seg = segments_.at(segment);
    if (seg.elem_size != sizeof(T)) {
      throw std::invalid_argument("CollectiveBatch::view: element size mismatch");
    }
    return {reinterpret_cast<const T*>(buffer_.data() + seg.offset),
            seg.bytes / sizeof(T)};
  }

  // Copies a segment's contents out (survives reset()).
  template <WireType T>
  std::vector<T> take(std::size_t segment) const {
    const std::span<const T> v = view<T>(segment);
    return std::vector<T>(v.begin(), v.end());
  }

  // Clears the directory for the next round, keeping buffer capacity.
  void reset() {
    segments_.clear();
    buffer_.clear();
  }

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
    std::size_t offset = 0;
    std::size_t bytes = 0;
    std::size_t elem_size = 0;
    int root = 0;
    CombineFn combine = nullptr;
    std::byte identity[kMaxElemSize] = {};
  };

  static std::size_t aligned_size(std::size_t n) {
    constexpr std::size_t a = alignof(std::max_align_t);
    return (n + a - 1) / a * a;
  }

  // Folds `incoming` (a peer's packed buffer, identical layout) into `dst`.
  void combine_all(std::byte* dst, std::span<const std::byte> incoming,
                   bool incoming_left) const;
  // Packs the segments owned by `root` into `pack_` (directory order),
  // sized once from the directory.
  void pack_rooted(int root);
  bool owns_any(int root) const;

  Comm& comm_;
  std::vector<Segment> segments_;
  std::vector<std::byte> buffer_;
  std::vector<std::byte> exclusive_;  // exscan scratch, reused across calls
  std::vector<std::byte> pack_;       // rooted-round scratch
};

}  // namespace scalparc::mp
