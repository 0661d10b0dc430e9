// The parallel hashing paradigm (§3.3.1) and the distributed node table
// built on it (§3.3.2).
//
// The paradigm is two collective exchanges over a table whose slots are
// distributed over the ranks:
//   * bulk *update*: scatter (key, value) pairs to their owners with one
//     all-to-all personalized exchange per block round. Updates can be
//     blocked into rounds of at most `block` entries per rank so that
//     staging buffers never exceed O(N/p) memory — the mechanism that keeps
//     ScalParC memory-scalable even when one rank must send far more than
//     N/p updates;
//   * bulk *enquiry*: scatter keys, owners look up, a second all-to-all
//     returns the values in the caller's original key order.
// namespace hashing below writes both exchanges once; a table supplies only
// how a key is routed and how its owner applies or looks up a received
// batch.
//
// DistributedHashTable<V> is the collision-free instance: a table of
// `num_keys` values block-distributed with
//   h(key) = (key div B, key mod B),  B = ceil(num_keys / p).
// core/flat_hash.hpp is the arbitrary-key instance the paper's closing
// remark on collisions asks for.
//
// NodeTable specializes the table for ScalParC: the value is the child slot
// a record moves to in the current level, plus an epoch stamp so that an
// enquiry for a record that was not updated this level is detected as a
// protocol violation instead of silently returning stale data.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::core {

// One entry of a bulk update, as the caller names it.
template <mp::WireType V>
struct HashUpdate {
  std::int64_t key = 0;
  V value{};
};

namespace hashing {

// Where a key goes: its owner rank and the form it travels in (the dense
// table sends the owner-local slot, an arbitrary-key table the key itself).
template <mp::WireType Wire>
struct KeyRoute {
  int owner = 0;
  Wire wire{};
};

// An update as it travels to the owner: the key's wire form and the value.
template <mp::WireType Wire, mp::WireType V>
struct WireUpdate {
  Wire key{};
  V value{};
};

// The exchange buffers of one table: p chunks per kind of exchange, plus
// the enquiry's per-key owners. mp::alltoallv moves every chunk it sends to
// its receiver, and an exchange keeps the chunks it receives as the send
// buffers of its next exchange of the same kind. The chunks circulate
// between the ranks with their capacity, so once the first level has sized
// them an update round or an enquiry round trip allocates nothing
// record-sized.
template <mp::WireType Wire, mp::WireType V, mp::WireType R>
struct Buffers {
  std::vector<std::vector<WireUpdate<Wire, V>>> updates;
  std::vector<std::vector<Wire>> asked;
  std::vector<std::vector<R>> answers;
  std::vector<int> owner_of_key;
};

// Empties `chunks` into p send buffers, keeping every chunk's capacity.
template <typename T>
void recycle(std::vector<std::vector<T>>& chunks, std::size_t p) {
  chunks.resize(p);
  for (std::vector<T>& chunk : chunks) chunk.clear();
}

// Sizes an emptied chunk to `n` elements. One too small for `n` grows to half
// as much again: ranks ask each other slightly different numbers of keys, and
// the headroom lets a chunk serve either side of a pair next time.
template <typename T>
void resize_chunk(std::vector<T>& chunk, std::size_t n) {
  if (chunk.capacity() < n) chunk.reserve(n + n / 2);
  chunk.resize(n);
}

// Owner-side batch loops touch local slots in the senders' arrival order —
// effectively random — so each access is a likely cache miss. A table runs
// `visit(i)` over a received batch of `n` entries in groups of
// kPrefetchGroup, with `prefetch(i)` issuing the software prefetch for an
// entry of the next group while the current group executes.
inline constexpr std::size_t kPrefetchGroup = 8;
template <typename Prefetch, typename Visit>
void for_each_prefetched(std::size_t n, Prefetch prefetch, Visit visit) {
  for (std::size_t base = 0; base < n; base += kPrefetchGroup) {
    const std::size_t end = std::min(base + kPrefetchGroup, n);
    const std::size_t next_end = std::min(end + kPrefetchGroup, n);
    for (std::size_t i = end; i < next_end; ++i) prefetch(i);
    for (std::size_t i = base; i < end; ++i) visit(i);
  }
}

// Collective bulk update of the `n` entries entry(0), ..., entry(n - 1),
// each a HashUpdate<V>. `route(key)` returns the key's KeyRoute;
// `apply(span<const WireUpdate>)` runs at the owner once per sender's batch.
// When `block_limit` > 0, each rank sends at most that many updates per
// all-to-all round and every rank joins the globally maximal number of
// rounds; block_limit == 0 sends everything in one round.
template <typename Entry, typename Route, typename Apply, mp::WireType Wire,
          mp::WireType V, mp::WireType R>
void update(mp::Comm& comm, std::size_t n, const Entry& entry,
            std::int64_t block_limit, const Route& route, const Apply& apply,
            Buffers<Wire, V, R>& buffers) {
  if (block_limit < 0) {
    throw std::invalid_argument("parallel hashing update: bad block limit");
  }
  const auto p = static_cast<std::size_t>(comm.size());
  const auto round = [&](std::size_t begin, std::size_t end) {
    recycle(buffers.updates, p);
    for (std::size_t i = begin; i < end; ++i) {
      const HashUpdate<V> u = entry(i);
      const KeyRoute<Wire> r = route(u.key);
      buffers.updates[static_cast<std::size_t>(r.owner)].push_back(
          {r.wire, u.value});
    }
    comm.add_work(static_cast<double>(end - begin));
    buffers.updates = mp::alltoallv(comm, std::move(buffers.updates));
    for (const std::vector<WireUpdate<Wire, V>>& received : buffers.updates) {
      apply(std::span<const WireUpdate<Wire, V>>(received));
      comm.add_work(static_cast<double>(received.size()));
    }
  };
  if (block_limit == 0) {
    // One round; all ranks agree because block_limit is collective-uniform.
    round(0, n);
    return;
  }
  const auto limit = static_cast<std::uint64_t>(block_limit);
  const std::uint64_t my_rounds = (n + limit - 1) / limit;  // 0 if n == 0
  const std::uint64_t rounds =
      mp::allreduce_value(comm, my_rounds, mp::MaxOp{});
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t begin = std::min<std::uint64_t>(r * limit, n);
    const std::uint64_t end = std::min<std::uint64_t>(begin + limit, n);
    round(begin, end);
  }
}

// Collective bulk enquiry: calls `emit(i, answer)` for every key, in the
// order of `keys`. `lookup(span<const Wire> asked, span<R> answers)` runs at
// the owner once per sender's batch.
template <typename Route, typename Lookup, typename Emit, mp::WireType Wire,
          mp::WireType V, mp::WireType R>
void enquire(mp::Comm& comm, std::span<const std::int64_t> keys,
             const Route& route, const Lookup& lookup,
             Buffers<Wire, V, R>& buffers, const Emit& emit) {
  const auto p = static_cast<std::size_t>(comm.size());
  // What each owner should look up, in the order we encounter it;
  // `owner_of_key[i]` remembers where key i went so the answers can be read
  // back in order.
  recycle(buffers.asked, p);
  buffers.owner_of_key.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const KeyRoute<Wire> r = route(keys[i]);
    buffers.owner_of_key[i] = r.owner;
    buffers.asked[static_cast<std::size_t>(r.owner)].push_back(r.wire);
  }
  comm.add_work(static_cast<double>(keys.size()));

  buffers.asked = mp::alltoallv(comm, std::move(buffers.asked));
  recycle(buffers.answers, p);
  for (std::size_t src = 0; src < p; ++src) {
    const std::vector<Wire>& asked = buffers.asked[src];
    std::vector<R>& answers = buffers.answers[src];
    resize_chunk(answers, asked.size());
    lookup(std::span<const Wire>(asked), std::span<R>(answers));
    comm.add_work(static_cast<double>(asked.size()));
  }
  buffers.answers = mp::alltoallv(comm, std::move(buffers.answers));

  std::vector<std::size_t> cursor(p, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto owner = static_cast<std::size_t>(buffers.owner_of_key[i]);
    emit(i, buffers.answers[owner][cursor[owner]++]);
  }
}

}  // namespace hashing

template <mp::WireType V>
class DistributedHashTable {
 public:
  using Update = HashUpdate<V>;

  // Collective: all ranks construct with identical arguments.
  DistributedHashTable(mp::Comm& comm, std::uint64_t num_keys, V initial)
      : comm_(comm),
        num_keys_(num_keys),
        block_((num_keys + static_cast<std::uint64_t>(comm.size()) - 1) /
               static_cast<std::uint64_t>(comm.size())) {
    // Last rank may own fewer (or zero) live slots; allocate the full block
    // everywhere for the collision-free index arithmetic.
    const std::uint64_t local = local_size();
    local_values_.assign(local, initial);
    mem_ = util::ScopedAllocation(comm.meter(), util::MemCategory::kNodeTable,
                                  local * sizeof(V));
  }

  std::uint64_t block() const { return block_; }

  int owner_of(std::int64_t key) const { return route(key).owner; }
  std::uint64_t slot_of(std::int64_t key) const { return route(key).wire; }

  std::uint64_t local_size() const {
    const auto rank = static_cast<std::uint64_t>(comm_.rank());
    const std::uint64_t begin = rank * block_;
    if (begin >= num_keys_) return 0;
    return std::min(block_, num_keys_ - begin);
  }

  // Collective bulk update (hashing::update) of entry(0), ..., entry(n - 1);
  // `n` may be 0 on some ranks.
  template <typename Entry>
  void update(std::size_t n, const Entry& entry, std::int64_t block_limit) {
    const auto apply =
        [this](std::span<const hashing::WireUpdate<std::uint64_t, V>> batch) {
          hashing::for_each_prefetched(
              batch.size(), [&](std::size_t i) { prefetch_slot(batch[i].key); },
              [&](std::size_t i) {
                local_values_[checked_slot(batch[i].key)] = batch[i].value;
              });
        };
    hashing::update(comm_, n, entry, block_limit, router(), apply, buffers_);
  }
  void update(std::span<const Update> updates, std::int64_t block_limit = 0) {
    update(updates.size(), [updates](std::size_t i) { return updates[i]; },
           block_limit);
  }

  // Collective bulk enquiry (hashing::enquire): calls emit(i, value) for
  // every key, in the order of `keys`.
  template <typename Emit>
  void enquire(std::span<const std::int64_t> keys, const Emit& emit) {
    const auto lookup = [this](std::span<const std::uint64_t> slots,
                               std::span<V> out) {
      hashing::for_each_prefetched(
          slots.size(), [&](std::size_t i) { prefetch_slot(slots[i]); },
          [&](std::size_t i) {
            out[i] = local_values_[checked_slot(slots[i])];
          });
    };
    hashing::enquire(comm_, keys, router(), lookup, buffers_, emit);
  }
  // Collective bulk enquiry: returns values ordered like `keys`.
  std::vector<V> enquire(std::span<const std::int64_t> keys) {
    std::vector<V> out(keys.size());
    enquire(keys, [&out](std::size_t i, const V& value) { out[i] = value; });
    return out;
  }

 private:
  // A key travels as its owner-local slot: one range check, one division.
  hashing::KeyRoute<std::uint64_t> route(std::int64_t key) const {
    const auto k = static_cast<std::uint64_t>(key);
    if (k >= num_keys_) {
      throw std::out_of_range("DistributedHashTable: key out of range");
    }
    const std::uint64_t owner = k / block_;
    return {static_cast<int>(owner), k - owner * block_};
  }

  auto router() const {
    return [this](std::int64_t key) { return route(key); };
  }

  std::uint64_t checked_slot(std::uint64_t slot) const {
    if (slot >= local_values_.size()) {
      throw std::logic_error("DistributedHashTable: slot out of range");
    }
    return slot;
  }

  void prefetch_slot(std::uint64_t slot) const {
#if defined(__GNUC__) || defined(__clang__)
    if (slot < local_values_.size()) {
      __builtin_prefetch(local_values_.data() + slot, 0, 1);
    }
#else
    (void)slot;
#endif
  }

  mp::Comm& comm_;
  std::uint64_t num_keys_;
  std::uint64_t block_;
  std::vector<V> local_values_;
  util::ScopedAllocation mem_;
  hashing::Buffers<std::uint64_t, V, V> buffers_;
};

// ---------------------------------------------------------------------------

struct NodeTableEntry {
  std::int32_t child = -1;
  std::uint32_t epoch = 0;
};

class NodeTable {
 public:
  NodeTable(mp::Comm& comm, std::uint64_t num_records)
      : table_(comm, num_records, NodeTableEntry{}) {}

  // Starts a new induction level; collective only by convention (no
  // communication happens here).
  void begin_level() { ++epoch_; }

  // Collective: scatter this level's (rid -> child slot) assignments.
  void update(std::span<const std::int64_t> rids,
              std::span<const std::int32_t> children,
              std::int64_t block_limit);

  // Collective: writes the child slot of rids[i] to children[i]. Throws
  // std::logic_error if any rid was not updated in the current epoch (stale
  // enquiry).
  void enquire(std::span<const std::int64_t> rids,
               std::span<std::int32_t> children);

  std::uint64_t block() const { return table_.block(); }

 private:
  DistributedHashTable<NodeTableEntry> table_;
  std::uint32_t epoch_ = 0;
};

}  // namespace scalparc::core
