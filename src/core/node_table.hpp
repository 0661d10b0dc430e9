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

// Collective bulk update. `route(key)` returns the key's KeyRoute;
// `apply(span<const WireUpdate>)` runs at the owner once per sender's batch.
// When `block_limit` > 0, each rank sends at most that many updates per
// all-to-all round and every rank joins the globally maximal number of
// rounds; block_limit == 0 sends everything in one round.
template <mp::WireType V, typename Route, typename Apply>
void update(mp::Comm& comm, std::span<const HashUpdate<V>> updates,
            std::int64_t block_limit, const Route& route, const Apply& apply) {
  using Wire = decltype(route(std::int64_t{}).wire);
  if (block_limit < 0) {
    throw std::invalid_argument("parallel hashing update: bad block limit");
  }
  const auto round = [&](std::span<const HashUpdate<V>> batch) {
    std::vector<std::vector<WireUpdate<Wire, V>>> sendbufs(
        static_cast<std::size_t>(comm.size()));
    for (const HashUpdate<V>& u : batch) {
      const KeyRoute<Wire> r = route(u.key);
      sendbufs[static_cast<std::size_t>(r.owner)].push_back({r.wire, u.value});
    }
    comm.add_work(static_cast<double>(batch.size()));
    for (const auto& received : mp::alltoallv(comm, sendbufs)) {
      apply(std::span<const WireUpdate<Wire, V>>(received));
      comm.add_work(static_cast<double>(received.size()));
    }
  };
  if (block_limit == 0) {
    // One round; all ranks agree because block_limit is collective-uniform.
    round(updates);
    return;
  }
  const auto limit = static_cast<std::uint64_t>(block_limit);
  const std::uint64_t my_rounds =
      (updates.size() + limit - 1) / limit;  // 0 if updates empty
  const std::uint64_t rounds =
      mp::allreduce_value(comm, my_rounds, mp::MaxOp{});
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t begin = std::min<std::uint64_t>(r * limit, updates.size());
    const std::uint64_t end = std::min<std::uint64_t>(begin + limit, updates.size());
    round(updates.subspan(begin, end - begin));
  }
}

// Collective bulk enquiry: returns one R per key, ordered like `keys`.
// `lookup(span<const Wire> asked, span<R> answers)` runs at the owner once
// per sender's batch.
template <mp::WireType R, typename Route, typename Lookup>
std::vector<R> enquire(mp::Comm& comm, std::span<const std::int64_t> keys,
                       const Route& route, const Lookup& lookup) {
  using Wire = decltype(route(std::int64_t{}).wire);
  const auto p = static_cast<std::size_t>(comm.size());
  // What each owner should look up, in the order we encounter it;
  // `destination[i]` remembers where key i went so the answers can be read
  // back in order.
  std::vector<std::vector<Wire>> asked(p);
  std::vector<int> destination(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const KeyRoute<Wire> r = route(keys[i]);
    destination[i] = r.owner;
    asked[static_cast<std::size_t>(r.owner)].push_back(r.wire);
  }
  comm.add_work(static_cast<double>(keys.size()));

  const std::vector<std::vector<Wire>> to_answer = mp::alltoallv(comm, asked);
  std::vector<std::vector<R>> answers(p);
  for (std::size_t src = 0; src < p; ++src) {
    answers[src].resize(to_answer[src].size());
    lookup(std::span<const Wire>(to_answer[src]), std::span<R>(answers[src]));
    comm.add_work(static_cast<double>(to_answer[src].size()));
  }
  const std::vector<std::vector<R>> answered = mp::alltoallv(comm, answers);

  std::vector<std::size_t> cursor(p, 0);
  std::vector<R> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto dst = static_cast<std::size_t>(destination[i]);
    out.push_back(answered[dst][cursor[dst]++]);
  }
  return out;
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

  int owner_of(std::int64_t key) const {
    check_key(key);
    return block_ == 0 ? 0
                       : static_cast<int>(static_cast<std::uint64_t>(key) / block_);
  }
  std::uint64_t slot_of(std::int64_t key) const {
    check_key(key);
    return block_ == 0 ? 0 : static_cast<std::uint64_t>(key) % block_;
  }

  std::uint64_t local_size() const {
    const auto rank = static_cast<std::uint64_t>(comm_.rank());
    const std::uint64_t begin = rank * block_;
    if (begin >= num_keys_) return 0;
    return std::min(block_, num_keys_ - begin);
  }

  // Collective bulk update (hashing::update); `updates` may be empty on
  // some ranks.
  void update(std::span<const Update> updates, std::int64_t block_limit = 0) {
    const auto apply =
        [this](std::span<const hashing::WireUpdate<std::uint64_t, V>> batch) {
          hashing::for_each_prefetched(
              batch.size(), [&](std::size_t i) { prefetch_slot(batch[i].key); },
              [&](std::size_t i) {
                local_values_[checked_slot(batch[i].key)] = batch[i].value;
              });
        };
    hashing::update(comm_, updates, block_limit, router(), apply);
  }

  // Collective bulk enquiry: returns values ordered like `keys`.
  std::vector<V> enquire(std::span<const std::int64_t> keys) {
    const auto lookup = [this](std::span<const std::uint64_t> slots,
                               std::span<V> out) {
      hashing::for_each_prefetched(
          slots.size(), [&](std::size_t i) { prefetch_slot(slots[i]); },
          [&](std::size_t i) {
            out[i] = local_values_[checked_slot(slots[i])];
          });
    };
    return hashing::enquire<V>(comm_, keys, router(), lookup);
  }

 private:
  void check_key(std::int64_t key) const {
    if (key < 0 || static_cast<std::uint64_t>(key) >= num_keys_) {
      throw std::out_of_range("DistributedHashTable: key out of range");
    }
  }

  // A key travels as its owner-local slot.
  auto router() const {
    return [this](std::int64_t key) {
      return hashing::KeyRoute<std::uint64_t>{owner_of(key), slot_of(key)};
    };
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

  // Collective: child slots for `rids`, in order. Throws std::logic_error if
  // any rid was not updated in the current epoch (stale enquiry).
  std::vector<std::int32_t> enquire(std::span<const std::int64_t> rids);

  std::uint64_t block() const { return table_.block(); }

 private:
  DistributedHashTable<NodeTableEntry> table_;
  std::uint32_t epoch_ = 0;
};

}  // namespace scalparc::core
