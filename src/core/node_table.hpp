// The parallel hashing paradigm (§3.3.1) and the distributed node table
// built on it (§3.3.2).
//
// DistributedHashTable<V> is a table of `num_keys` values block-distributed
// over the ranks with the paper's collision-free hash
//   h(key) = (key div B, key mod B),  B = ceil(num_keys / p),
// so every key travels to its owner as its owner-local slot. The paradigm is
// two collective exchanges over it:
//   * bulk *update*: scatter (slot, value) pairs to their owners with one
//     all-to-all personalized exchange per block round. Updates can be
//     blocked into rounds of at most `block` entries per rank so that
//     staging buffers never exceed O(N/p) memory — the mechanism that keeps
//     ScalParC memory-scalable even when one rank must send far more than
//     N/p updates;
//   * bulk *enquiry*: scatter slots, owners look up, a second all-to-all
//     returns the values in the caller's original key order.
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

template <mp::WireType V>
class DistributedHashTable {
 public:
  // One entry of a bulk update, as the caller names it.
  struct Update {
    std::int64_t key = 0;
    V value{};
  };

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

  int owner_of(std::int64_t key) const { return locate(key).owner; }
  std::uint64_t slot_of(std::int64_t key) const { return locate(key).slot; }

  std::uint64_t local_size() const {
    const auto rank = static_cast<std::uint64_t>(comm_.rank());
    const std::uint64_t begin = rank * block_;
    if (begin >= num_keys_) return 0;
    return std::min(block_, num_keys_ - begin);
  }

  // Collective bulk update of the `n` entries entry(0), ..., entry(n - 1),
  // each an Update; `n` may be 0 on some ranks. The owner applies each
  // sender's batch in order, so the later of two updates to one key from
  // one rank wins. When `block_limit` > 0, each rank sends at most that many
  // updates per all-to-all round and every rank joins the globally maximal
  // number of rounds; block_limit == 0 sends everything in one round.
  template <typename Entry>
  void update(std::size_t n, const Entry& entry, std::int64_t block_limit) {
    if (block_limit < 0) {
      throw std::invalid_argument("DistributedHashTable: bad block limit");
    }
    if (block_limit == 0) {
      // One round; all ranks agree because block_limit is collective-uniform.
      update_round(0, n, entry);
      return;
    }
    const auto limit = static_cast<std::uint64_t>(block_limit);
    const std::uint64_t my_rounds = (n + limit - 1) / limit;  // 0 if n == 0
    const std::uint64_t rounds =
        mp::allreduce_value(comm_, my_rounds, mp::MaxOp{});
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t begin = std::min<std::uint64_t>(r * limit, n);
      const std::uint64_t end = std::min<std::uint64_t>(begin + limit, n);
      update_round(begin, end, entry);
    }
  }
  void update(std::span<const Update> updates, std::int64_t block_limit = 0) {
    update(updates.size(), [updates](std::size_t i) { return updates[i]; },
           block_limit);
  }

  // Collective bulk enquiry: calls emit(i, value) for every key, in the
  // order of `keys`.
  template <typename Emit>
  void enquire(std::span<const std::int64_t> keys, const Emit& emit) {
    const auto p = static_cast<std::size_t>(comm_.size());
    // The slots each owner should look up, in the order we encounter them;
    // `owner_of_key_[i]` remembers where key i went so the answers can be
    // read back in order.
    recycle(asked_, p);
    owner_of_key_.resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Location at = locate(keys[i]);
      owner_of_key_[i] = at.owner;
      asked_[static_cast<std::size_t>(at.owner)].push_back(at.slot);
    }
    comm_.add_work(static_cast<double>(keys.size()));

    asked_ = mp::alltoallv(comm_, std::move(asked_));
    recycle(answers_, p);
    for (std::size_t src = 0; src < p; ++src) {
      const std::vector<std::uint64_t>& slots = asked_[src];
      std::vector<V>& answers = answers_[src];
      resize_chunk(answers, slots.size());
      for_each_prefetched(
          slots.size(), [&](std::size_t i) { return slots[i]; },
          [&](std::size_t i) {
            answers[i] = local_values_[checked_slot(slots[i])];
          });
      comm_.add_work(static_cast<double>(slots.size()));
    }
    answers_ = mp::alltoallv(comm_, std::move(answers_));

    std::vector<std::size_t> cursor(p, 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto owner = static_cast<std::size_t>(owner_of_key_[i]);
      emit(i, answers_[owner][cursor[owner]++]);
    }
  }
  // Collective bulk enquiry: returns values ordered like `keys`.
  std::vector<V> enquire(std::span<const std::int64_t> keys) {
    std::vector<V> out(keys.size());
    enquire(keys, [&out](std::size_t i, const V& value) { out[i] = value; });
    return out;
  }

 private:
  struct Location {
    int owner = 0;
    std::uint64_t slot = 0;
  };

  // An update as it travels to its owner.
  struct WireUpdate {
    std::uint64_t slot = 0;
    V value{};
  };

  // One round of a bulk update: entries [begin, end) go to their owners.
  template <typename Entry>
  void update_round(std::size_t begin, std::size_t end, const Entry& entry) {
    recycle(updates_, static_cast<std::size_t>(comm_.size()));
    for (std::size_t i = begin; i < end; ++i) {
      const Update u = entry(i);
      const Location at = locate(u.key);
      updates_[static_cast<std::size_t>(at.owner)].push_back({at.slot, u.value});
    }
    comm_.add_work(static_cast<double>(end - begin));
    updates_ = mp::alltoallv(comm_, std::move(updates_));
    for (const std::vector<WireUpdate>& batch : updates_) {
      for_each_prefetched(
          batch.size(), [&](std::size_t i) { return batch[i].slot; },
          [&](std::size_t i) {
            local_values_[checked_slot(batch[i].slot)] = batch[i].value;
          });
      comm_.add_work(static_cast<double>(batch.size()));
    }
  }

  // A key's owner and owner-local slot: one range check, one division.
  Location locate(std::int64_t key) const {
    const auto k = static_cast<std::uint64_t>(key);
    if (k >= num_keys_) {
      throw std::out_of_range("DistributedHashTable: key out of range");
    }
    const std::uint64_t owner = k / block_;
    return {static_cast<int>(owner), k - owner * block_};
  }

  std::uint64_t checked_slot(std::uint64_t slot) const {
    if (slot >= local_values_.size()) {
      throw std::logic_error("DistributedHashTable: slot out of range");
    }
    return slot;
  }

  // Owner-side loops touch local slots in the senders' arrival order —
  // effectively random — so each access is a likely cache miss. visit(i)
  // runs over a received batch of `n` entries in groups of kPrefetchGroup,
  // and the value at slot(i) of each entry of the next group is prefetched
  // while the current group executes.
  static constexpr std::size_t kPrefetchGroup = 8;
  template <typename Slot, typename Visit>
  void for_each_prefetched(std::size_t n, const Slot& slot,
                           const Visit& visit) const {
    for (std::size_t base = 0; base < n; base += kPrefetchGroup) {
      const std::size_t end = std::min(base + kPrefetchGroup, n);
      const std::size_t next_end = std::min(end + kPrefetchGroup, n);
      for (std::size_t i = end; i < next_end; ++i) prefetch_slot(slot(i));
      for (std::size_t i = base; i < end; ++i) visit(i);
    }
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

  // Empties `chunks` into p send buffers, keeping every chunk's capacity.
  template <typename T>
  static void recycle(std::vector<std::vector<T>>& chunks, std::size_t p) {
    chunks.resize(p);
    for (std::vector<T>& chunk : chunks) chunk.clear();
  }

  // Sizes an emptied chunk to `n` elements. One too small for `n` grows to
  // half as much again: ranks ask each other slightly different numbers of
  // keys, and the headroom lets a chunk serve either side of a pair next
  // time.
  template <typename T>
  static void resize_chunk(std::vector<T>& chunk, std::size_t n) {
    if (chunk.capacity() < n) chunk.reserve(n + n / 2);
    chunk.resize(n);
  }

  mp::Comm& comm_;
  std::uint64_t num_keys_;
  std::uint64_t block_;
  std::vector<V> local_values_;
  util::ScopedAllocation mem_;
  // The exchange buffers: p chunks per kind of exchange, plus the enquiry's
  // per-key owners. mp::alltoallv moves every chunk it sends to its
  // receiver, and an exchange keeps the chunks it receives as the send
  // buffers of its next exchange of the same kind. The chunks circulate
  // between the ranks with their capacity, so once the first level has
  // sized them an update round or an enquiry round trip allocates nothing
  // record-sized.
  std::vector<std::vector<WireUpdate>> updates_;
  std::vector<std::vector<std::uint64_t>> asked_;
  std::vector<std::vector<V>> answers_;
  std::vector<int> owner_of_key_;
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
