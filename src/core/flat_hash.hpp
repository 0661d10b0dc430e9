// Distributed hash table for arbitrary keys (§3.3.1, closing remark).
//
// The node table's hash is collision-free because record ids densely cover
// [0, N). The paper notes the paradigm "can also support collisions by
// implementing open chaining at the indices l of the local hash tables" —
// which is what makes it reusable for algorithms whose keys are arbitrary.
// DistributedFlatHashTable takes arbitrary 64-bit keys: a fixed number of
// buckets block-distributed over the ranks fixes each key's owner, and the
// update/enquiry exchanges are the paradigm's own (hashing:: in
// core/node_table.hpp), with the key itself as the wire form. Only the
// owner-side storage differs, laid out for the memory system instead of as
// chains:
//
//   * one flat open-addressing slot array per rank — probing is pointer-free
//     linear scanning within a cache line instead of chasing a heap
//     allocation per bucket;
//   * incoming update/enquiry batches are processed in groups of
//     hashing::kPrefetchGroup: the home slots of the next group are
//     software-prefetched while the current group probes, hiding the
//     (random) first-touch miss that dominates hash table throughput at
//     scale.
//
// Update semantics: insert-or-assign (last writer in arrival order wins for
// duplicate keys in the same round). Enquiry returns a found flag per key.
// The local table grows by doubling at 70% load, so bulk updates stay O(1)
// amortized per key regardless of the constructor's bucket hint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/node_table.hpp"
#include "mp/comm.hpp"
#include "mp/metrics.hpp"
#include "util/memory_meter.hpp"

namespace scalparc::core {

// 64-bit finalizer (SplitMix64's mixer): scatters arbitrary keys uniformly
// over the bucket space.
constexpr std::uint64_t mix_key(std::uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBULL;
  key ^= key >> 31;
  return key;
}

template <mp::WireType V>
class DistributedFlatHashTable {
 public:
  using Update = HashUpdate<V>;
  struct Lookup {
    V value{};
    bool found = false;
  };

  // Collective; all ranks must pass identical arguments. `num_buckets` fixes
  // the key->owner mapping and seeds the local capacity; the local table
  // rehashes independently as it fills.
  DistributedFlatHashTable(mp::Comm& comm, std::uint64_t num_buckets)
      : comm_(comm), num_buckets_(num_buckets) {
    if (num_buckets == 0) {
      throw std::invalid_argument(
          "DistributedFlatHashTable: need at least one bucket");
    }
    block_ = (num_buckets + static_cast<std::uint64_t>(comm.size()) - 1) /
             static_cast<std::uint64_t>(comm.size());
    std::size_t capacity = 16;
    while (capacity < block_ && capacity < (std::size_t{1} << 20)) capacity *= 2;
    slots_.resize(capacity);
    full_.assign(capacity, 0);
    mem_ = util::ScopedAllocation(comm.meter(), util::MemCategory::kNodeTable,
                                  capacity * (sizeof(Slot) + 1));
  }

  ~DistributedFlatHashTable() { publish_metrics(); }
  DistributedFlatHashTable(const DistributedFlatHashTable&) = delete;
  DistributedFlatHashTable& operator=(const DistributedFlatHashTable&) =
      delete;

  int owner_of(std::int64_t key) const {
    const std::uint64_t bucket =
        mix_key(static_cast<std::uint64_t>(key)) % num_buckets_;
    return static_cast<int>(bucket / block_);
  }

  std::size_t local_entries() const { return size_; }
  std::size_t local_capacity() const { return slots_.size(); }

  // Collective bulk insert-or-assign, blocked like the node table's update.
  void update(std::span<const Update> updates, std::int64_t block_limit = 0) {
    // insert_or_assign may rehash mid-group, which wastes the prefetches
    // but not correctness; rehashes are O(log n) per table lifetime.
    const auto apply =
        [this](std::span<const hashing::WireUpdate<std::int64_t, V>> batch) {
          hashing::for_each_prefetched(
              batch.size(), [&](std::size_t i) { prefetch_home(batch[i].key); },
              [&](std::size_t i) {
                insert_or_assign(batch[i].key, batch[i].value);
              });
        };
    hashing::update(
        comm_, updates.size(), [updates](std::size_t i) { return updates[i]; },
        block_limit, router(), apply, buffers_);
  }

  // Collective bulk lookup; results ordered like `keys`.
  std::vector<Lookup> enquire(std::span<const std::int64_t> keys) {
    const auto lookup = [this](std::span<const std::int64_t> asked,
                               std::span<Lookup> out) {
      hashing::for_each_prefetched(
          asked.size(), [&](std::size_t i) { prefetch_home(asked[i]); },
          [&](std::size_t i) { out[i] = probe(asked[i]); });
    };
    std::vector<Lookup> found(keys.size());
    hashing::enquire(comm_, keys, router(), lookup, buffers_,
                     [&found](std::size_t i, const Lookup& answer) {
                       found[i] = answer;
                     });
    return found;
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    V value{};
  };

  // A key travels as itself: its owner needs the full key to probe.
  auto router() const {
    return [this](std::int64_t key) {
      return hashing::KeyRoute<std::int64_t>{owner_of(key), key};
    };
  }

  std::size_t home_of(std::int64_t key) const {
    return static_cast<std::size_t>(mix_key(static_cast<std::uint64_t>(key))) &
           (slots_.size() - 1);
  }

  void prefetch_home(std::int64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t home = home_of(key);
    __builtin_prefetch(slots_.data() + home, 0, 1);
    __builtin_prefetch(full_.data() + home, 0, 1);
#else
    (void)key;
#endif
  }

  Lookup probe(std::int64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t length = 1;
    ++lookups_;
    for (std::size_t s = home_of(key);; s = (s + 1) & mask, ++length) {
      if (!full_[s]) {
        probe_lengths_.observe(length);
        return Lookup{};
      }
      if (slots_[s].key == key) {
        probe_lengths_.observe(length);
        return Lookup{slots_[s].value, true};
      }
    }
  }

  void insert_or_assign(std::int64_t key, const V& value) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t length = 1;
    ++updates_;
    for (std::size_t s = home_of(key);; s = (s + 1) & mask, ++length) {
      if (!full_[s]) {
        full_[s] = 1;
        slots_[s] = Slot{key, value};
        ++size_;
        probe_lengths_.observe(length);
        return;
      }
      if (slots_[s].key == key) {
        slots_[s].value = value;
        probe_lengths_.observe(length);
        return;
      }
    }
  }

  // Doubles the slot array and re-places every live slot. A rehash move is
  // neither an update nor a probe, so the telemetry counters skip it.
  void grow() {
    ++grows_;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    const std::size_t capacity = old_slots.size() * 2;
    slots_.assign(capacity, Slot{});
    full_.assign(capacity, 0);
    mem_.resize(capacity * (sizeof(Slot) + 1));
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if (!old_full[s]) continue;
      std::size_t t = home_of(old_slots[s].key);
      while (full_[t]) t = (t + 1) & (capacity - 1);
      full_[t] = 1;
      slots_[t] = old_slots[s];
    }
  }

  // Flushes the table's probe telemetry into the calling rank's bound
  // metrics snapshot (no-op without one). Counters reset afterwards so a
  // second flush — e.g. destructor after an explicit call — adds nothing.
  void publish_metrics() {
    mp::MetricsSnapshot* sink = mp::metrics_sink();
    if (sink == nullptr) return;
    if (probe_lengths_.count > 0) {
      sink->merge_histogram("hash.probe_length", probe_lengths_);
    }
    if (lookups_ > 0) sink->add("hash.lookups", static_cast<double>(lookups_));
    if (updates_ > 0) sink->add("hash.updates", static_cast<double>(updates_));
    if (grows_ > 0) sink->add("hash.grows", static_cast<double>(grows_));
    if (lookups_ > 0 || updates_ > 0) {
      sink->gauge_max("hash.occupancy_pct",
                      100.0 * static_cast<double>(size_) /
                          static_cast<double>(slots_.size()));
      sink->gauge_max("hash.local_capacity",
                      static_cast<double>(slots_.size()));
    }
    probe_lengths_ = mp::Histogram{};
    lookups_ = updates_ = grows_ = 0;
  }

  mp::Comm& comm_;
  std::uint64_t num_buckets_;
  std::uint64_t block_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> full_;
  std::size_t size_ = 0;
  util::ScopedAllocation mem_;
  hashing::Buffers<std::int64_t, V, Lookup> buffers_;
  // Probe telemetry: lengths include the terminal slot, so a hit in the home
  // slot observes 1. `mutable` because enquire-side probing is const.
  mutable mp::Histogram probe_lengths_;
  mutable std::uint64_t lookups_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t grows_ = 0;
};

}  // namespace scalparc::core
