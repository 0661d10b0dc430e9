// Scalable parallel sample sort and the order-preserving parallel shift (the
// paper's Presort phase).
//
// ScalParC sorts every continuous attribute list exactly once, using "the
// scalable parallel sample sort algorithm followed by a parallel shift
// operation" (§4). Both steps are written once here, over a record plane
// (below), for two layouts: vectors of trivially copyable entries under a
// strict-weak-order comparator, and the ContinuousColumns every exact fit
// presorts, ordered by (value, rid).
//
// Sample sort:
//   1. sort locally;
//   2. pick p-1 regular samples per rank, gather them, choose p-1 global
//      splitters from the sorted sample set;
//   3. partition local data by the splitters and exchange with one
//      all-to-all personalized communication;
//   4. merge the received sorted runs.
//
// The shift then moves the rank-ordered result so that rank i holds exactly
// target_sizes[i] records, preserving global order. With equal targets it
// restores the equal-fragments layout the induction phases assume.
//
// The comparator must induce a total order for the exchange to be
// deterministic under duplicate keys; attribute lists use (value, rid).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "data/attribute_list.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "sort/partition_util.hpp"

namespace scalparc::sort {

namespace detail {

// A record plane is one rank's records in one layout. The algorithms below
// touch them only through:
//   key(i), key_less(a, b)  the sort key at an index (samples and splitters
//                           travel as Key) and the order of two keys;
//   less(i, j)              the comparison of the records at two indices;
//   gather(order)           reorders the records by an index order;
//   pack(begin, end, out)   writes records [begin, end) in wire form,
//   unpack(bytes)           bytes_per_record each, and appends such a slice;
// plus size(), reserve() and clear(). Slices handed to pack and unpack are
// never empty (an empty vector may hold a null pointer).

// Copy n elements of one column to or from a packed segment and return the
// cursor past them.
template <typename C>
std::byte* put_column(const std::vector<C>& column, std::size_t begin,
                      std::size_t n, std::byte* out) {
  std::memcpy(out, column.data() + begin, n * sizeof(C));
  return out + n * sizeof(C);
}

template <typename C>
const std::byte* take_column(const std::byte* in, std::size_t n,
                             std::vector<C>& column, std::size_t base) {
  std::memcpy(column.data() + base, in, n * sizeof(C));
  return in + n * sizeof(C);
}

// Entries under `Less`; a slice travels as its element bytes.
template <mp::WireType T, typename Less = std::less<>>
struct EntryPlane {
  using Key = T;
  static constexpr std::size_t bytes_per_record = sizeof(T);

  std::vector<T> records;
  Less compare;

  std::size_t size() const { return records.size(); }
  void reserve(std::size_t n) { records.reserve(n); }
  void clear() { records.clear(); }
  const T& key(std::size_t i) const { return records[i]; }
  bool key_less(const T& a, const T& b) const { return compare(a, b); }
  bool less(std::size_t a, std::size_t b) const {
    return compare(records[a], records[b]);
  }
  void gather(std::span<const std::size_t> by) {
    std::vector<T> out;
    out.reserve(by.size());
    for (const std::size_t i : by) out.push_back(records[i]);
    records = std::move(out);
  }
  void pack(std::size_t begin, std::size_t end, std::byte* out) const {
    put_column(records, begin, end - begin, out);
  }
  void unpack(std::span<const std::byte> in) {
    const std::size_t n = in.size() / bytes_per_record;
    const std::size_t base = size();
    records.resize(base + n);
    take_column(in.data(), n, records, base);
  }
};

// Splitter wire form of the column plane.
struct ValueRid {
  double value = 0.0;
  std::int64_t rid = 0;
};

// Columns ordered by (value, rid); a slice travels as one packed segment
// [values | rids | cls], 20 bytes per record like the in-memory layout.
struct ColumnPlane {
  using Key = ValueRid;
  static constexpr std::size_t bytes_per_record =
      data::ContinuousColumns::bytes_per_record;

  data::ContinuousColumns records;

  std::size_t size() const { return records.size(); }
  void reserve(std::size_t n) { records.reserve(n); }
  void clear() { records.clear(); }
  ValueRid key(std::size_t i) const {
    return ValueRid{records.values[i], records.rids[i]};
  }
  static bool key_less(const ValueRid& a, const ValueRid& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.rid < b.rid;
  }
  // Reads the rids only on a value tie.
  bool less(std::size_t a, std::size_t b) const {
    if (records.values[a] != records.values[b]) {
      return records.values[a] < records.values[b];
    }
    return records.rids[a] < records.rids[b];
  }
  void gather(std::span<const std::size_t> by) {
    data::ContinuousColumns out;
    out.resize(by.size());
    for (std::size_t i = 0; i < by.size(); ++i) out.set(i, records, by[i]);
    records = std::move(out);
  }
  void pack(std::size_t begin, std::size_t end, std::byte* out) const {
    const std::size_t n = end - begin;
    out = put_column(records.values, begin, n, out);
    out = put_column(records.rids, begin, n, out);
    put_column(records.cls, begin, n, out);
  }
  void unpack(std::span<const std::byte> in) {
    const std::size_t n = in.size() / bytes_per_record;
    const std::size_t base = size();
    records.resize(base + n);
    const std::byte* at = take_column(in.data(), n, records.values, base);
    at = take_column(at, n, records.rids, base);
    take_column(at, n, records.cls, base);
  }
};

inline std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

// Merges the sorted runs of `order` (run r spans [runs[r], runs[r + 1]))
// pairwise, in place.
template <typename Less>
void merge_runs(std::vector<std::size_t>& order, std::vector<std::size_t> runs,
                Less less) {
  while (runs.size() > 2) {
    std::vector<std::size_t> next{runs.front()};
    for (std::size_t i = 0; i + 2 < runs.size(); i += 2) {
      std::inplace_merge(
          order.begin() + static_cast<std::ptrdiff_t>(runs[i]),
          order.begin() + static_cast<std::ptrdiff_t>(runs[i + 1]),
          order.begin() + static_cast<std::ptrdiff_t>(runs[i + 2]), less);
      next.push_back(runs[i + 2]);
    }
    if (runs.size() % 2 == 0) next.push_back(runs.back());
    runs = std::move(next);
  }
}

// Sends records [cuts[d], cuts[d + 1]) to rank d in packed wire form with one
// all-to-all and refills `plane` with the arrivals in source rank order.
// Returns the offsets of each source's run in the refilled plane.
template <typename Plane>
std::vector<std::size_t> exchange(mp::Comm& comm, Plane& plane,
                                  const std::vector<std::size_t>& cuts) {
  const std::size_t p = cuts.size() - 1;
  std::vector<std::vector<std::byte>> sendbufs(p);
  for (std::size_t d = 0; d < p; ++d) {
    if (cuts[d] == cuts[d + 1]) continue;
    sendbufs[d].resize((cuts[d + 1] - cuts[d]) * Plane::bytes_per_record);
    plane.pack(cuts[d], cuts[d + 1], sendbufs[d].data());
  }
  plane.clear();
  const std::vector<std::vector<std::byte>> recvbufs =
      mp::alltoallv(comm, std::move(sendbufs));

  std::vector<std::size_t> offsets{0};
  offsets.reserve(p + 1);
  for (const auto& run : recvbufs) {
    if (run.size() % Plane::bytes_per_record != 0) {
      throw std::logic_error("sort: received a partial record");
    }
    offsets.push_back(offsets.back() + run.size() / Plane::bytes_per_record);
  }
  plane.reserve(offsets.back());
  for (const auto& run : recvbufs) {
    if (!run.empty()) plane.unpack(run);
  }
  return offsets;
}

// Both sorts run over an index permutation (8-byte moves whatever the record
// width), so each record moves once per sort, in the gather.
template <typename Plane>
void sample_sort_plane(mp::Comm& comm, Plane& plane) {
  const auto p = static_cast<std::size_t>(comm.size());
  const std::size_t n = plane.size();
  const auto index_less = [&plane](std::size_t a, std::size_t b) {
    return plane.less(a, b);
  };

  std::vector<std::size_t> order = identity_order(n);
  std::sort(order.begin(), order.end(), index_less);
  plane.gather(order);
  if (n > 0) {
    comm.add_work(static_cast<double>(n) *
                  std::log2(static_cast<double>(n) + 1.0));
  }
  if (p == 1) return;

  // Regular sampling: p-1 samples per rank.
  using Key = typename Plane::Key;
  std::vector<Key> samples;
  samples.reserve(p - 1);
  for (std::size_t i = 1; i < p && n > 0; ++i) {
    samples.push_back(plane.key(std::min(i * n / p, n - 1)));
  }
  std::vector<Key> all_samples =
      mp::allgatherv_concat(comm, std::span<const Key>(samples));
  std::sort(all_samples.begin(), all_samples.end(),
            [&plane](const Key& a, const Key& b) { return plane.key_less(a, b); });

  // p-1 splitters chosen regularly from the gathered samples; slice d ends at
  // the first record above splitter d.
  std::vector<std::size_t> cuts(p + 1, n);
  cuts[0] = 0;
  const std::size_t m = all_samples.size();
  for (std::size_t i = 1; i < p && m > 0; ++i) {
    const Key& splitter = all_samples[std::min(i * m / p, m - 1)];
    std::size_t lo = cuts[i - 1];
    std::size_t hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (plane.key_less(splitter, plane.key(mid))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cuts[i] = lo;
  }

  std::vector<std::size_t> runs = exchange(comm, plane, cuts);
  order = identity_order(plane.size());
  merge_runs(order, std::move(runs), index_less);
  plane.gather(order);
  comm.add_work(static_cast<double>(plane.size()) *
                std::log2(static_cast<double>(p) + 1.0));
}

template <typename Plane>
void shift_plane(mp::Comm& comm, Plane& plane,
                 const std::vector<std::size_t>& target_sizes) {
  if (comm.size() == 1) return;
  const std::size_t n = plane.size();
  const auto start = static_cast<std::size_t>(mp::exscan_value(
      comm, static_cast<std::uint64_t>(n), mp::SumOp{}, std::uint64_t{0}));
  const std::vector<std::size_t> target_offsets =
      offsets_from_sizes(target_sizes);
  if (start + n > target_offsets.back()) {
    throw std::out_of_range("rebalance: records beyond the target total");
  }
  // Rank d receives the overlap of [start, start + n) with its target range.
  std::vector<std::size_t> cuts(target_offsets.size());
  for (std::size_t d = 0; d < cuts.size(); ++d) {
    cuts[d] = std::clamp(target_offsets[d], start, start + n) - start;
  }
  exchange(comm, plane, cuts);
}

}  // namespace detail

// Sorts the union of all ranks' `local` data. On return, every rank holds a
// sorted run and runs are globally ordered by rank (rank 0 holds the
// smallest elements). Element counts per rank are data-dependent; use
// rebalance() afterwards to restore an exact block distribution.
template <mp::WireType T, typename Less>
std::vector<T> sample_sort(mp::Comm& comm, std::vector<T> local, Less less) {
  detail::EntryPlane<T, Less> plane{std::move(local), less};
  detail::sample_sort_plane(comm, plane);
  return std::move(plane.records);
}

// The same sort over columns, by (value, rid).
inline data::ContinuousColumns sample_sort_columns(
    mp::Comm& comm, data::ContinuousColumns local) {
  detail::ColumnPlane plane{std::move(local)};
  detail::sample_sort_plane(comm, plane);
  return std::move(plane.records);
}

// The order-preserving shift: given that rank i's records globally precede
// rank i+1's, moves them so that rank i holds exactly target_sizes[i]
// (target_sizes.size() == p, summing to the global total).
template <mp::WireType T>
std::vector<T> rebalance(mp::Comm& comm, std::vector<T> local,
                         const std::vector<std::size_t>& target_sizes) {
  detail::EntryPlane<T> plane{std::move(local), {}};
  detail::shift_plane(comm, plane, target_sizes);
  return std::move(plane.records);
}

inline data::ContinuousColumns rebalance_columns(
    mp::Comm& comm, data::ContinuousColumns local,
    const std::vector<std::size_t>& target_sizes) {
  detail::ColumnPlane plane{std::move(local)};
  detail::shift_plane(comm, plane, target_sizes);
  return std::move(plane.records);
}

// Rebalances to the canonical equal block distribution of the global total.
template <mp::WireType T>
std::vector<T> rebalance_equal(mp::Comm& comm, std::vector<T> local) {
  const std::uint64_t total = mp::allreduce_value(
      comm, static_cast<std::uint64_t>(local.size()), mp::SumOp{});
  return rebalance(comm, std::move(local),
                   equal_partition_sizes(total, comm.size()));
}

}  // namespace scalparc::sort
