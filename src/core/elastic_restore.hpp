// Elastic restore: load a level checkpoint written by a different world size.
//
// A level checkpoint stores each writer rank's attribute-list partitions as
// per-node segments whose concatenation in writer-rank order is the node's
// globally sorted segment. Restoring under a different rank count (the
// shrink-to-survivors recovery path: p-1 survivors reload a p-rank
// checkpoint) therefore reduces to a repartition that preserves exactly that
// invariant:
//
//   1. Each new rank reads a *contiguous block* of writer-rank partitions
//      (CRC-verified through CheckpointRankReader) and concatenates them per
//      node in writer order — every held piece stays a contiguous range of
//      the node's global segment, and new ranks in order tile it.
//   2. An exscan/allreduce over per-node sizes establishes each rank's global
//      position within every node segment.
//   3. Node by node, the global segment is re-tiled into the canonical
//      equal_partition_sizes layout and entries are routed to their new
//      owners with one counts alltoallv plus one entry alltoallv (the same
//      scatter shape the distributed node table uses).
//   4. Receivers reassemble node-major in source order; sources hold
//      ascending writer blocks, so source order *is* global order.
//
// The result is bit-identical data in the canonical layout for the new world
// size, so induction continues to the byte-identical tree.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "mp/collectives.hpp"
#include "mp/comm.hpp"
#include "sort/partition_util.hpp"
#include "util/trace.hpp"

namespace scalparc::core {

template <typename Entry>
struct RestoredList {
  std::vector<Entry> entries;
  std::vector<std::size_t> offsets;  // per-node segment bounds, size m+1
};

// Reads one writer rank's list section `tag` and its `tag`_off segment
// bounds for `num_nodes` active nodes. Bounds that disagree with the section
// are an integrity failure even when their CRC holds.
template <typename Entry>
RestoredList<Entry> read_list_section(CheckpointRankReader& reader,
                                      const std::string& tag,
                                      std::size_t num_nodes) {
  RestoredList<Entry> out;
  out.entries = reader.read_section<Entry>(tag);
  const std::vector<std::uint64_t> raw =
      reader.read_section<std::uint64_t>(tag + "_off");
  if (raw.size() != num_nodes + 1 || raw.front() != 0 ||
      raw.back() != out.entries.size() ||
      !std::is_sorted(raw.begin(), raw.end())) {
    throw CheckpointCorruptError(
        "writer rank " + std::to_string(reader.rank()) +
        " has inconsistent segment offsets for '" + tag + "'");
  }
  out.offsets.assign(raw.begin(), raw.end());
  return out;
}

// Collective. Restores the checkpoint sections `tag` / `tag`_off written by
// `writer_ranks` ranks into comm.size() balanced partitions. `num_nodes` is
// the active-node count of the checkpointed level (from active.bin). With a
// non-empty `weights` (one positive weight per current rank) the new tiling
// is proportional instead of uniform — the straggler-rebalance policy's
// lever for steering work away from a slow rank; uniform weights reproduce
// the canonical layout bit for bit. Throws CheckpointCorruptError on
// missing, truncated, corrupt or inconsistent sections, and CheckpointError
// on bad weights or a malformed exchange between peers.
template <typename Entry>
RestoredList<Entry> elastic_restore_list(mp::Comm& comm,
                                         const std::string& level_dir,
                                         int writer_ranks,
                                         const std::string& tag,
                                         std::size_t num_nodes,
                                         std::span<const double> weights = {}) {
  const int p = comm.size();
  const auto r = static_cast<std::size_t>(comm.rank());
  const std::size_t m = num_nodes;
  if (!weights.empty() && weights.size() != static_cast<std::size_t>(p)) {
    throw CheckpointError(
        "elastic restore: rank_weights size does not match the world size");
  }

  util::TraceScope span("elastic_restore", /*level=*/-1,
                        /*nodes=*/static_cast<std::int64_t>(m));
  span.set_begin_vtime(comm.vtime());
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("checkpoint.elastic_restores", 1);
  }

  // 1. Read this rank's contiguous block of writer partitions.
  const std::vector<std::size_t> block_sizes = sort::equal_partition_sizes(
      static_cast<std::size_t>(writer_ranks), p);
  const std::vector<std::size_t> block_offsets =
      sort::offsets_from_sizes(block_sizes);
  std::vector<std::vector<Entry>> per_node(m);
  for (std::size_t o = block_offsets[r]; o < block_offsets[r + 1]; ++o) {
    CheckpointRankReader reader(level_dir, static_cast<int>(o));
    const RestoredList<Entry> piece = read_list_section<Entry>(reader, tag, m);
    for (std::size_t i = 0; i < m; ++i) {
      per_node[i].insert(
          per_node[i].end(),
          piece.entries.begin() + static_cast<std::ptrdiff_t>(piece.offsets[i]),
          piece.entries.begin() +
              static_cast<std::ptrdiff_t>(piece.offsets[i + 1]));
    }
  }

  // 2. Global geometry of every node segment.
  std::vector<std::int64_t> local_sizes(m);
  for (std::size_t i = 0; i < m; ++i) {
    local_sizes[i] = static_cast<std::int64_t>(per_node[i].size());
  }
  const std::vector<std::int64_t> starts =
      mp::exscan_vec(comm, std::span<const std::int64_t>(local_sizes),
                     mp::SumOp{}, std::int64_t{0});
  const std::vector<std::int64_t> global_sizes =
      mp::allreduce_vec(comm, std::span<const std::int64_t>(local_sizes),
                        mp::SumOp{});

  // 3. Slice every held piece against the new owners' windows.
  std::vector<std::vector<Entry>> sendbufs(static_cast<std::size_t>(p));
  std::vector<std::vector<std::int64_t>> sendcounts(
      static_cast<std::size_t>(p), std::vector<std::int64_t>(m, 0));
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<std::size_t> target_offsets = sort::offsets_from_sizes(
        weights.empty()
            ? sort::equal_partition_sizes(
                  static_cast<std::size_t>(global_sizes[i]), p)
            : sort::weighted_partition_sizes(
                  static_cast<std::size_t>(global_sizes[i]), weights));
    const std::int64_t my_begin = starts[i];
    const std::int64_t my_end = my_begin + local_sizes[i];
    for (int d = 0; d < p; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      const std::int64_t lo = std::max(
          my_begin, static_cast<std::int64_t>(target_offsets[ds]));
      const std::int64_t hi = std::min(
          my_end, static_cast<std::int64_t>(target_offsets[ds + 1]));
      if (lo >= hi) continue;
      sendcounts[ds][i] = hi - lo;
      sendbufs[ds].insert(
          sendbufs[ds].end(),
          per_node[i].begin() + static_cast<std::ptrdiff_t>(lo - my_begin),
          per_node[i].begin() + static_cast<std::ptrdiff_t>(hi - my_begin));
    }
    per_node[i].clear();
    per_node[i].shrink_to_fit();
  }

  // 4. Counts first, then entries. The send buffers move into the exchange,
  // so their bytes are summed first.
  std::size_t moved = 0;
  for (const std::vector<Entry>& buf : sendbufs) moved += buf.size();
  const std::vector<std::vector<std::int64_t>> recvcounts =
      mp::alltoallv(comm, std::move(sendcounts));
  const std::vector<std::vector<Entry>> arrived =
      mp::alltoallv(comm, std::move(sendbufs));

  // 5. Reassemble node-major, sources in ascending order.
  RestoredList<Entry> out;
  out.offsets.assign(m + 1, 0);
  std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
  for (std::size_t i = 0; i < m; ++i) {
    out.offsets[i] = out.entries.size();
    for (int s = 0; s < p; ++s) {
      const auto ss = static_cast<std::size_t>(s);
      if (recvcounts[ss].size() != m) {
        throw CheckpointError(
            "elastic restore: peer sent a malformed counts vector for '" +
            tag + "'");
      }
      const auto n = static_cast<std::size_t>(recvcounts[ss][i]);
      if (cursor[ss] + n > arrived[ss].size()) {
        throw CheckpointError(
            "elastic restore: peer counts overrun its entries for '" + tag +
            "'");
      }
      out.entries.insert(
          out.entries.end(),
          arrived[ss].begin() + static_cast<std::ptrdiff_t>(cursor[ss]),
          arrived[ss].begin() +
              static_cast<std::ptrdiff_t>(cursor[ss] + n));
      cursor[ss] += n;
    }
  }
  out.offsets[m] = out.entries.size();
  for (int s = 0; s < p; ++s) {
    if (cursor[static_cast<std::size_t>(s)] !=
        arrived[static_cast<std::size_t>(s)].size()) {
      throw CheckpointError(
          "elastic restore: peer sent more entries than its counts for '" +
          tag + "'");
    }
  }
  span.set_bytes(static_cast<std::int64_t>(out.entries.size() * sizeof(Entry)));
  span.set_end_vtime(comm.vtime());
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("recovery.retile_bytes",
              static_cast<double>(moved * sizeof(Entry)));
  }
  return out;
}

}  // namespace scalparc::core
