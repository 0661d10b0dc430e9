#include "core/histogram_induction.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/gini.hpp"
#include "core/histogram.hpp"
#include "core/induction_internal.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "data/attribute_list.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "mp/telemetry.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"
#include "util/trace.hpp"

namespace scalparc::core {

namespace {

using data::AttributeKind;
using data::CategoricalEntry;
using data::ContinuousEntry;
using internal::ActiveNode;
using internal::PhaseSpan;
using internal::is_pure;
using internal::majority_class;

// Orders continuous checkpoint entries by (node, value, rid) — the node slot
// rides in the otherwise-unused pad field during the write — reproducing the
// exact engine's on-disk layout: node segments in slot order, each globally
// sorted by (value, rid).
struct ContCkptLess {
  bool operator()(const ContinuousEntry& a, const ContinuousEntry& b) const {
    if (a.pad != b.pad) return a.pad < b.pad;
    if (a.value != b.value) return a.value < b.value;
    return a.rid < b.rid;
  }
};

// Categorical checkpoint entry widened with its node slot for the sort; the
// exact engine keeps categorical segments in ascending-rid order, so sort by
// (node, rid) and strip the key before writing.
struct CatKeyedEntry {
  std::int64_t rid = 0;
  std::int32_t value = 0;
  std::int32_t cls = 0;
  std::int32_t node = 0;
  std::int32_t pad = 0;
};

struct CatKeyedLess {
  bool operator()(const CatKeyedEntry& a, const CatKeyedEntry& b) const {
    if (a.node != b.node) return a.node < b.node;
    return a.rid < b.rid;
  }
};

// One attribute value of one record in flight during a checkpoint restore:
// sections are read round-robin by whoever is present and every value is
// routed to the rank owning the record's row in the equal block partition.
struct RowWire {
  double value = 0.0;       // continuous value (slot < num continuous)
  std::int64_t rid = 0;
  std::int32_t slot = 0;    // list index: continuous lists first, then cat
  std::int32_t ivalue = 0;  // categorical code
  std::int32_t cls = 0;
  std::int32_t node = 0;    // active-node index
};

int owner_of_rid(std::int64_t rid, std::uint64_t total, int p) {
  const auto t = static_cast<std::int64_t>(total);
  const std::int64_t base = t / p;
  const std::int64_t extra = t % p;
  const std::int64_t boundary = (base + 1) * extra;
  if (rid < boundary) return static_cast<int>(rid / (base + 1));
  return static_cast<int>(extra + (rid - boundary) / base);
}

}  // namespace

InductionResult induce_tree_quantized(mp::Comm& comm,
                                      const data::Dataset& local_block,
                                      std::int64_t first_rid,
                                      std::uint64_t total_records,
                                      const InductionControls& controls) {
  const InductionOptions& options = controls.options;
  const data::Schema& schema = local_block.schema();
  const int p = comm.size();
  const int c = schema.num_classes();
  const int bins = options.hist_bins;
  const bool voting = options.split_mode == SplitMode::kVoting;

  if (total_records == 0) {
    throw std::invalid_argument("induce_tree_quantized: empty training set");
  }
  if (options.max_depth < 0 || options.min_split_records < 2) {
    throw std::invalid_argument("induce_tree_quantized: bad options");
  }
  if (bins < 2) {
    throw std::invalid_argument("induce_tree_quantized: hist_bins must be >= 2");
  }
  if (voting && options.top_k < 1) {
    throw std::invalid_argument("induce_tree_quantized: top_k must be >= 1");
  }

  const bool resuming = controls.checkpoint.resume;
  const std::string& ckpt_root = controls.checkpoint.directory;
  const bool checkpointing = !ckpt_root.empty();
  if (resuming && !checkpointing) {
    throw std::invalid_argument(
        "induce_tree_quantized: resume requires a checkpoint directory");
  }
  if (controls.checkpoint.weighted()) {
    // The quantized engine's record ownership is structural (owner_of_rid
    // tiles [0, total) uniformly), so a weighted restore cannot steer work
    // away from a slow rank here. Reject loudly instead of silently
    // ignoring the rebalance request.
    throw std::invalid_argument(
        "induce_tree_quantized: non-uniform rank_weights are not supported "
        "by the histogram engine (row ownership is structural); use the "
        "exact engine for straggler rebalance");
  }

  std::optional<PhaseSpan> setup_span(
      std::in_place, comm, resuming ? "checkpoint_restore" : "presort");
  const std::uint64_t fp = internal::induction_fingerprint(
      schema, total_records, options, controls.strategy);
  internal::verify_spmd_fingerprint(comm, fp);

  InductionResult result;
  result.tree = DecisionTree(schema);
  InductionStats& stats = result.stats;
  stats.split_mode = options.split_mode;

  // Attribute bookkeeping: continuous and categorical list slots in schema
  // order (matching the exact engine's cont<li>/cat<li> checkpoint tags).
  std::vector<int> cont_attr, cat_attr;
  std::vector<std::int32_t> cat_card;
  const int num_attrs = schema.num_attributes();
  std::vector<int> slot_of_attr(static_cast<std::size_t>(num_attrs), -1);
  std::vector<bool> attr_is_cont(static_cast<std::size_t>(num_attrs), false);
  for (int a = 0; a < num_attrs; ++a) {
    if (schema.attribute(a).kind == AttributeKind::kContinuous) {
      slot_of_attr[static_cast<std::size_t>(a)] =
          static_cast<int>(cont_attr.size());
      attr_is_cont[static_cast<std::size_t>(a)] = true;
      cont_attr.push_back(a);
    } else {
      slot_of_attr[static_cast<std::size_t>(a)] =
          static_cast<int>(cat_attr.size());
      cat_attr.push_back(a);
      cat_card.push_back(schema.attribute(a).cardinality);
    }
  }
  const std::size_t num_cont = cont_attr.size();
  const std::size_t num_cat = cat_attr.size();
  const auto ubins = static_cast<std::size_t>(bins);
  const auto uc = static_cast<std::size_t>(c);

  // The horizontal record block: one column per attribute plus the label
  // stream, and node_of mapping each local row to its current active-node
  // index (-1 once the row lands in a leaf).
  std::vector<std::vector<double>> cont_col(num_cont);
  std::vector<std::vector<std::int32_t>> cat_col(num_cat);
  std::vector<std::int32_t> row_cls;
  std::vector<std::int32_t> node_of;
  std::int64_t my_first = first_rid;
  util::ScopedAllocation rows_mem;

  const auto meter_rows = [&] {
    const std::size_t n = row_cls.size();
    rows_mem = util::ScopedAllocation(
        comm.meter(), util::MemCategory::kAttributeLists,
        n * (num_cont * sizeof(double) + num_cat * sizeof(std::int32_t) +
             2 * sizeof(std::int32_t)));
  };

  std::vector<ActiveNode> active;
  int level_index = 0;

  if (!resuming) {
    const std::size_t local_n = local_block.num_records();
    for (std::size_t li = 0; li < num_cont; ++li) {
      const std::span<const double> col =
          local_block.continuous_column(cont_attr[li]);
      cont_col[li].assign(col.begin(), col.end());
    }
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::span<const std::int32_t> col =
          local_block.categorical_column(cat_attr[li]);
      cat_col[li].assign(col.begin(), col.end());
    }
    row_cls.assign(local_block.labels().begin(), local_block.labels().end());
    meter_rows();

    std::vector<std::int64_t> local_histogram(uc, 0);
    for (const std::int32_t label : row_cls) {
      if (label < 0 || label >= c) {
        throw std::invalid_argument("induce_tree_quantized: label out of range");
      }
      ++local_histogram[static_cast<std::size_t>(label)];
    }
    const std::vector<std::int64_t> root_totals =
        mp::allreduce_vec(comm, std::span<const std::int64_t>(local_histogram),
                          mp::SumOp{});
    comm.add_work(static_cast<double>(local_n));

    TreeNode root;
    root.is_leaf = true;
    root.class_counts = root_totals;
    root.num_records = static_cast<std::int64_t>(total_records);
    root.majority_class = majority_class(root_totals);
    root.depth = 0;
    result.tree.add_node(std::move(root));

    if (!is_pure(root_totals) &&
        static_cast<std::int64_t>(total_records) >= options.min_split_records &&
        options.max_depth > 0) {
      ActiveNode node;
      node.tree_id = 0;
      node.depth = 0;
      node.total = static_cast<std::int64_t>(total_records);
      node.class_totals = root_totals;
      active.push_back(std::move(node));
      node_of.assign(local_n, 0);
    } else {
      node_of.assign(local_n, -1);
    }
  } else {
    // -----------------------------------------------------------------------
    // Resume. Checkpoints are written as sorted vertical attribute-list
    // sections (the shared on-disk format); reconstruct the horizontal rows
    // by reading the writer ranks' sections round-robin and routing every
    // value to the rank owning its record in the equal block partition.
    // This one path serves same-world, shrink and grow resumes alike, and
    // accepts checkpoints written by either engine.
    // -----------------------------------------------------------------------
    int latest = -1;
    if (comm.rank() == 0) {
      const std::optional<int> found = checkpoint_latest_level(ckpt_root);
      if (found) latest = *found;
    }
    latest = mp::bcast_value(comm, latest, 0);
    if (latest < 0) {
      throw CheckpointError("no complete level checkpoint under '" +
                            ckpt_root + "'");
    }
    const std::string level_dir = checkpoint_level_dir(ckpt_root, latest);
    const CheckpointManifest manifest = checkpoint_read_manifest(level_dir);
    if (manifest.level != latest) {
      throw CheckpointError("manifest level disagrees with its directory name");
    }
    if (manifest.ranks != p && !controls.checkpoint.allow_repartition) {
      throw CheckpointError("checkpoint was written by " +
                            std::to_string(manifest.ranks) +
                            " ranks; resuming with " + std::to_string(p));
    }
    if (manifest.total_records != total_records ||
        manifest.num_classes != c || manifest.fingerprint != fp) {
      throw CheckpointError(
          "checkpoint parameters do not match this run "
          "(schema/options/total changed since the checkpoint was written)");
    }

    mp::JoinCapability capability;
    capability.fingerprint = fp;
    capability.total_records = static_cast<std::int64_t>(total_records);
    capability.num_attributes = static_cast<std::int32_t>(num_cont + num_cat);
    (void)mp::join_handshake(comm, capability);

    result.tree = checkpoint_read_tree(level_dir, manifest);

    const std::vector<std::int64_t> flat =
        checkpoint_read_active(level_dir, manifest);
    const std::size_t stride = 3 + uc;
    if (flat.size() % stride != 0) {
      throw CheckpointError("active.bin has a bad record stride");
    }
    active.reserve(flat.size() / stride);
    for (std::size_t i = 0; i < flat.size() / stride; ++i) {
      const std::int64_t* rec = flat.data() + i * stride;
      ActiveNode node;
      node.tree_id = static_cast<int>(rec[0]);
      node.depth = static_cast<int>(rec[1]);
      node.total = rec[2];
      node.class_totals.assign(rec + 3, rec + 3 + c);
      if (node.tree_id < 0 || node.tree_id >= result.tree.num_nodes()) {
        throw CheckpointError("active node references a missing tree node");
      }
      active.push_back(std::move(node));
    }

    // Equal block partition of [0, total) across the current world.
    const std::vector<std::size_t> sizes =
        sort::equal_partition_sizes(total_records, p);
    const std::vector<std::size_t> block_offsets =
        sort::offsets_from_sizes(sizes);
    my_first = static_cast<std::int64_t>(
        block_offsets[static_cast<std::size_t>(comm.rank())]);
    const std::size_t local_n = sizes[static_cast<std::size_t>(comm.rank())];
    for (std::size_t li = 0; li < num_cont; ++li) {
      cont_col[li].assign(local_n, 0.0);
    }
    for (std::size_t li = 0; li < num_cat; ++li) cat_col[li].assign(local_n, 0);
    row_cls.assign(local_n, 0);
    node_of.assign(local_n, -1);
    std::vector<std::uint16_t> seen(local_n, 0);
    meter_rows();

    std::vector<std::vector<RowWire>> sendbufs(static_cast<std::size_t>(p));
    const auto route_sections = [&](int writer_rank) {
      CheckpointRankReader reader(level_dir, writer_rank);
      const auto check_offsets = [&](const std::vector<std::uint64_t>& offs,
                                     std::size_t num_entries) {
        if (offs.size() != active.size() + 1 || offs.front() != 0 ||
            offs.back() != num_entries ||
            !std::is_sorted(offs.begin(), offs.end())) {
          throw CheckpointCorruptError(
              "restored segment offsets are inconsistent");
        }
      };
      for (std::size_t li = 0; li < num_cont; ++li) {
        const std::string tag = "cont" + std::to_string(li);
        const std::vector<ContinuousEntry> entries =
            reader.read_section<ContinuousEntry>(tag);
        const std::vector<std::uint64_t> offs =
            reader.read_section<std::uint64_t>(tag + "_off");
        check_offsets(offs, entries.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
          for (std::uint64_t idx = offs[i]; idx < offs[i + 1]; ++idx) {
            const ContinuousEntry& e = entries[static_cast<std::size_t>(idx)];
            RowWire w;
            w.value = e.value;
            w.rid = e.rid;
            w.slot = static_cast<std::int32_t>(li);
            w.cls = e.cls;
            w.node = static_cast<std::int32_t>(i);
            sendbufs[static_cast<std::size_t>(
                         owner_of_rid(e.rid, total_records, p))]
                .push_back(w);
          }
        }
      }
      for (std::size_t li = 0; li < num_cat; ++li) {
        const std::string tag = "cat" + std::to_string(li);
        const std::vector<CategoricalEntry> entries =
            reader.read_section<CategoricalEntry>(tag);
        const std::vector<std::uint64_t> offs =
            reader.read_section<std::uint64_t>(tag + "_off");
        check_offsets(offs, entries.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
          for (std::uint64_t idx = offs[i]; idx < offs[i + 1]; ++idx) {
            const CategoricalEntry& e = entries[static_cast<std::size_t>(idx)];
            RowWire w;
            w.rid = e.rid;
            w.slot = static_cast<std::int32_t>(num_cont + li);
            w.ivalue = e.value;
            w.cls = e.cls;
            w.node = static_cast<std::int32_t>(i);
            sendbufs[static_cast<std::size_t>(
                         owner_of_rid(e.rid, total_records, p))]
                .push_back(w);
          }
        }
      }
    };
    for (int writer = comm.rank(); writer < manifest.ranks; writer += p) {
      route_sections(writer);
    }

    const std::vector<std::vector<RowWire>> received =
        mp::alltoallv(comm, sendbufs);
    sendbufs.clear();
    std::size_t arrived = 0;
    for (const std::vector<RowWire>& from : received) {
      for (const RowWire& w : from) {
        const std::int64_t row64 = w.rid - my_first;
        if (row64 < 0 || row64 >= static_cast<std::int64_t>(local_n)) {
          throw CheckpointCorruptError("restored rid outside this rank's block");
        }
        const auto row = static_cast<std::size_t>(row64);
        const auto slot = static_cast<std::size_t>(w.slot);
        if (slot < num_cont) {
          cont_col[slot][row] = w.value;
        } else if (slot < num_cont + num_cat) {
          cat_col[slot - num_cont][row] = w.ivalue;
        } else {
          throw CheckpointCorruptError("restored value names a bad list slot");
        }
        row_cls[row] = w.cls;
        if (node_of[row] < 0) {
          node_of[row] = w.node;
        } else if (node_of[row] != w.node) {
          throw CheckpointCorruptError(
              "restored record is assigned to two active nodes");
        }
        ++seen[row];
        ++arrived;
      }
    }
    comm.add_work(static_cast<double>(arrived));
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::size_t expect = node_of[row] >= 0 ? num_cont + num_cat : 0;
      if (seen[row] != expect) {
        throw CheckpointCorruptError(
            "restored record is missing attribute values");
      }
    }
    level_index = latest;
    stats.levels = latest;
  }
  stats.presort_seconds = comm.vtime();

  // Per-level scratch, hoisted so capacity is reused across levels.
  mp::CollectiveBatch batch(comm);
  std::vector<ValueRange> ranges_scratch;
  std::vector<ValueRange> ranges;
  std::vector<std::int64_t> cont_counts;   // [li][node][bin][class]
  std::vector<double> cont_bin_min;        // [li][node][bin]
  std::vector<std::int64_t> cat_counts;    // per list: [node][value][class]
  std::vector<std::size_t> cat_counts_begin(num_cat + 1);
  std::vector<std::int64_t> local_totals;  // [node][class], voting only
  std::vector<std::int32_t> votes;         // [node][attribute], voting only
  std::vector<std::uint8_t> elected_mask;  // [node][attribute]
  std::vector<std::vector<std::size_t>> elected_nodes(num_cont + num_cat);
  std::vector<std::int64_t> merge_counts_scratch;
  std::vector<double> merge_min_scratch;
  std::vector<std::size_t> seg_counts(num_cont), seg_min(num_cont);
  std::vector<std::size_t> seg_cat(num_cat);
  std::vector<std::int64_t> local_kid_counts;
  std::vector<std::int32_t> child_of_row(node_of.size(), -1);
  std::vector<std::int64_t> ckpt_active_scratch;
  std::uint64_t histogram_bytes_total = 0;
  std::uint64_t vote_bytes_total = 0;

  setup_span.reset();

  // -------------------------------------------------------------------------
  // Level loop.
  // -------------------------------------------------------------------------
  while (!active.empty()) {
    const std::size_t m = active.size();
    std::int64_t level_records = 0;
    for (const ActiveNode& node : active) level_records += node.total;
    const auto mm = static_cast<std::int64_t>(m);
    const auto local_n = row_cls.size();

    if (checkpointing) {
      // Same collective write protocol and on-disk format as the exact
      // engine: this engine's rows are widened back into per-attribute
      // sorted AoS sections (one parallel sort per list), so any engine /
      // world size can restore the result.
      PhaseSpan ckpt_span(comm, "checkpoint_write", level_index, mm,
                          level_records);
      if (comm.rank() == 0) checkpoint_prepare_staging(ckpt_root, level_index);
      mp::barrier(comm);
      const std::string staging = checkpoint_staging_dir(ckpt_root, level_index);
      CheckpointRankWriter writer(staging, comm.rank());
      std::vector<std::uint64_t> offs;
      const auto offsets_of = [&](auto node_of_entry, std::size_t count) {
        offs.assign(m + 1, 0);
        for (std::size_t k = 0; k < count; ++k) {
          ++offs[static_cast<std::size_t>(node_of_entry(k)) + 1];
        }
        for (std::size_t i = 0; i < m; ++i) offs[i + 1] += offs[i];
      };
      for (std::size_t li = 0; li < num_cont; ++li) {
        std::vector<ContinuousEntry> ent;
        ent.reserve(local_n);
        for (std::size_t row = 0; row < local_n; ++row) {
          if (node_of[row] < 0) continue;
          ContinuousEntry e;
          e.value = cont_col[li][row];
          e.rid = my_first + static_cast<std::int64_t>(row);
          e.cls = row_cls[row];
          e.pad = node_of[row];
          ent.push_back(e);
        }
        ent = sort::sample_sort(comm, std::move(ent), ContCkptLess{});
        offsets_of([&](std::size_t k) { return ent[k].pad; }, ent.size());
        for (ContinuousEntry& e : ent) e.pad = 0;
        const std::string tag = "cont" + std::to_string(li);
        writer.write_section<ContinuousEntry>(tag, ent);
        writer.write_section<std::uint64_t>(tag + "_off", offs);
      }
      for (std::size_t li = 0; li < num_cat; ++li) {
        std::vector<CatKeyedEntry> keyed;
        keyed.reserve(local_n);
        for (std::size_t row = 0; row < local_n; ++row) {
          if (node_of[row] < 0) continue;
          CatKeyedEntry e;
          e.rid = my_first + static_cast<std::int64_t>(row);
          e.value = cat_col[li][row];
          e.cls = row_cls[row];
          e.node = node_of[row];
          keyed.push_back(e);
        }
        keyed = sort::sample_sort(comm, std::move(keyed), CatKeyedLess{});
        offsets_of([&](std::size_t k) { return keyed[k].node; }, keyed.size());
        std::vector<CategoricalEntry> ent(keyed.size());
        for (std::size_t k = 0; k < keyed.size(); ++k) {
          ent[k] = CategoricalEntry{keyed[k].rid, keyed[k].value, keyed[k].cls};
        }
        const std::string tag = "cat" + std::to_string(li);
        writer.write_section<CategoricalEntry>(tag, ent);
        writer.write_section<std::uint64_t>(tag + "_off", offs);
      }
      writer.finalize();
      if (comm.rank() == 0) {
        std::vector<std::int64_t>& flat = ckpt_active_scratch;
        flat.clear();
        flat.reserve(active.size() * (3 + uc));
        for (const ActiveNode& node : active) {
          flat.push_back(node.tree_id);
          flat.push_back(node.depth);
          flat.push_back(node.total);
          flat.insert(flat.end(), node.class_totals.begin(),
                      node.class_totals.end());
        }
        CheckpointManifest manifest;
        manifest.level = level_index;
        manifest.ranks = p;
        manifest.num_classes = c;
        manifest.total_records = total_records;
        manifest.fingerprint = fp;
        checkpoint_write_globals(staging, result.tree, flat, manifest);
      }
      mp::barrier(comm);
      if (comm.rank() == 0) checkpoint_commit(ckpt_root, level_index);
      mp::barrier(comm);
    }
    comm.fault_level_boundary(level_index);

    const std::uint64_t level_start_bytes = comm.stats().bytes_sent;
    const auto level_start_calls = comm.stats().calls_by_op;
    const double level_start_vtime = comm.vtime();
    std::uint64_t level_histogram_bytes = 0;
    std::uint64_t level_vote_bytes = 0;

    // ---------------- FindSplitI: ranges, histograms, election -------------
    std::optional<PhaseSpan> phase(std::in_place, comm, "findsplit_i",
                                   level_index, mm, level_records);

    // Round 1: global [lo, hi] per (continuous attribute, node) so every
    // rank bins with the identical edges.
    ranges_scratch.assign(num_cont * m, ValueRange{});
    for (std::size_t li = 0; li < num_cont; ++li) {
      const double* const col = cont_col[li].data();
      ValueRange* const out = ranges_scratch.data() + li * m;
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        ValueRange& r = out[static_cast<std::size_t>(i)];
        const double v = col[row];
        if (v < r.lo) r.lo = v;
        if (v > r.hi) r.hi = v;
      }
      comm.add_work(static_cast<double>(local_n));
    }
    batch.reset();
    const std::size_t seg_ranges = batch.add<ValueRange>(
        std::span<const ValueRange>(ranges_scratch), RangeOp{}, ValueRange{});
    level_histogram_bytes += batch.packed_bytes();
    batch.allreduce();
    ranges = batch.take<ValueRange>(seg_ranges);

    // Local histograms: per continuous list [node][bin][class] counts plus
    // the per-bin minimum value; per categorical list the usual
    // [node][value][class] count matrix.
    cont_counts.assign(num_cont * m * ubins * uc, 0);
    cont_bin_min.assign(num_cont * m * ubins,
                        std::numeric_limits<double>::infinity());
    for (std::size_t li = 0; li < num_cont; ++li) {
      const double* const col = cont_col[li].data();
      const ValueRange* const rng = ranges.data() + li * m;
      std::int64_t* const counts = cont_counts.data() + li * m * ubins * uc;
      double* const mins = cont_bin_min.data() + li * m * ubins;
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        const auto ui = static_cast<std::size_t>(i);
        const double v = col[row];
        const auto b =
            static_cast<std::size_t>(histogram_bin_of(v, rng[ui], bins));
        ++counts[(ui * ubins + b) * uc +
                 static_cast<std::size_t>(row_cls[row])];
        if (v < mins[ui * ubins + b]) mins[ui * ubins + b] = v;
      }
      comm.add_work(static_cast<double>(local_n));
    }
    cat_counts_begin[0] = 0;
    for (std::size_t li = 0; li < num_cat; ++li) {
      cat_counts_begin[li + 1] =
          cat_counts_begin[li] + m * static_cast<std::size_t>(cat_card[li]) * uc;
    }
    cat_counts.assign(cat_counts_begin[num_cat], 0);
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::int32_t* const col = cat_col[li].data();
      const auto card = static_cast<std::size_t>(cat_card[li]);
      std::int64_t* const counts = cat_counts.data() + cat_counts_begin[li];
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        ++counts[(static_cast<std::size_t>(i) * card +
                  static_cast<std::size_t>(col[row])) *
                     uc +
                 static_cast<std::size_t>(row_cls[row])];
      }
      comm.add_work(static_cast<double>(local_n));
    }

    // Election: which (node, attribute) histograms get merged. Histogram
    // mode merges everything; voting mode lets each rank vote its local
    // top-k attributes per node, sums the votes in one packed allreduce and
    // keeps the global top-2k (all attributes when nobody could vote, e.g.
    // every rank's local fragment of the node is single-valued).
    elected_mask.assign(m * static_cast<std::size_t>(num_attrs), 1);
    if (voting) {
      local_totals.assign(m * uc, 0);
      for (std::size_t row = 0; row < local_n; ++row) {
        const std::int32_t i = node_of[row];
        if (i < 0) continue;
        ++local_totals[static_cast<std::size_t>(i) * uc +
                       static_cast<std::size_t>(row_cls[row])];
      }
      comm.add_work(static_cast<double>(local_n));
      votes.assign(m * static_cast<std::size_t>(num_attrs), 0);
      std::vector<std::pair<double, int>> scored;
      for (std::size_t i = 0; i < m; ++i) {
        scored.clear();
        const std::span<const std::int64_t> totals(
            local_totals.data() + i * uc, uc);
        for (std::size_t li = 0; li < num_cont; ++li) {
          SplitCandidate cand;
          best_histogram_split(
              std::span<const std::int64_t>(
                  cont_counts.data() + (li * m + i) * ubins * uc, ubins * uc),
              std::span<const double>(
                  cont_bin_min.data() + (li * m + i) * ubins, ubins),
              totals, bins, options.criterion,
              static_cast<std::int32_t>(cont_attr[li]), cand);
          if (cand.valid()) scored.emplace_back(cand.gini, cont_attr[li]);
        }
        for (std::size_t li = 0; li < num_cat; ++li) {
          const auto card = static_cast<std::size_t>(cat_card[li]);
          const CountMatrix matrix = CountMatrix::from_flat(
              cat_card[li], c,
              std::span<const std::int64_t>(
                  cat_counts.data() + cat_counts_begin[li] + i * card * uc,
                  card * uc));
          const SplitCandidate cand = best_categorical_split(
              matrix, static_cast<std::int32_t>(cat_attr[li]),
              options.categorical_split, options.criterion);
          if (cand.valid()) scored.emplace_back(cand.gini, cat_attr[li]);
        }
        std::sort(scored.begin(), scored.end());
        const std::size_t k =
            std::min(scored.size(), static_cast<std::size_t>(options.top_k));
        for (std::size_t s = 0; s < k; ++s) {
          votes[i * static_cast<std::size_t>(num_attrs) +
                static_cast<std::size_t>(scored[s].second)] = 1;
        }
        comm.add_work(static_cast<double>(num_attrs));
      }
      batch.reset();
      const std::size_t vote_seg = batch.add<std::int32_t>(
          std::span<const std::int32_t>(votes), mp::SumOp{}, std::int32_t{0});
      level_vote_bytes += batch.packed_bytes();
      batch.allreduce();
      const std::span<const std::int32_t> vote_totals =
          batch.view<std::int32_t>(vote_seg);

      elected_mask.assign(m * static_cast<std::size_t>(num_attrs), 0);
      std::vector<std::pair<std::int32_t, int>> ranked;
      for (std::size_t i = 0; i < m; ++i) {
        ranked.clear();
        for (int a = 0; a < num_attrs; ++a) {
          const std::int32_t v =
              vote_totals[i * static_cast<std::size_t>(num_attrs) +
                          static_cast<std::size_t>(a)];
          ranked.emplace_back(-v, a);  // by votes desc, ties by attr asc
        }
        std::sort(ranked.begin(), ranked.end());
        // Always elect exactly min(2k, A) attributes: zero-vote attributes
        // (valid globally but never scoreable locally — e.g. every rank's
        // fragment is single-valued) rank after the voted ones in ascending
        // id order, so the merge set stays deterministic and with
        // 2k >= A voting degenerates to histogram mode exactly.
        const std::size_t keep = std::min(
            ranked.size(), static_cast<std::size_t>(2) *
                               static_cast<std::size_t>(options.top_k));
        for (std::size_t s = 0; s < keep; ++s) {
          elected_mask[i * static_cast<std::size_t>(num_attrs) +
                       static_cast<std::size_t>(ranked[s].second)] = 1;
        }
      }
    }

    // Round 2: merge the elected histograms / count matrices, packed into
    // one allreduce. The elected sets derive from global data, so every
    // rank builds the identical segment directory.
    batch.reset();
    for (std::size_t li = 0; li < num_cont + num_cat; ++li) {
      const int attr = li < num_cont ? cont_attr[li] : cat_attr[li - num_cont];
      std::vector<std::size_t>& nodes = elected_nodes[li];
      nodes.clear();
      for (std::size_t i = 0; i < m; ++i) {
        if (elected_mask[i * static_cast<std::size_t>(num_attrs) +
                         static_cast<std::size_t>(attr)]) {
          nodes.push_back(i);
        }
      }
    }
    for (std::size_t li = 0; li < num_cont; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[li];
      merge_counts_scratch.assign(nodes.size() * ubins * uc, 0);
      merge_min_scratch.assign(nodes.size() * ubins,
                               std::numeric_limits<double>::infinity());
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::size_t i = nodes[k];
        std::copy_n(cont_counts.data() + (li * m + i) * ubins * uc, ubins * uc,
                    merge_counts_scratch.data() + k * ubins * uc);
        std::copy_n(cont_bin_min.data() + (li * m + i) * ubins, ubins,
                    merge_min_scratch.data() + k * ubins);
      }
      seg_counts[li] = batch.add<std::int64_t>(
          std::span<const std::int64_t>(merge_counts_scratch), mp::SumOp{},
          std::int64_t{0});
      seg_min[li] = batch.add<double>(
          std::span<const double>(merge_min_scratch), mp::MinOp{},
          std::numeric_limits<double>::infinity());
    }
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[num_cont + li];
      const auto card = static_cast<std::size_t>(cat_card[li]);
      merge_counts_scratch.assign(nodes.size() * card * uc, 0);
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::size_t i = nodes[k];
        std::copy_n(cat_counts.data() + cat_counts_begin[li] + i * card * uc,
                    card * uc, merge_counts_scratch.data() + k * card * uc);
      }
      seg_cat[li] = batch.add<std::int64_t>(
          std::span<const std::int64_t>(merge_counts_scratch), mp::SumOp{},
          std::int64_t{0});
    }
    phase->set_bytes(static_cast<std::int64_t>(batch.packed_bytes()));
    level_histogram_bytes += batch.packed_bytes();
    batch.allreduce();

    // ---------------- FindSplitII: evaluate the merged histograms ----------
    phase.emplace(comm, "findsplit_ii", level_index, mm, level_records);
    std::vector<SplitCandidate> best(m);
    for (std::size_t li = 0; li < num_cont; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[li];
      const std::span<const std::int64_t> counts =
          batch.view<std::int64_t>(seg_counts[li]);
      const std::span<const double> mins = batch.view<double>(seg_min[li]);
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::size_t i = nodes[k];
        best_histogram_split(counts.subspan(k * ubins * uc, ubins * uc),
                             mins.subspan(k * ubins, ubins),
                             active[i].class_totals, bins, options.criterion,
                             static_cast<std::int32_t>(cont_attr[li]), best[i]);
        comm.add_work(static_cast<double>(ubins));
      }
    }
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[num_cont + li];
      const auto card = static_cast<std::size_t>(cat_card[li]);
      const std::span<const std::int64_t> counts =
          batch.view<std::int64_t>(seg_cat[li]);
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::size_t i = nodes[k];
        const CountMatrix matrix = CountMatrix::from_flat(
            cat_card[li], c, counts.subspan(k * card * uc, card * uc));
        const SplitCandidate cand = best_categorical_split(
            matrix, static_cast<std::int32_t>(cat_attr[li]),
            options.categorical_split, options.criterion);
        if (candidate_less(cand, best[i])) best[i] = cand;
        comm.add_work(static_cast<double>(card));
      }
    }
    {
      // All ranks evaluated identical global inputs, so this min-allreduce
      // is a pure SPMD-divergence guard (and keeps the exact engine's
      // closing collective structure).
      best = mp::allreduce_vec(comm, std::span<const SplitCandidate>(best),
                               CandidateMinOp{});
    }

    std::vector<bool> will_split(m, false);
    for (std::size_t i = 0; i < m; ++i) {
      if (!best[i].valid()) continue;
      const double node_impurity =
          impurity_of_counts(active[i].class_totals, options.criterion);
      will_split[i] =
          best[i].gini < node_impurity - options.min_gini_improvement;
    }

    // Categorical winners: every rank holds the merged matrix, so the
    // value -> child mappings are built redundantly everywhere — no
    // broadcast round. Copy them out before the batch is reused.
    std::vector<std::vector<std::int32_t>> value_to_child(m);
    for (std::size_t li = 0; li < num_cat; ++li) {
      const std::vector<std::size_t>& nodes = elected_nodes[num_cont + li];
      const auto card = static_cast<std::size_t>(cat_card[li]);
      const std::span<const std::int64_t> counts =
          batch.view<std::int64_t>(seg_cat[li]);
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const std::size_t i = nodes[k];
        if (!will_split[i] || best[i].attribute != cat_attr[li]) continue;
        const CountMatrix matrix = CountMatrix::from_flat(
            cat_card[li], c, counts.subspan(k * card * uc, card * uc));
        value_to_child[i] = best[i].kind == SplitKind::kCategoricalMultiWay
                                ? value_to_child_multiway(matrix)
                                : value_to_child_subset(matrix, best[i].subset);
      }
    }

    std::vector<int> num_children(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      if (!will_split[i]) continue;
      if (best[i].kind == SplitKind::kContinuous) {
        num_children[i] = 2;
      } else {
        num_children[i] = num_children_of(value_to_child[i]);
        if (num_children[i] < 2) {
          throw std::logic_error(
              "induction: categorical split with <2 children");
        }
      }
    }
    stats.findsplit_seconds += comm.vtime() - level_start_vtime;
    const double split_phase_start_vtime = comm.vtime();
    phase.reset();  // FindSplit II ends where PerformSplit I begins
    std::optional<PhaseSpan> split_span(std::in_place, comm, "performsplit_i",
                                        level_index, mm, level_records);

    // ---------------- PerformSplitI: apply splits locally ------------------
    // Every attribute of a record lives on this rank, so child assignment
    // is one local pass — no node table, no scatter, no enquiries. The only
    // communication is the child class-count allreduce that makes the new
    // tree nodes global.
    std::vector<std::size_t> kid_offset(m + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      kid_offset[i + 1] =
          kid_offset[i] + static_cast<std::size_t>(num_children[i]) * uc;
    }
    local_kid_counts.assign(kid_offset[m], 0);
    child_of_row.assign(local_n, -1);
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of[row];
      if (i < 0) continue;
      const auto ui = static_cast<std::size_t>(i);
      if (!will_split[ui]) continue;
      const SplitCandidate& win = best[ui];
      const auto slot =
          static_cast<std::size_t>(slot_of_attr[static_cast<std::size_t>(
              win.attribute)]);
      std::int32_t child;
      if (win.kind == SplitKind::kContinuous) {
        child = cont_col[slot][row] < win.threshold ? 0 : 1;
      } else {
        child = value_to_child[ui][static_cast<std::size_t>(
            cat_col[slot][row])];
        if (child < 0) {
          throw std::logic_error(
              "induction: training record with an unmapped categorical value");
        }
      }
      child_of_row[row] = child;
      ++local_kid_counts[kid_offset[ui] +
                         static_cast<std::size_t>(child) * uc +
                         static_cast<std::size_t>(row_cls[row])];
    }
    comm.add_work(static_cast<double>(local_n));

    std::vector<std::int64_t> global_kid_counts;
    if (!local_kid_counts.empty()) {
      batch.reset();
      const std::size_t seg = batch.add<std::int64_t>(
          std::span<const std::int64_t>(local_kid_counts), mp::SumOp{});
      batch.allreduce();
      global_kid_counts = batch.take<std::int64_t>(seg);
    }

    internal::LevelGrowth growth = internal::grow_tree_level(
        result.tree, active, best, will_split, num_children, value_to_child,
        kid_offset, global_kid_counts, c, options);

    split_span.emplace(comm, "performsplit_ii", level_index, mm,
                       level_records);

    // ---------------- PerformSplitII: renumber rows to next level ----------
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of[row];
      if (i < 0) continue;
      const std::int32_t child = child_of_row[row];
      node_of[row] =
          child >= 0
              ? growth.child_slot_target[static_cast<std::size_t>(i)]
                                        [static_cast<std::size_t>(child)]
              : -1;
    }
    comm.add_work(static_cast<double>(local_n));

    // ---------------- Level bookkeeping ------------------------------------
    split_span.reset();
    stats.performsplit_seconds += comm.vtime() - split_phase_start_vtime;
    ++stats.levels;
    histogram_bytes_total += level_histogram_bytes;
    vote_bytes_total += level_vote_bytes;
    if (controls.collect_level_stats) {
      PhaseSpan level_span(comm, "level_stats", level_index, mm,
                           level_records);
      LevelStats level;
      level.level = stats.levels;
      level.active_nodes = mm;
      level.active_records = level_records;
      std::uint64_t calls = 0;
      for (int op = 0; op < mp::kNumCommOps; ++op) {
        if (op == static_cast<int>(mp::CommOp::kPointToPoint)) continue;
        calls += comm.stats().calls_by_op[static_cast<std::size_t>(op)] -
                 level_start_calls[static_cast<std::size_t>(op)];
      }
      level.collective_calls = static_cast<std::int64_t>(calls);
      const std::uint64_t sent = comm.stats().bytes_sent - level_start_bytes;
      level.max_bytes_sent_per_rank =
          mp::allreduce_value(comm, sent, mp::MaxOp{});
      level.vtime_end = comm.vtime();
      stats.per_level.push_back(level);
    }

    // Live telemetry: same per-level publish as the exact path (see
    // induction.cpp) so `train --telemetry-out` covers every split mode.
    if (telemetry::live_metrics_enabled()) {
      if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
        mp::MetricsSnapshot live = *sink;
        absorb_induction_stats(live, stats);
        mp::absorb_comm_stats(live, comm.stats());
        telemetry::publish_metrics("rank" + std::to_string(comm.rank()), live);
      }
    }

    ++level_index;
    active = std::move(growth.next_active);
  }

  stats.total_seconds = comm.vtime();
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    absorb_induction_stats(*sink, stats);
    sink->add("comm.histogram_bytes",
              static_cast<double>(histogram_bytes_total));
    if (voting) {
      sink->add("comm.vote_bytes", static_cast<double>(vote_bytes_total));
    }
  }
  return result;
}

}  // namespace scalparc::core
