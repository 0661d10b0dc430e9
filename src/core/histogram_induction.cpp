// Histogram-quantized induction engine (SplitMode::kHistogram / kVoting).
//
// The exact ScalParC engine keeps every attribute list globally sorted and
// pays O(N/p) communication per level for the node-table scatter/enquiry
// traffic of the splitting phase. This engine instead follows PV-Tree
// (arXiv 1611.01276): each rank keeps its *horizontal* block of records
// (all attributes of its rows), so applying a split is purely local, and
// split determination moves only fixed-width histograms — O(attributes *
// bins) bytes per level, independent of N. Voting mode shrinks that
// further: ranks vote their local top-k attributes and only the globally
// elected attributes' histograms are merged.
//
// The level loop around it is core/level_driver.cpp, so the engine produces
// the same artifacts as the exact one — identical tree representation,
// identical checkpoint format (sorted AoS attribute-list sections) — and
// checkpoints interoperate across split modes.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/count_matrix.hpp"
#include "core/elastic_restore.hpp"
#include "core/gini.hpp"
#include "core/histogram.hpp"
#include "core/induction_internal.hpp"
#include "core/split_finder.hpp"
#include "core/splitter.hpp"
#include "data/attribute_list.hpp"
#include "mp/collective_batch.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"

namespace scalparc::core {

namespace {

using data::AttributeKind;
using data::CategoricalEntry;
using data::ContinuousEntry;
using internal::Level;

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
  double value = 0.0;     // continuous value, or categorical code (exact)
  std::int64_t rid = 0;
  std::int32_t slot = 0;  // list index: continuous lists first, then cat
  std::int32_t cls = 0;
  std::int32_t node = 0;  // active-node index
};

// The part of an offsets_from_sizes() partition that holds `index`
// (offsets.front() <= index < offsets.back()).
int part_holding(const std::vector<std::size_t>& offsets, std::size_t index) {
  const auto next = std::upper_bound(offsets.begin(), offsets.end(), index);
  return static_cast<int>(next - offsets.begin()) - 1;
}

class HistogramEngine final : public internal::InductionEngine {
 public:
  HistogramEngine(mp::Comm& comm, const data::Schema& schema,
                  std::uint64_t total_records,
                  const InductionControls& controls)
      : comm_(comm),
        options_(controls.options),
        total_records_(total_records),
        c_(schema.num_classes()),
        uc_(static_cast<std::size_t>(c_)),
        bins_(options_.hist_bins),
        ubins_(static_cast<std::size_t>(bins_)),
        voting_(options_.split_mode == SplitMode::kVoting),
        num_attrs_(schema.num_attributes()),
        slot_of_attr_(static_cast<std::size_t>(num_attrs_), -1),
        batch_(comm),
        map_batch_(comm) {
    if (bins_ < 2) {
      throw std::invalid_argument(
          "induce_tree_distributed: hist_bins must be >= 2");
    }
    if (voting_ && options_.top_k < 1) {
      throw std::invalid_argument(
          "induce_tree_distributed: top_k must be >= 1");
    }
    if (controls.checkpoint.weighted()) {
      // Record ownership is structural here (the equal block partition
      // tiles [0, total) uniformly), so a weighted restore cannot steer
      // work away from a slow rank. Reject loudly instead of silently
      // ignoring the rebalance request.
      throw std::invalid_argument(
          "induce_tree_distributed: non-uniform rank_weights are not "
          "supported by the histogram engine (row ownership is structural); "
          "use the exact engine for straggler rebalance");
    }
    // Continuous and categorical list slots in schema order (matching the
    // exact engine's cont<li>/cat<li> checkpoint tags).
    for (int a = 0; a < num_attrs_; ++a) {
      if (schema.attribute(a).kind == AttributeKind::kContinuous) {
        slot_of_attr_[static_cast<std::size_t>(a)] =
            static_cast<int>(cont_attr_.size());
        cont_attr_.push_back(a);
      } else {
        slot_of_attr_[static_cast<std::size_t>(a)] =
            static_cast<int>(cat_attr_.size());
        cat_attr_.push_back(a);
        cat_card_.push_back(schema.attribute(a).cardinality);
      }
    }
    num_cont_ = cont_attr_.size();
    num_cat_ = cat_attr_.size();
    cont_col_.resize(num_cont_);
    cat_col_.resize(num_cat_);
    cat_counts_begin_.resize(num_cat_ + 1);
    elected_nodes_.resize(num_cont_ + num_cat_);
    chunk_offsets_.resize(num_cont_ + num_cat_);
    seg_counts_.resize(num_cont_);
    seg_min_.resize(num_cont_);
    seg_cat_.resize(num_cat_);
  }

  void build(const data::Dataset& local_block,
             std::int64_t first_rid) override {
    const std::size_t local_n = local_block.num_records();
    for (std::size_t li = 0; li < num_cont_; ++li) {
      const std::span<const double> col =
          local_block.continuous_column(cont_attr_[li]);
      cont_col_[li].assign(col.begin(), col.end());
    }
    for (std::size_t li = 0; li < num_cat_; ++li) {
      const std::span<const std::int32_t> col =
          local_block.categorical_column(cat_attr_[li]);
      cat_col_[li].assign(col.begin(), col.end());
    }
    row_cls_.assign(local_block.labels().begin(), local_block.labels().end());
    node_of_.assign(local_n, 0);
    my_first_ = first_rid;
    meter_rows();
    comm_.add_work(static_cast<double>(local_n));
  }

  void restore(const std::string& level_dir,
               const CheckpointManifest& manifest,
               std::size_t num_active) override;
  void write_checkpoint(CheckpointRankWriter& writer,
                        std::size_t num_active) override;
  void find_splits(Level& level) override;
  void map_categorical(Level& level) override;
  void perform_split_i(Level& level,
                       std::vector<std::int64_t>& kid_counts) override;
  void perform_split_ii(Level& level,
                        const internal::LevelGrowth& growth) override;

  void absorb_metrics(mp::MetricsSnapshot& sink) const override {
    sink.add("comm.histogram_bytes",
             static_cast<double>(histogram_bytes_total_));
    if (voting_) {
      sink.add("comm.vote_bytes", static_cast<double>(vote_bytes_total_));
    }
  }

 private:
  void meter_rows() {
    const std::size_t n = row_cls_.size();
    rows_mem_ = util::ScopedAllocation(
        comm_.meter(), util::MemCategory::kAttributeLists,
        n * (num_cont_ * sizeof(double) + num_cat_ * sizeof(std::int32_t) +
             2 * sizeof(std::int32_t)));
  }

  // Adds the rows of `rows` (`width` elements each) to batch_ as one
  // segment per non-empty owner chunk of `chunks` (an offsets_from_sizes()
  // partition of the rows), rooted at the chunk's owner, and adds their
  // payload bytes to `payload_bytes`. Returns this rank's segment when its
  // chunk is non-empty.
  template <typename T, typename Combine>
  std::size_t add_owner_chunks(const std::vector<T>& rows,
                               const std::vector<std::size_t>& chunks,
                               std::size_t width, Combine combine,
                               const T& identity,
                               std::uint64_t& payload_bytes) {
    std::size_t own = std::numeric_limits<std::size_t>::max();
    for (int r = 0; r < comm_.size(); ++r) {
      const std::size_t lo = chunks[static_cast<std::size_t>(r)];
      const std::size_t hi = chunks[static_cast<std::size_t>(r) + 1];
      if (lo == hi) continue;
      const std::span<const T> chunk =
          std::span<const T>(rows).subspan(lo * width, (hi - lo) * width);
      const std::size_t seg = batch_.add<T>(chunk, combine, identity, r);
      payload_bytes += chunk.size_bytes();
      if (r == comm_.rank()) own = seg;
    }
    return own;
  }

  mp::Comm& comm_;
  const InductionOptions& options_;
  const std::uint64_t total_records_;
  const int c_;
  const std::size_t uc_;
  const int bins_;
  const std::size_t ubins_;
  const bool voting_;
  const int num_attrs_;
  std::vector<int> cont_attr_, cat_attr_;
  std::vector<std::int32_t> cat_card_;
  std::vector<int> slot_of_attr_;
  std::size_t num_cont_ = 0;
  std::size_t num_cat_ = 0;

  // The horizontal record block: one column per attribute plus the label
  // stream, and node_of mapping each local row to its current active-node
  // index (-1 once the row lands in a leaf).
  std::vector<std::vector<double>> cont_col_;
  std::vector<std::vector<std::int32_t>> cat_col_;
  std::vector<std::int32_t> row_cls_;
  std::vector<std::int32_t> node_of_;
  std::int64_t my_first_ = 0;
  util::ScopedAllocation rows_mem_;

  // Per-level scratch, hoisted so capacity is reused across levels.
  mp::CollectiveBatch batch_;
  std::vector<ValueRange> ranges_scratch_;
  std::vector<ValueRange> ranges_;
  std::vector<std::int64_t> cont_counts_;   // [li][node][bin][class]
  std::vector<double> cont_bin_min_;        // [li][node][bin]
  std::vector<std::int64_t> cat_counts_;    // per list: [node][value][class]
  std::vector<std::size_t> cat_counts_begin_;
  std::vector<std::int64_t> local_totals_;  // [node][class], voting only
  std::vector<std::int32_t> votes_;         // [node][attribute], voting only
  std::vector<std::uint8_t> elected_mask_;  // [node][attribute]
  std::vector<std::vector<std::size_t>> elected_nodes_;
  // Per list, the owner chunks of its elected nodes: the equal block
  // partition over the ranks as offsets_from_sizes() offsets.
  std::vector<std::vector<std::size_t>> chunk_offsets_;
  std::vector<std::int64_t> merge_counts_scratch_;
  std::vector<double> merge_min_scratch_;
  // This rank's merged chunk per list: a segment of batch_ after round 2,
  // defined only where the chunk is non-empty.
  std::vector<std::size_t> seg_counts_, seg_min_, seg_cat_;
  mp::CollectiveBatch map_batch_;          // categorical mappings
  std::vector<std::size_t> mapped_nodes_;  // node of each map_batch_ segment
  std::vector<std::int32_t> child_of_row_;
  std::uint64_t histogram_bytes_total_ = 0;
  std::uint64_t vote_bytes_total_ = 0;
};

// Checkpoints are written as sorted vertical attribute-list sections (the
// shared on-disk format); reconstruct the horizontal rows by reading the
// writer ranks' sections round-robin and routing every value to the rank
// owning its record in the equal block partition. This one path serves
// same-world, shrink and grow resumes alike, and accepts checkpoints written
// by either engine.
void HistogramEngine::restore(const std::string& level_dir,
                              const CheckpointManifest& manifest,
                              std::size_t num_active) {
  const int p = comm_.size();
  // Equal block partition of [0, total) across the current world.
  const std::vector<std::size_t> sizes =
      sort::equal_partition_sizes(total_records_, p);
  const std::vector<std::size_t> block_offsets =
      sort::offsets_from_sizes(sizes);
  my_first_ = static_cast<std::int64_t>(
      block_offsets[static_cast<std::size_t>(comm_.rank())]);
  const std::size_t local_n = sizes[static_cast<std::size_t>(comm_.rank())];
  for (std::size_t li = 0; li < num_cont_; ++li) {
    cont_col_[li].assign(local_n, 0.0);
  }
  for (std::size_t li = 0; li < num_cat_; ++li) cat_col_[li].assign(local_n, 0);
  row_cls_.assign(local_n, 0);
  node_of_.assign(local_n, -1);
  std::vector<std::uint16_t> seen(local_n, 0);
  meter_rows();

  std::vector<std::vector<RowWire>> sendbufs(static_cast<std::size_t>(p));
  const auto route = [&](CheckpointRankReader& reader, auto entry_type,
                         const std::string& tag, std::size_t slot) {
    using Entry = decltype(entry_type);
    const RestoredList<Entry> list =
        read_list_section<Entry>(reader, tag, num_active);
    for (std::size_t i = 0; i < num_active; ++i) {
      for (std::size_t idx = list.offsets[i]; idx < list.offsets[i + 1];
           ++idx) {
        const Entry& e = list.entries[idx];
        if (e.rid < 0 || static_cast<std::uint64_t>(e.rid) >= total_records_) {
          throw CheckpointCorruptError("restored rid outside the training set");
        }
        RowWire w;
        w.value = e.value;
        w.rid = e.rid;
        w.slot = static_cast<std::int32_t>(slot);
        w.cls = e.cls;
        w.node = static_cast<std::int32_t>(i);
        sendbufs[static_cast<std::size_t>(part_holding(
                     block_offsets, static_cast<std::size_t>(e.rid)))]
            .push_back(w);
      }
    }
  };
  for (int writer = comm_.rank(); writer < manifest.ranks; writer += p) {
    CheckpointRankReader reader(level_dir, writer);
    for (std::size_t li = 0; li < num_cont_; ++li) {
      route(reader, ContinuousEntry{}, "cont" + std::to_string(li), li);
    }
    for (std::size_t li = 0; li < num_cat_; ++li) {
      route(reader, CategoricalEntry{}, "cat" + std::to_string(li),
            num_cont_ + li);
    }
  }

  const std::vector<std::vector<RowWire>> received =
      mp::alltoallv(comm_, sendbufs);
  sendbufs.clear();
  std::size_t arrived = 0;
  for (const std::vector<RowWire>& from : received) {
    for (const RowWire& w : from) {
      const std::int64_t row64 = w.rid - my_first_;
      if (row64 < 0 || row64 >= static_cast<std::int64_t>(local_n)) {
        throw CheckpointCorruptError("restored rid outside this rank's block");
      }
      const auto row = static_cast<std::size_t>(row64);
      const auto slot = static_cast<std::size_t>(w.slot);
      if (slot < num_cont_) {
        cont_col_[slot][row] = w.value;
      } else if (slot < num_cont_ + num_cat_) {
        cat_col_[slot - num_cont_][row] = static_cast<std::int32_t>(w.value);
      } else {
        throw CheckpointCorruptError("restored value names a bad list slot");
      }
      row_cls_[row] = w.cls;
      if (node_of_[row] < 0) {
        node_of_[row] = w.node;
      } else if (node_of_[row] != w.node) {
        throw CheckpointCorruptError(
            "restored record is assigned to two active nodes");
      }
      ++seen[row];
      ++arrived;
    }
  }
  comm_.add_work(static_cast<double>(arrived));
  for (std::size_t row = 0; row < local_n; ++row) {
    const std::size_t expect = node_of_[row] >= 0 ? num_cont_ + num_cat_ : 0;
    if (seen[row] != expect) {
      throw CheckpointCorruptError(
          "restored record is missing attribute values");
    }
  }
}

// The rows are widened back into per-attribute sorted AoS sections (one
// parallel sort per list), so any engine and world size can restore them.
void HistogramEngine::write_checkpoint(CheckpointRankWriter& writer,
                                       std::size_t num_active) {
  const std::size_t m = num_active;
  const std::size_t local_n = row_cls_.size();
  std::vector<std::uint64_t> offs;
  const auto offsets_of = [&](auto node_of_entry, std::size_t count) {
    offs.assign(m + 1, 0);
    for (std::size_t k = 0; k < count; ++k) {
      ++offs[static_cast<std::size_t>(node_of_entry(k)) + 1];
    }
    for (std::size_t i = 0; i < m; ++i) offs[i + 1] += offs[i];
  };
  for (std::size_t li = 0; li < num_cont_; ++li) {
    std::vector<ContinuousEntry> ent;
    ent.reserve(local_n);
    for (std::size_t row = 0; row < local_n; ++row) {
      if (node_of_[row] < 0) continue;
      ContinuousEntry e;
      e.value = cont_col_[li][row];
      e.rid = my_first_ + static_cast<std::int64_t>(row);
      e.cls = row_cls_[row];
      e.pad = node_of_[row];
      ent.push_back(e);
    }
    ent = sort::sample_sort(comm_, std::move(ent), ContCkptLess{});
    offsets_of([&](std::size_t k) { return ent[k].pad; }, ent.size());
    for (ContinuousEntry& e : ent) e.pad = 0;
    const std::string tag = "cont" + std::to_string(li);
    writer.write_section<ContinuousEntry>(tag, ent);
    writer.write_section<std::uint64_t>(tag + "_off", offs);
  }
  for (std::size_t li = 0; li < num_cat_; ++li) {
    std::vector<CatKeyedEntry> keyed;
    keyed.reserve(local_n);
    for (std::size_t row = 0; row < local_n; ++row) {
      if (node_of_[row] < 0) continue;
      CatKeyedEntry e;
      e.rid = my_first_ + static_cast<std::int64_t>(row);
      e.value = cat_col_[li][row];
      e.cls = row_cls_[row];
      e.node = node_of_[row];
      keyed.push_back(e);
    }
    keyed = sort::sample_sort(comm_, std::move(keyed), CatKeyedLess{});
    offsets_of([&](std::size_t k) { return keyed[k].node; }, keyed.size());
    std::vector<CategoricalEntry> ent(keyed.size());
    for (std::size_t k = 0; k < keyed.size(); ++k) {
      ent[k] = CategoricalEntry{keyed[k].rid, keyed[k].value, keyed[k].cls};
    }
    const std::string tag = "cat" + std::to_string(li);
    writer.write_section<CategoricalEntry>(tag, ent);
    writer.write_section<std::uint64_t>(tag + "_off", offs);
  }
}

void HistogramEngine::find_splits(Level& level) {
  const std::size_t m = level.m;
  const std::size_t local_n = row_cls_.size();
  const std::size_t uc = uc_;
  const std::size_t ubins = ubins_;
  const auto na = static_cast<std::size_t>(num_attrs_);

  // ---------------- FindSplitI: ranges, histograms, election -------------
  level.phase("findsplit_i");

  // Round 1: global [lo, hi] per (continuous attribute, node) so every rank
  // bins with the identical edges.
  ranges_scratch_.assign(num_cont_ * m, ValueRange{});
  for (std::size_t li = 0; li < num_cont_; ++li) {
    const double* const col = cont_col_[li].data();
    ValueRange* const out = ranges_scratch_.data() + li * m;
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of_[row];
      if (i < 0) continue;
      ValueRange& r = out[static_cast<std::size_t>(i)];
      const double v = col[row];
      if (v < r.lo) r.lo = v;
      if (v > r.hi) r.hi = v;
    }
    comm_.add_work(static_cast<double>(local_n));
  }
  batch_.reset();
  const std::size_t seg_ranges = batch_.add<ValueRange>(
      std::span<const ValueRange>(ranges_scratch_), RangeOp{}, ValueRange{});
  histogram_bytes_total_ += batch_.packed_bytes();
  batch_.allreduce();
  ranges_ = batch_.take<ValueRange>(seg_ranges);

  // Local histograms: per continuous list [node][bin][class] counts plus the
  // per-bin minimum value; per categorical list the usual
  // [node][value][class] count matrix.
  cont_counts_.assign(num_cont_ * m * ubins * uc, 0);
  cont_bin_min_.assign(num_cont_ * m * ubins,
                       std::numeric_limits<double>::infinity());
  for (std::size_t li = 0; li < num_cont_; ++li) {
    const double* const col = cont_col_[li].data();
    const ValueRange* const rng = ranges_.data() + li * m;
    std::int64_t* const counts = cont_counts_.data() + li * m * ubins * uc;
    double* const mins = cont_bin_min_.data() + li * m * ubins;
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of_[row];
      if (i < 0) continue;
      const auto ui = static_cast<std::size_t>(i);
      const double v = col[row];
      const auto b =
          static_cast<std::size_t>(histogram_bin_of(v, rng[ui], bins_));
      ++counts[(ui * ubins + b) * uc + static_cast<std::size_t>(row_cls_[row])];
      if (v < mins[ui * ubins + b]) mins[ui * ubins + b] = v;
    }
    comm_.add_work(static_cast<double>(local_n));
  }
  cat_counts_begin_[0] = 0;
  for (std::size_t li = 0; li < num_cat_; ++li) {
    const auto card = static_cast<std::size_t>(cat_card_[li]);
    cat_counts_begin_[li + 1] = cat_counts_begin_[li] + m * card * uc;
  }
  cat_counts_.assign(cat_counts_begin_[num_cat_], 0);
  for (std::size_t li = 0; li < num_cat_; ++li) {
    const std::int32_t* const col = cat_col_[li].data();
    const auto card = static_cast<std::size_t>(cat_card_[li]);
    std::int64_t* const counts = cat_counts_.data() + cat_counts_begin_[li];
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of_[row];
      if (i < 0) continue;
      ++counts[(static_cast<std::size_t>(i) * card +
                static_cast<std::size_t>(col[row])) *
                   uc +
               static_cast<std::size_t>(row_cls_[row])];
    }
    comm_.add_work(static_cast<double>(local_n));
  }

  // Election: which (node, attribute) histograms get merged. Histogram mode
  // merges everything; voting mode lets each rank vote its local top-k
  // attributes per node, sums the votes in one packed allreduce and keeps
  // the global top-2k (all attributes when nobody could vote, e.g. every
  // rank's local fragment of the node is single-valued).
  elected_mask_.assign(m * na, 1);
  if (voting_) {
    local_totals_.assign(m * uc, 0);
    for (std::size_t row = 0; row < local_n; ++row) {
      const std::int32_t i = node_of_[row];
      if (i < 0) continue;
      ++local_totals_[static_cast<std::size_t>(i) * uc +
                      static_cast<std::size_t>(row_cls_[row])];
    }
    comm_.add_work(static_cast<double>(local_n));
    votes_.assign(m * na, 0);
    std::vector<std::pair<double, int>> scored;
    for (std::size_t i = 0; i < m; ++i) {
      scored.clear();
      const std::span<const std::int64_t> totals(local_totals_.data() + i * uc,
                                                 uc);
      for (std::size_t li = 0; li < num_cont_; ++li) {
        SplitCandidate cand;
        best_histogram_split(
            std::span<const std::int64_t>(
                cont_counts_.data() + (li * m + i) * ubins * uc, ubins * uc),
            std::span<const double>(
                cont_bin_min_.data() + (li * m + i) * ubins, ubins),
            totals, bins_, options_.criterion,
            static_cast<std::int32_t>(cont_attr_[li]), cand);
        if (cand.valid()) scored.emplace_back(cand.gini, cont_attr_[li]);
      }
      for (std::size_t li = 0; li < num_cat_; ++li) {
        const auto card = static_cast<std::size_t>(cat_card_[li]);
        const CountMatrix matrix = CountMatrix::from_flat(
            cat_card_[li], c_,
            std::span<const std::int64_t>(
                cat_counts_.data() + cat_counts_begin_[li] + i * card * uc,
                card * uc));
        const SplitCandidate cand = best_categorical_split(
            matrix, static_cast<std::int32_t>(cat_attr_[li]),
            options_.categorical_split, options_.criterion);
        if (cand.valid()) scored.emplace_back(cand.gini, cat_attr_[li]);
      }
      std::sort(scored.begin(), scored.end());
      const std::size_t k =
          std::min(scored.size(), static_cast<std::size_t>(options_.top_k));
      for (std::size_t s = 0; s < k; ++s) {
        votes_[i * na + static_cast<std::size_t>(scored[s].second)] = 1;
      }
      comm_.add_work(static_cast<double>(num_attrs_));
    }
    batch_.reset();
    const std::size_t vote_seg = batch_.add<std::int32_t>(
        std::span<const std::int32_t>(votes_), mp::SumOp{}, std::int32_t{0});
    vote_bytes_total_ += batch_.packed_bytes();
    batch_.allreduce();
    const std::span<const std::int32_t> vote_totals =
        batch_.view<std::int32_t>(vote_seg);

    elected_mask_.assign(m * na, 0);
    std::vector<std::pair<std::int32_t, int>> ranked;
    for (std::size_t i = 0; i < m; ++i) {
      ranked.clear();
      for (int a = 0; a < num_attrs_; ++a) {
        const std::int32_t v =
            vote_totals[i * na + static_cast<std::size_t>(a)];
        ranked.emplace_back(-v, a);  // by votes desc, ties by attr asc
      }
      std::sort(ranked.begin(), ranked.end());
      // Always elect exactly min(2k, A) attributes: zero-vote attributes
      // (valid globally but never scoreable locally — e.g. every rank's
      // fragment is single-valued) rank after the voted ones in ascending id
      // order, so the merge set stays deterministic and with 2k >= A voting
      // degenerates to histogram mode exactly.
      const std::size_t keep = std::min(
          ranked.size(), static_cast<std::size_t>(2) *
                             static_cast<std::size_t>(options_.top_k));
      for (std::size_t s = 0; s < keep; ++s) {
        elected_mask_[i * na + static_cast<std::size_t>(ranked[s].second)] = 1;
      }
    }
  }

  // Round 2: merge each elected histogram / count matrix at one owner rank.
  // Every list's elected nodes are cut into p contiguous chunks, chunk r
  // owned by rank r, and one rooted reduce sends each peer only its chunk.
  // The elected sets derive from global data, so every rank builds the
  // identical segment directory.
  batch_.reset();
  for (std::size_t li = 0; li < num_cont_ + num_cat_; ++li) {
    const int attr =
        li < num_cont_ ? cont_attr_[li] : cat_attr_[li - num_cont_];
    std::vector<std::size_t>& nodes = elected_nodes_[li];
    nodes.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (elected_mask_[i * na + static_cast<std::size_t>(attr)]) {
        nodes.push_back(i);
      }
    }
    chunk_offsets_[li] = sort::offsets_from_sizes(
        sort::equal_partition_sizes(nodes.size(), comm_.size()));
  }
  std::uint64_t merged_bytes = 0;
  for (std::size_t li = 0; li < num_cont_; ++li) {
    const std::vector<std::size_t>& nodes = elected_nodes_[li];
    merge_counts_scratch_.assign(nodes.size() * ubins * uc, 0);
    merge_min_scratch_.assign(nodes.size() * ubins,
                              std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const std::size_t i = nodes[k];
      std::copy_n(cont_counts_.data() + (li * m + i) * ubins * uc, ubins * uc,
                  merge_counts_scratch_.data() + k * ubins * uc);
      std::copy_n(cont_bin_min_.data() + (li * m + i) * ubins, ubins,
                  merge_min_scratch_.data() + k * ubins);
    }
    seg_counts_[li] =
        add_owner_chunks(merge_counts_scratch_, chunk_offsets_[li], ubins * uc,
                         mp::SumOp{}, std::int64_t{0}, merged_bytes);
    seg_min_[li] = add_owner_chunks(
        merge_min_scratch_, chunk_offsets_[li], ubins, mp::MinOp{},
        std::numeric_limits<double>::infinity(), merged_bytes);
  }
  for (std::size_t li = 0; li < num_cat_; ++li) {
    const std::vector<std::size_t>& nodes = elected_nodes_[num_cont_ + li];
    const auto card = static_cast<std::size_t>(cat_card_[li]);
    merge_counts_scratch_.assign(nodes.size() * card * uc, 0);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const std::size_t i = nodes[k];
      std::copy_n(cat_counts_.data() + cat_counts_begin_[li] + i * card * uc,
                  card * uc, merge_counts_scratch_.data() + k * card * uc);
    }
    seg_cat_[li] = add_owner_chunks(
        merge_counts_scratch_, chunk_offsets_[num_cont_ + li], card * uc,
        mp::SumOp{}, std::int64_t{0}, merged_bytes);
  }
  // The segments' payload: the padding packed between them is not sent.
  level.set_bytes(static_cast<std::int64_t>(merged_bytes));
  histogram_bytes_total_ += merged_bytes;
  batch_.reduce_rooted();

  // ---------------- FindSplitII: score the owned histograms --------------
  // Each rank scores only the chunks it owns; the driver's closing
  // min-allreduce picks every node's winner among its owners' candidates.
  level.phase("findsplit_ii");
  const auto rank = static_cast<std::size_t>(comm_.rank());
  std::vector<SplitCandidate>& best = level.best;
  for (std::size_t li = 0; li < num_cont_; ++li) {
    const std::vector<std::size_t>& nodes = elected_nodes_[li];
    const std::size_t lo = chunk_offsets_[li][rank];
    const std::size_t hi = chunk_offsets_[li][rank + 1];
    if (lo == hi) continue;
    const std::span<const std::int64_t> counts =
        batch_.view<std::int64_t>(seg_counts_[li]);
    const std::span<const double> mins = batch_.view<double>(seg_min_[li]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = nodes[k];
      best_histogram_split(counts.subspan((k - lo) * ubins * uc, ubins * uc),
                           mins.subspan((k - lo) * ubins, ubins),
                           level.active[i].class_totals, bins_,
                           options_.criterion,
                           static_cast<std::int32_t>(cont_attr_[li]), best[i]);
      comm_.add_work(static_cast<double>(ubins));
    }
  }
  for (std::size_t li = 0; li < num_cat_; ++li) {
    const std::vector<std::size_t>& nodes = elected_nodes_[num_cont_ + li];
    const std::size_t lo = chunk_offsets_[num_cont_ + li][rank];
    const std::size_t hi = chunk_offsets_[num_cont_ + li][rank + 1];
    if (lo == hi) continue;
    const auto card = static_cast<std::size_t>(cat_card_[li]);
    const std::span<const std::int64_t> counts =
        batch_.view<std::int64_t>(seg_cat_[li]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = nodes[k];
      const CountMatrix matrix = CountMatrix::from_flat(
          cat_card_[li], c_, counts.subspan((k - lo) * card * uc, card * uc));
      const SplitCandidate cand = best_categorical_split(
          matrix, static_cast<std::int32_t>(cat_attr_[li]),
          options_.categorical_split, options_.criterion);
      if (candidate_less(cand, best[i])) best[i] = cand;
      comm_.add_work(static_cast<double>(card));
    }
  }
}

void HistogramEngine::map_categorical(Level& level) {
  // Only the owner of a winning (node, categorical attribute) matrix holds
  // it merged (still in the batch from find_splits), so the owner builds the
  // value -> child mapping and one rooted broadcast publishes them all. The
  // winners and cardinalities are global, so every other rank contributes a
  // correctly-sized placeholder; with no categorical winner the batch stays
  // empty and the round is skipped.
  map_batch_.reset();
  mapped_nodes_.clear();
  for (std::size_t i = 0; i < level.m; ++i) {
    const SplitCandidate& win = level.best[i];
    if (!level.will_split[i] || win.kind == SplitKind::kContinuous) continue;
    const auto li = static_cast<std::size_t>(
        slot_of_attr_[static_cast<std::size_t>(win.attribute)]);
    const std::vector<std::size_t>& nodes = elected_nodes_[num_cont_ + li];
    const std::vector<std::size_t>& chunks = chunk_offsets_[num_cont_ + li];
    const auto k = static_cast<std::size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), i) - nodes.begin());
    const int owner = part_holding(chunks, k);
    const auto card = static_cast<std::size_t>(cat_card_[li]);
    std::vector<std::int32_t>& mapping = level.value_to_child[i];
    if (owner == comm_.rank()) {
      const std::size_t row = k - chunks[static_cast<std::size_t>(owner)];
      const CountMatrix matrix = CountMatrix::from_flat(
          cat_card_[li], c_,
          batch_.view<std::int64_t>(seg_cat_[li])
              .subspan(row * card * uc_, card * uc_));
      mapping = win.kind == SplitKind::kCategoricalMultiWay
                    ? value_to_child_multiway(matrix)
                    : value_to_child_subset(matrix, win.subset);
    } else {
      mapping.assign(card, 0);
    }
    map_batch_.add<std::int32_t>(std::span<const std::int32_t>(mapping),
                                 mp::SumOp{}, std::int32_t{0}, owner);
    mapped_nodes_.push_back(i);
  }
  map_batch_.bcast_rooted();
  for (std::size_t s = 0; s < mapped_nodes_.size(); ++s) {
    const std::span<const std::int32_t> mapping =
        map_batch_.view<std::int32_t>(s);
    level.value_to_child[mapped_nodes_[s]].assign(mapping.begin(),
                                                  mapping.end());
  }
}

void HistogramEngine::perform_split_i(Level& level,
                                      std::vector<std::int64_t>& kid_counts) {
  // Every attribute of a record lives on this rank, so child assignment is
  // one local pass — no node table, no scatter, no enquiries.
  const std::size_t local_n = row_cls_.size();
  child_of_row_.assign(local_n, -1);
  for (std::size_t row = 0; row < local_n; ++row) {
    const std::int32_t i = node_of_[row];
    if (i < 0) continue;
    const auto ui = static_cast<std::size_t>(i);
    if (!level.will_split[ui]) continue;
    const SplitCandidate& win = level.best[ui];
    const auto slot = static_cast<std::size_t>(
        slot_of_attr_[static_cast<std::size_t>(win.attribute)]);
    std::int32_t child;
    if (win.kind == SplitKind::kContinuous) {
      child = cont_col_[slot][row] < win.threshold ? 0 : 1;
    } else {
      child = level.value_to_child[ui][static_cast<std::size_t>(
          cat_col_[slot][row])];
      if (child < 0) {
        throw std::logic_error(
            "induction: training record with an unmapped categorical value");
      }
    }
    child_of_row_[row] = child;
    ++kid_counts[level.kid_offset[ui] + static_cast<std::size_t>(child) * uc_ +
                 static_cast<std::size_t>(row_cls_[row])];
  }
  comm_.add_work(static_cast<double>(local_n));
}

void HistogramEngine::perform_split_ii(Level& level,
                                       const internal::LevelGrowth& growth) {
  // Renumber every row to its next-level active node.
  level.phase("performsplit_ii");
  const std::size_t local_n = row_cls_.size();
  for (std::size_t row = 0; row < local_n; ++row) {
    const std::int32_t i = node_of_[row];
    if (i < 0) continue;
    const std::int32_t child = child_of_row_[row];
    node_of_[row] =
        child >= 0 ? growth.child_slot_target[static_cast<std::size_t>(i)]
                                             [static_cast<std::size_t>(child)]
                   : -1;
  }
  comm_.add_work(static_cast<double>(local_n));
}

}  // namespace

std::unique_ptr<internal::InductionEngine> internal::make_histogram_engine(
    mp::Comm& comm, const data::Schema& schema, std::uint64_t total_records,
    const InductionControls& controls) {
  return std::make_unique<HistogramEngine>(comm, schema, total_records,
                                           controls);
}

}  // namespace scalparc::core
