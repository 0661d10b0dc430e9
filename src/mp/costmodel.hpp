// LogP-style linear communication/computation cost model.
//
// The paper benchmarks the Cray T3D's tuned MPI "assuming a linear model of
// communication": a fixed latency plus a per-byte bandwidth term for
// point-to-point messages, and a per-processor latency for all-to-all
// collectives. We reproduce timing the same way: every rank carries a
// virtual clock; computation advances it by (work units x seconds/unit),
// every message advances the receiver to
//   max(receiver_clock, sender_clock_at_send + latency + bytes/bandwidth)
// and synchronizing collectives align all clocks to the participant maximum.
// All-to-all built from p-1 buffered sends naturally costs
// O(p x overhead + bytes/bandwidth) per rank — the paper's observed shape.
//
// Calibration (documented substitution, see DESIGN.md §2): the OCR of the
// paper garbles the exact constants; we use values consistent with published
// Cray T3D MPI measurements of that era:
//   point-to-point latency ~30 us, bandwidth ~35 MB/s,
//   per-message CPU overhead ~10 us,
//   per-processor all-to-all overhead ~20 us (emerges from p-1 sends),
//   ~150 MHz Alpha EV4 compute: 0.25 us per record-field visit.
// Only the *shape* of the curves depends on these, not correctness.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace scalparc::mp {

struct CostModel {
  // CPU time a rank spends injecting one message (serializes its sends).
  double send_overhead_s = 10e-6;
  // Wire latency added to every message.
  double latency_s = 30e-6;
  // Inverse bandwidth.
  double seconds_per_byte = 1.0 / (35.0 * 1024.0 * 1024.0);
  // One work unit = one record-field visit in the induction loops.
  double seconds_per_work_unit = 0.25e-6;
  // Barrier/clock-sync cost per ceil(log2 p) round.
  double barrier_round_s = 25e-6;
  // When set, add_work also sleeps the calling thread for the modeled
  // duration (in addition to advancing the virtual clock), so wall-clock
  // measurements — and wall-clock throttles like the `slow` fault — see the
  // modeled compute. Off by default: virtual time only.
  bool realize_work = false;

  // Modeled in-flight time for a message of `bytes` payload.
  double wire_seconds(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) * seconds_per_byte;
  }

  // The calibration used for all paper-reproduction benches.
  static CostModel cray_t3d() { return CostModel{}; }

  // All-zero model: virtual time stays 0. Useful in unit tests that assert
  // on functional behavior only.
  static CostModel zero() {
    CostModel m;
    m.send_overhead_s = 0.0;
    m.latency_s = 0.0;
    m.seconds_per_byte = 0.0;
    m.seconds_per_work_unit = 0.0;
    m.barrier_round_s = 0.0;
    return m;
  }
};

// Analytic per-level, per-rank byte predictors for the three split-finding
// modes (see DESIGN.md, "Split modes"). These are the closed-form comm-cost
// expressions the design argues from:
//
//   exact      ~ O(active_records / p)          — node-table traffic
//   histogram  ~ O(attrs x bins x classes)      — independent of N
//   voting     ~ O(2k x bins x classes)         — independent of N and attrs
//
// The quantized predictors enumerate the packed segments of the histogram
// engine for its busiest rank. Each merged histogram (counts, bin minima,
// categorical count matrices) has one owner rank, and every other rank sends
// it its share once; the smallest owner chunk is floor(n/p) of a list's n
// nodes, so the busiest rank sends n - floor(n/p) nodes' worth. The value
// ranges, split candidates, child class counts and vote tallies still ride
// binomial allreduces of ceil(log2 p) rounds. The histogram predictor lands
// within a few percent of measurement; bench/comm_model fails when it leaves
// [0.95, 1.05] on level 1 or on the widest level of its fit.
// The voting predictor is an unchecked shape: its electorate depends on the
// data. The exact-engine predictor is a calibrated shape, not an
// enumeration: its traffic is the all-to-all hash-table probe/update stream,
// of which a (1 - 1/p) fraction leaves the rank. bench/comm_model prints all
// three against measured values.
struct SplitCommModel {
  int procs = 1;
  int classes = 2;
  int hist_bins = 64;
  int top_k = 2;
  int cont_attrs = 0;
  // Sum of categorical cardinalities across categorical attributes.
  int cat_cardinality_sum = 0;
  int cat_attrs = 0;

  // Calibrated against bench/level_comm at p in [2, 16]: per active record,
  // the exact engine's probe/update stream plus split-determination counts
  // average ~64 bytes on the wire.
  static constexpr double kExactBytesPerRecord = 64.0;
  // sizeof the SplitCandidate min-allreduce payload per node.
  static constexpr double kCandidateBytes = 48.0;

  static int allreduce_rounds(int p) {
    int rounds = 0;
    for (int span = 1; span < p; span *= 2) ++rounds;
    return rounds;
  }

  int num_attrs() const { return cont_attrs + cat_attrs; }

  // Exact engine: O(N/p) — grows with the training set.
  double exact_level_bytes(std::int64_t active_records) const {
    const double per_rank =
        static_cast<double>(active_records) / static_cast<double>(procs);
    return per_rank * (1.0 - 1.0 / static_cast<double>(procs)) *
           kExactBytesPerRecord;
  }

  // One active node's merged histograms: per continuous attribute a
  // (bins x classes) int64 count grid and a bins-wide double bin-minimum
  // vector; per categorical attribute its (cardinality x classes) count
  // matrix.
  double histogram_node_bytes() const {
    const double cont = static_cast<double>(cont_attrs) *
                        (static_cast<double>(hist_bins) * classes * 8.0 +
                         static_cast<double>(hist_bins) * 8.0);
    const double cat = static_cast<double>(cat_cardinality_sum) * classes * 8.0;
    return cont + cat;
  }

  // One active node's allreduced state per round: a 16-byte value range per
  // continuous attribute, the split candidate and the child class counts
  // that grow the tree.
  double allreduce_node_bytes() const {
    return static_cast<double>(cont_attrs) * 16.0 + kCandidateBytes +
           2.0 * classes * 8.0;
  }

  // Nodes of an n-node list whose histograms the busiest rank sends: all
  // but its owner chunk of floor(n / p).
  double unowned_nodes(std::int64_t n) const {
    return static_cast<double>(n - n / procs);
  }

  // Histogram mode: O(attrs x bins) per node — flat in N.
  double histogram_level_bytes(std::int64_t active_nodes) const {
    return unowned_nodes(active_nodes) * histogram_node_bytes() +
           static_cast<double>(allreduce_rounds(procs)) *
               static_cast<double>(active_nodes) * allreduce_node_bytes();
  }

  // Voting mode: only min(2k, attrs) elected attributes are merged per node
  // (modeled as a proportional shrink of the merged histograms — elections
  // mix continuous and categorical attributes per node), plus the one-int32
  // per (attr, node) vote tally round.
  double voting_level_bytes(std::int64_t active_nodes) const {
    const int attrs = num_attrs();
    if (attrs == 0) return 0.0;
    const double elected_fraction =
        static_cast<double>(std::min(2 * top_k, attrs)) /
        static_cast<double>(attrs);
    const double votes = static_cast<double>(attrs) * 4.0;
    return unowned_nodes(active_nodes) * histogram_node_bytes() *
               elected_fraction +
           static_cast<double>(allreduce_rounds(procs)) *
               static_cast<double>(active_nodes) *
               (allreduce_node_bytes() + votes);
  }
};

}  // namespace scalparc::mp
