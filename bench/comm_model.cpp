// Communication-subsystem calibration table (§5's methodology).
//
// The paper: "We benchmarked the combination of Cray's tuned MPI
// implementation and the underlying communication subsystem assuming a
// linear model of communication. On an average, we obtained a latency of
// _ us and bandwidth of _ MB/sec for point-to-point communications, and a
// latency of _ us per processor and bandwidth of _ MB/sec for the
// all-to-all collective communication operations."
//
// We run the same measurement against our runtime: time (on the virtual
// clock) a small and a large transfer, and solve the linear model
// t = latency + bytes/bandwidth for each operation class. The recovered
// point-to-point numbers must match the CostModel constants; the all-to-all
// numbers are *emergent* (p-1 buffered sends per rank) and show the
// per-processor latency shape the paper reports.
//
// A second table overlays the SplitCommModel analytic predictors (see
// mp/costmodel.hpp) against measured per-level bytes for the three split
// modes: the O(N/p) exact shape, and the N-independent O(attrs x bins) /
// O(2k x bins) shapes of the quantized engines. Histogram mode is checked
// on two levels: level 1 (one node, so every merged histogram leaves all
// ranks but its owner) and the widest level (many nodes cut into owner
// chunks). The run exits non-zero when either histogram ratio leaves
// [0.95, 1.05] at any processor count (the `perf` ctest label runs it).
// The exact and voting rows are shapes and stay unchecked.
//
//   ./comm_model [--csv DIR] [--records N] [--depth D] [--bins B] [--top-k K]
#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "mp/collectives.hpp"

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);
  const auto model = mp::CostModel::cray_t3d();

  bench::CsvWriter csv(args, "comm_model.csv",
                       "op,procs,latency_us,bandwidth_mb_s");

  // --- point-to-point -------------------------------------------------------
  const auto p2p_time = [&](std::size_t bytes) {
    const auto result = mp::run_ranks(2, model, [&](mp::Comm& comm) {
      if (comm.rank() == 0) {
        const std::vector<std::byte> payload(bytes);
        comm.send_bytes(1, 0, payload);
      } else {
        (void)comm.recv_bytes(0, 0);
      }
    });
    return result.modeled_seconds;
  };
  const double t_small = p2p_time(8);
  const double t_large = p2p_time(1 << 20);
  const double p2p_bw = static_cast<double>((1 << 20) - 8) / (t_large - t_small);
  const double p2p_lat = t_small - 8.0 / p2p_bw;
  std::printf("point-to-point: latency %.1f us, bandwidth %.1f MB/s\n",
              p2p_lat * 1e6, p2p_bw / 1e6);
  csv.row("p2p,2,%.3f,%.3f", p2p_lat * 1e6, p2p_bw / 1e6);

  // --- all-to-all personalized ---------------------------------------------
  std::printf("\nall-to-all personalized exchange (per-rank volume V):\n");
  std::printf("%6s %18s %18s %22s\n", "procs", "latency(us)",
              "bandwidth(MB/s)", "latency per proc (us)");
  for (const int p : {4, 8, 16, 32, 64}) {
    const auto a2a_time = [&](std::size_t bytes_per_dest) {
      const auto result = mp::run_ranks(p, model, [&](mp::Comm& comm) {
        std::vector<std::vector<std::byte>> send(
            static_cast<std::size_t>(comm.size()));
        for (auto& buf : send) buf.assign(bytes_per_dest, std::byte{0});
        (void)mp::alltoallv(comm, std::move(send));
      });
      return result.modeled_seconds;
    };
    const double small = a2a_time(8);
    const double large = a2a_time(1 << 14);
    const double total_small = 8.0 * (p - 1);
    const double total_large = static_cast<double>(1 << 14) * (p - 1);
    const double bw = (total_large - total_small) / (large - small);
    const double lat = small - total_small / bw;
    std::printf("%6d %18.1f %18.1f %22.2f\n", p, lat * 1e6, bw / 1e6,
                lat * 1e6 / p);
    csv.row("alltoall,%d,%.3f,%.3f", p, lat * 1e6, bw / 1e6);
  }

  std::printf(
      "\nThe all-to-all latency grows ~linearly with p (constant latency per\n"
      "processor) while its effective bandwidth stays flat — the same linear\n"
      "model shape the paper reports for the Cray T3D.\n");

  // --- split-mode per-level byte predictors --------------------------------
  const auto records =
      static_cast<std::uint64_t>(args.get_int("records", 8000));
  const int depth = static_cast<int>(args.get_int("depth", 6));
  const int bins = static_cast<int>(args.get_int("bins", 64));
  const int top_k = static_cast<int>(args.get_int("top-k", 2));
  const data::QuestGenerator generator = bench::paper_generator(1);
  int drifted = 0;

  std::printf(
      "\nsplit-mode level bytes/rank, SplitCommModel predicted vs measured\n"
      "(records=%llu; level 1 in every mode, and the widest level in\n"
      "histogram mode):\n",
      static_cast<unsigned long long>(records));
  std::printf("%6s %10s %6s %6s %14s %14s %8s\n", "procs", "mode", "level",
              "nodes", "predicted", "measured", "ratio");
  for (const int p : {2, 4, 8, 16}) {
    mp::SplitCommModel split_model;
    split_model.procs = p;
    split_model.classes = generator.schema().num_classes();
    split_model.hist_bins = bins;
    split_model.top_k = top_k;
    for (int a = 0; a < generator.schema().num_attributes(); ++a) {
      const data::AttributeInfo& info = generator.schema().attribute(a);
      if (info.kind == data::AttributeKind::kContinuous) {
        ++split_model.cont_attrs;
      } else {
        ++split_model.cat_attrs;
        split_model.cat_cardinality_sum += info.cardinality;
      }
    }
    for (const char* mode : {"exact", "histogram", "voting"}) {
      core::InductionControls controls = bench::paper_controls();
      controls.options.max_depth = depth;
      controls.options.hist_bins = bins;
      controls.options.top_k = top_k;
      const std::string mode_name = mode;
      if (mode_name == "histogram") {
        controls.options.split_mode = core::SplitMode::kHistogram;
      } else if (mode_name == "voting") {
        controls.options.split_mode = core::SplitMode::kVoting;
      }
      controls.collect_level_stats = true;
      const core::FitReport report =
          core::ScalParC::fit_generated(generator, records, p, controls, model);
      const auto& levels = report.stats.per_level;
      const auto compare = [&](const core::LevelStats& level,
                               const char* row) {
        double predicted = 0.0;
        if (mode_name == "exact") {
          predicted = split_model.exact_level_bytes(level.active_records);
        } else if (mode_name == "histogram") {
          predicted = split_model.histogram_level_bytes(level.active_nodes);
        } else {
          predicted = split_model.voting_level_bytes(level.active_nodes);
        }
        const auto measured =
            static_cast<double>(level.max_bytes_sent_per_rank);
        const double ratio = measured > 0.0 ? predicted / measured : 0.0;
        std::printf("%6d %10s %6d %6lld %14.0f %14.0f %8.2f\n", p, mode,
                    level.level, static_cast<long long>(level.active_nodes),
                    predicted, measured, ratio);
        csv.row("%s,%d,%.0f,%.0f", row, p, predicted, measured);
        if (mode_name == "histogram" && (ratio < 0.95 || ratio > 1.05)) {
          ++drifted;
        }
      };
      compare(levels.front(), ("model_" + mode_name).c_str());
      if (mode_name == "histogram") {
        compare(*std::max_element(levels.begin(), levels.end(),
                                  [](const core::LevelStats& a,
                                     const core::LevelStats& b) {
                                    return a.active_nodes < b.active_nodes;
                                  }),
                "model_histogram_widest");
      }
    }
  }
  std::printf(
      "\nThe exact predictor scales as O(N/p) while the histogram and voting\n"
      "predictors depend only on attrs x bins x classes (x the elected\n"
      "fraction for voting) — matching the flat curves in BENCH_comm.json.\n");
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  if (drifted > 0) {
    std::fprintf(stderr,
                 "check failed: %d histogram ratio(s) outside [0.95, 1.05]\n",
                 drifted);
    return 1;
  }
  std::printf("check OK: every histogram ratio within [0.95, 1.05]\n");
  return 0;
}
