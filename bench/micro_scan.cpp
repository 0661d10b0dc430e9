// The FindSplitI scan kernel in isolation: scan layout x impurity kernel.
//
// Everything this bench measures is wall-clock (Stopwatch), not modeled
// vtime: the point of the SoA layout and the incremental gini kernel is what
// the *hardware* does per record, which the cost model deliberately
// abstracts away.
//
// The same sorted continuous attribute list is scanned with (a) the AoS
// entry walk + O(classes) recompute scanner (the differential oracle) and
// (b) the SoA columnar kernel + O(1) incremental scanner. Both at p = 1..16
// simulated ranks, each rank scanning its FindSplitI fragment, the two
// layouts alternating inside every rep. Records/second (best of the reps),
// plus the SoA/AoS speedup the tentpole claims: the median over reps of each
// rep's paired AoS/SoA time ratio.
//
//   ./micro_scan [--records N] [--run L] [--procs 1,2,4,8,16] [--reps R]
//                [--seed S] [--min-speedup X] [--out BENCH_compute.json]
//                [--validate BENCH_compute.json] [--csv DIR]
//
// --out writes the machine-readable JSON document; --validate re-parses a
// document and checks its schema plus the headline claim (SoA+incremental
// scan throughput >= min_speedup x the AoS+recompute throughput at p=1 and,
// when measured, p=8), exiting non-zero on violation. The `perf` ctest label
// runs this at tiny scale as a smoke test.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/gini.hpp"
#include "core/split_finder.hpp"
#include "data/attribute_list.hpp"
#include "mp/collectives.hpp"
#include "mp/runtime.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace {

using scalparc::util::Json;

struct ScanRow {
  int procs = 0;
  double aos_seconds = 0.0;
  double soa_seconds = 0.0;
  double aos_records_per_s = 0.0;
  double soa_records_per_s = 0.0;
  double speedup = 0.0;
};

// Schema + claim validation; prints the first violation and returns false.
bool validate(const Json& doc) {
  const auto complain = [](const std::string& why) {
    std::fprintf(stderr, "BENCH_compute.json validation failed: %s\n",
                 why.c_str());
    return false;
  };
  try {
    if (doc.at("bench").as_string() != "micro_scan") {
      return complain("bench name is not 'micro_scan'");
    }
    if (doc.at("records").as_int() <= 0) return complain("records <= 0");
    const double min_speedup = doc.at("min_speedup").as_double();
    if (!(min_speedup > 0.0)) return complain("min_speedup <= 0");
    const auto& scan_runs = doc.at("scan_runs").as_array();
    if (scan_runs.empty()) return complain("scan_runs is empty");
    bool has_p1 = false;
    for (const Json& run : scan_runs) {
      const int procs = static_cast<int>(run.at("procs").as_int());
      if (procs <= 0) return complain("scan run has procs <= 0");
      const double aos = run.at("aos_records_per_s").as_double();
      const double soa = run.at("soa_records_per_s").as_double();
      const double speedup = run.at("speedup").as_double();
      if (!(run.at("aos_seconds").as_double() > 0.0) ||
          !(run.at("soa_seconds").as_double() > 0.0) || !(aos > 0.0) ||
          !(soa > 0.0) || !(speedup > 0.0)) {
        return complain("scan run has non-positive measurement");
      }
      // The headline claim: the columnar incremental kernel beats the AoS
      // recompute walk by at least min_speedup at p=1 and (when measured)
      // p=8.
      if ((procs == 1 || procs == 8) && speedup < min_speedup) {
        char why[128];
        std::snprintf(why, sizeof(why),
                      "SoA speedup %.3f below required %.2f at p=%d", speedup,
                      min_speedup, procs);
        return complain(why);
      }
      has_p1 = has_p1 || procs == 1;
    }
    if (!has_p1) return complain("no scan run at p=1");
  } catch (const std::exception& e) {
    return complain(e.what());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);

  const std::string out_path = args.get_string("out", "");
  const std::string validate_path = args.get_string("validate", "");
  if (out_path.empty() && !validate_path.empty()) {
    // Validate-only mode.
    std::ifstream in(validate_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", validate_path.c_str());
      return 1;
    }
    return validate(util::Json::parse(buffer.str())) ? 0 : 1;
  }

  const auto records = static_cast<std::size_t>(args.get_int("records", 2000000));
  const auto run_length = static_cast<std::size_t>(args.get_int("run", 16));
  const std::vector<std::int64_t> procs =
      args.get_int_list("procs", {1, 2, 4, 8, 16});
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double min_speedup = args.get_double("min-speedup", 1.5);
  const auto model = mp::CostModel::cray_t3d();
  constexpr int kClasses = 2;

  // ---------------- workload ------------------------------------------------
  // One sorted two-class continuous attribute list with duplicate runs of
  // ~run_length equal values — the shape FindSplitI scans every level.
  const std::size_t distinct = std::max<std::size_t>(1, records / run_length);
  data::ContinuousColumns cols;
  cols.resize(records);
  {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> value_of(0, distinct - 1);
    std::bernoulli_distribution class_of(0.4);
    std::vector<double> values(records);
    for (std::size_t i = 0; i < records; ++i) {
      values[i] = static_cast<double>(value_of(rng)) * 0.5;
    }
    std::sort(values.begin(), values.end());
    for (std::size_t i = 0; i < records; ++i) {
      cols.values[i] = values[i];
      cols.rids[i] = static_cast<std::int64_t>(i);
      cols.cls[i] = class_of(rng) ? 1 : 0;
    }
  }
  std::vector<data::ContinuousEntry> entries;
  data::entries_from_columns(cols, entries);
  std::vector<std::int64_t> totals(kClasses, 0);
  for (const std::int32_t cls : cols.cls) ++totals[static_cast<std::size_t>(cls)];

  // Enough kernel passes per timed region to dwarf timer and thread-spawn
  // noise even at smoke scale.
  const int scan_iters =
      static_cast<int>(std::max<std::size_t>(1, 16000000 / records));

  // Best-of-reps wall time of both layouts at p ranks: each rank scans its
  // contiguous FindSplitI fragment (below-histogram seeded from the prefix,
  // boundary value from the previous rank), scan_iters times. Every rep times
  // both layouts back to back on the same rank threads, flipping which goes
  // first, so the two times of a rep share one stretch of machine load and
  // one placement of threads on cores: on a loaded host, timings taken on
  // different threads can differ by 40% with the core a thread lands on.
  // The speedup is the median over reps of each rep's AoS/SoA time ratio.
  double scan_checksum = 0.0;
  struct ScanTimes {
    double aos_seconds = 0.0;
    double soa_seconds = 0.0;
    double speedup = 0.0;
  };
  const auto time_scans = [&](int p) {
    // Fragment boundaries and prefix class histograms, computed outside the
    // timed region (FindSplitI gets these from the packed exscan).
    std::vector<std::size_t> begin(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r <= p; ++r) {
      begin[static_cast<std::size_t>(r)] =
          records * static_cast<std::size_t>(r) / static_cast<std::size_t>(p);
    }
    std::vector<std::vector<std::int64_t>> below(
        static_cast<std::size_t>(p), std::vector<std::int64_t>(kClasses, 0));
    {
      std::vector<std::int64_t> prefix(kClasses, 0);
      for (int r = 0; r < p; ++r) {
        below[static_cast<std::size_t>(r)] = prefix;
        for (std::size_t i = begin[static_cast<std::size_t>(r)];
             i < begin[static_cast<std::size_t>(r) + 1]; ++i) {
          ++prefix[static_cast<std::size_t>(cols.cls[i])];
        }
      }
    }
    // Returns the slowest rank's {AoS, SoA} times of one rep.
    const auto time_rep = [&](bool soa_first) {
      std::vector<double> elapsed[2] = {
          std::vector<double>(static_cast<std::size_t>(p), 0.0),
          std::vector<double>(static_cast<std::size_t>(p), 0.0)};
      std::vector<double> sinks(static_cast<std::size_t>(p), 0.0);
      mp::run_ranks(p, model, [&](mp::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const std::size_t lo = begin[r];
        const std::size_t hi = begin[r + 1];
        const bool has_prev = lo > 0;
        const double prev_value = has_prev ? cols.values[lo - 1] : 0.0;
        double sink = 0.0;
        for (const bool soa : {soa_first, !soa_first}) {
          mp::barrier(comm);
          util::Stopwatch timer;
          for (int iter = 0; iter < scan_iters; ++iter) {
            core::SplitCandidate best;
            if (soa) {
              core::IncrementalImpurityScanner scanner(totals, below[r]);
              core::scan_continuous_columns(cols, lo, hi, scanner, has_prev,
                                            prev_value, 0, best);
              sink +=
                  best.threshold + static_cast<double>(scanner.below_total());
            } else {
              core::BinaryImpurityScanner scanner(totals, below[r]);
              core::scan_continuous_segment(
                  std::span<const data::ContinuousEntry>(entries.data() + lo,
                                                         hi - lo),
                  scanner, has_prev, prev_value, 0, best);
              sink +=
                  best.threshold + static_cast<double>(scanner.below_total());
            }
          }
          elapsed[soa ? 1 : 0][r] = timer.elapsed_seconds();
        }
        sinks[r] = sink;
      });
      for (const double s : sinks) scan_checksum += s;
      return std::pair<double, double>{
          *std::max_element(elapsed[0].begin(), elapsed[0].end()),
          *std::max_element(elapsed[1].begin(), elapsed[1].end())};
    };
    ScanTimes best;
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
      const auto [aos, soa] = time_rep(/*soa_first=*/rep % 2 == 1);
      best.aos_seconds = rep == 0 ? aos : std::min(best.aos_seconds, aos);
      best.soa_seconds = rep == 0 ? soa : std::min(best.soa_seconds, soa);
      ratios.push_back(aos / soa);
    }
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    best.speedup = ratios.size() % 2 == 1
                       ? ratios[mid]
                       : (ratios[mid - 1] + ratios[mid]) / 2.0;
    return best;
  };

  // ---------------- scan kernels --------------------------------------------
  bench::CsvWriter csv(args, "micro_scan.csv",
                       "part,procs,impl,seconds,throughput_per_s");
  const double scanned =
      static_cast<double>(records) * static_cast<double>(scan_iters);
  std::printf(
      "gini scan, %zu records (~%zu-long runs), %d passes/timing\n\n",
      records, run_length, scan_iters);
  std::printf("%6s %14s %14s %16s %16s %9s\n", "procs", "AoS(ms)", "SoA(ms)",
              "AoS rec/s", "SoA rec/s", "speedup");
  std::vector<ScanRow> scan_rows;
  for (const std::int64_t p : procs) {
    ScanRow row;
    row.procs = static_cast<int>(p);
    const ScanTimes times = time_scans(row.procs);
    row.aos_seconds = times.aos_seconds;
    row.soa_seconds = times.soa_seconds;
    row.aos_records_per_s = scanned / row.aos_seconds;
    row.soa_records_per_s = scanned / row.soa_seconds;
    row.speedup = times.speedup;
    std::printf("%6d %14.3f %14.3f %16.3e %16.3e %8.2fx\n", row.procs,
                row.aos_seconds * 1e3, row.soa_seconds * 1e3,
                row.aos_records_per_s, row.soa_records_per_s, row.speedup);
    csv.row("scan,%d,aos,%.6f,%.1f", row.procs, row.aos_seconds,
            row.aos_records_per_s);
    csv.row("scan,%d,soa,%.6f,%.1f", row.procs, row.soa_seconds,
            row.soa_records_per_s);
    scan_rows.push_back(row);
  }

  std::printf("\n(checksum %.3g keeps the kernels honest)\n", scan_checksum);

  // ---------------- JSON document ------------------------------------------
  Json doc = Json::object();
  doc["bench"] = "micro_scan";
  doc["records"] = static_cast<std::int64_t>(records);
  doc["run_length"] = static_cast<std::int64_t>(run_length);
  doc["reps"] = reps;
  doc["seed"] = seed;
  doc["min_speedup"] = min_speedup;
  Json scan_runs = Json::array();
  for (const ScanRow& row : scan_rows) {
    Json run = Json::object();
    run["procs"] = row.procs;
    run["aos_seconds"] = row.aos_seconds;
    run["soa_seconds"] = row.soa_seconds;
    run["aos_records_per_s"] = row.aos_records_per_s;
    run["soa_records_per_s"] = row.soa_records_per_s;
    run["speedup"] = row.speedup;
    scan_runs.push_back(std::move(run));
  }
  doc["scan_runs"] = std::move(scan_runs);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump(2) << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\nJSON written to %s\n", out_path.c_str());
  }
  if (!validate_path.empty()) {
    std::ifstream in(validate_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", validate_path.c_str());
      return 1;
    }
    if (!validate(util::Json::parse(buffer.str()))) return 1;
    std::printf("validation OK: %s\n", validate_path.c_str());
  }
  return 0;
}
