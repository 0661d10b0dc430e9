// Per-level communication structure across split modes.
//
// Three claims in one document. First, the exact engine's split determination
// packs every attribute list's collectives into O(1) CollectiveBatch rounds
// per level (see DESIGN.md, "Collective fusion"), so each exact level stays
// under a fixed collective-call bound whatever the attribute count. Second,
// the split-mode sweep (exact | histogram | voting): the histogram engine
// merges fixed-width class histograms instead of moving node-table traffic,
// so its per-level bytes are O(attributes x bins x classes) — independent of
// the training-set size — where the exact engine's are O(N/p). Every mode is
// fitted at two record scales (N and 2N) so the flatness claim is checkable
// from the document itself, and the quantized modes record their
// winner-attribute agreement and holdout-accuracy delta against the exact
// engine's tree on the same training set. Third, the owner-rank merge:
// the busiest rank of every histogram and voting run sends at most
// kMaxMergeSendRatio times the histogram bytes one rank packs.
//
//   ./level_comm [--records N] [--procs 2,4,8,16] [--depth D] [--seed S]
//                [--bins B] [--top-k K]
//                [--out BENCH_comm.json] [--validate BENCH_comm.json]
//                [--compare BENCH_comm.json] [--csv DIR]
//
// --out writes the machine-readable JSON document; --validate re-parses a
// document (the one just written, or any existing one) and checks its
// schema plus the headline claims — at most kMaxExactLevelCalls collective
// calls in every exact-mode level, histogram-mode first-level bytes flat
// in the record count while the exact engine's grow with it, and the merge
// send bound of every quantized run — exiting non-zero on violation.
// --compare checks that this run reproduces a committed document field by
// field (see count_differences). The `perf` ctest label runs this at tiny
// scale as a smoke test, and compares a run with the committed
// BENCH_comm.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/tree.hpp"
#include "mp/metrics.hpp"
#include "util/json.hpp"

namespace {

using scalparc::core::DecisionTree;
using scalparc::core::LevelStats;
using scalparc::core::SplitMode;
using scalparc::util::Json;

// Collective calls one exact-mode level may enter: the packed FindSplit and
// PerformSplit rounds plus the node-table exchanges, independent of the
// number of attribute lists (committed runs enter 12-13; one collective per
// list would need 35 at 7 attributes). The same bound as test_induction's
// CollectiveFusion.FusedCollectiveCallsConstantInAttributeCount.
constexpr std::int64_t kMaxExactLevelCalls = 16;

// Whole-run bytes the busiest rank of a histogram or voting run may send,
// over the histogram bytes one rank packs. An owner-rank merge sends each
// peer only its chunk (committed runs read 0.55-1.12); a replicated merge
// (reduce to one rank, then broadcast) reads about log2(p).
constexpr double kMaxMergeSendRatio = 1.25;

struct RunRow {
  int procs = 0;
  std::string mode;  // "exact" | "histogram" | "voting"
  std::uint64_t records = 0;
  double total_vtime_s = 0.0;
  double findsplit_vtime_s = 0.0;
  std::uint64_t max_bytes_sent_per_rank = 0;
  double holdout_accuracy = 0.0;
  // vs the exact engine's tree on the same training set; 1.0 / 0.0 for the
  // exact runs themselves.
  double winner_agreement = 1.0;
  double accuracy_delta = 0.0;
  std::vector<LevelStats> levels;
  double presort_vtime_s = 0.0;
  // Merged metrics registry of the run (comm.*, induction.*, ...), embedded
  // under "details" so downstream tooling reads one vocabulary across the
  // CLI's --metrics-out and the bench documents.
  Json details;
};

// Fraction of positionally paired internal nodes (lockstep walk from the
// roots, descending only where both trees split the same attribute into the
// same number of children) that choose the same split attribute — the
// PV-Tree-style quality metric: how often quantized split finding elects the
// exact engine's winner.
double winner_agreement(const DecisionTree& exact, const DecisionTree& other) {
  std::vector<std::pair<int, int>> frontier = {{exact.root(), other.root()}};
  std::int64_t paired = 0;
  std::int64_t agreed = 0;
  while (!frontier.empty()) {
    const auto [a_id, b_id] = frontier.back();
    frontier.pop_back();
    const auto& a = exact.node(a_id);
    const auto& b = other.node(b_id);
    if (a.is_leaf || b.is_leaf) continue;
    ++paired;
    if (a.split.attribute != b.split.attribute) continue;
    ++agreed;
    if (a.split.num_children != b.split.num_children) continue;
    for (int k = 0; k < a.split.num_children; ++k) {
      frontier.emplace_back(a.children[static_cast<std::size_t>(k)],
                            b.children[static_cast<std::size_t>(k)]);
    }
  }
  return paired == 0
             ? 1.0
             : static_cast<double>(agreed) / static_cast<double>(paired);
}

Json to_json(const RunRow& row) {
  Json run = Json::object();
  run["procs"] = row.procs;
  run["split_mode"] = row.mode;
  run["records"] = row.records;
  run["total_vtime_s"] = row.total_vtime_s;
  run["findsplit_vtime_s"] = row.findsplit_vtime_s;
  run["max_bytes_sent_per_rank"] = row.max_bytes_sent_per_rank;
  run["holdout_accuracy"] = row.holdout_accuracy;
  run["winner_agreement_vs_exact"] = row.winner_agreement;
  run["accuracy_delta_vs_exact"] = row.accuracy_delta;
  Json levels = Json::array();
  double prev_vtime = row.presort_vtime_s;
  for (const LevelStats& level : row.levels) {
    Json entry = Json::object();
    entry["level"] = level.level;
    entry["active_nodes"] = level.active_nodes;
    entry["active_records"] = level.active_records;
    entry["collective_calls"] = level.collective_calls;
    entry["max_bytes_sent_per_rank"] = level.max_bytes_sent_per_rank;
    entry["vtime_s"] = level.vtime_end - prev_vtime;
    prev_vtime = level.vtime_end;
    levels.push_back(std::move(entry));
  }
  run["levels"] = std::move(levels);
  run["details"] = row.details;
  return run;
}

// Schema + claim validation; prints the first violation and returns false.
bool validate(const Json& doc) {
  const auto complain = [](const std::string& why) {
    std::fprintf(stderr, "BENCH_comm.json validation failed: %s\n",
                 why.c_str());
    return false;
  };
  try {
    if (doc.at("bench").as_string() != "level_comm") {
      return complain("bench name is not 'level_comm'");
    }
    if (doc.at("records").as_int() <= 0) return complain("records <= 0");
    const auto& runs = doc.at("runs").as_array();
    if (runs.empty()) return complain("runs is empty");
    bool exact_checked = false;
    // First-level max bytes per (procs, mode, records) — the raw material of
    // the flatness claim.
    std::map<int, std::map<std::string, std::map<std::int64_t, std::int64_t>>>
        level1_bytes;
    for (const Json& run : runs) {
      const int procs = static_cast<int>(run.at("procs").as_int());
      if (procs <= 0) return complain("run has procs <= 0");
      const std::string mode = run.at("split_mode").as_string();
      if (mode != "exact" && mode != "histogram" && mode != "voting") {
        return complain("run has unknown split_mode '" + mode + "'");
      }
      const std::int64_t records = run.at("records").as_int();
      if (records <= 0) return complain("run has records <= 0");
      const double total = run.at("total_vtime_s").as_double();
      if (!(total > 0.0)) return complain("run has total_vtime_s <= 0");
      if (run.at("findsplit_vtime_s").as_double() < 0.0) {
        return complain("run has negative findsplit_vtime_s");
      }
      if (run.at("max_bytes_sent_per_rank").as_int() < 0) {
        return complain("run has negative byte count");
      }
      const double agreement = run.at("winner_agreement_vs_exact").as_double();
      if (agreement < 0.0 || agreement > 1.0) {
        return complain("winner_agreement_vs_exact outside [0, 1]");
      }
      const double delta = run.at("accuracy_delta_vs_exact").as_double();
      if (delta < -1.0 || delta > 1.0) {
        return complain("accuracy_delta_vs_exact outside [-1, 1]");
      }
      const double holdout = run.at("holdout_accuracy").as_double();
      if (holdout < 0.0 || holdout > 1.0) {
        return complain("holdout_accuracy outside [0, 1]");
      }
      const auto& levels = run.at("levels").as_array();
      if (levels.empty()) return complain("run has no levels");
      for (const Json& level : levels) {
        if (level.at("active_nodes").as_int() <= 0 ||
            level.at("active_records").as_int() <= 0 ||
            level.at("collective_calls").as_int() <= 0 ||
            level.at("max_bytes_sent_per_rank").as_int() < 0 ||
            level.at("vtime_s").as_double() < 0.0) {
          return complain("level entry out of range");
        }
        // Claim 1: every exact-mode level stays under the round bound.
        const std::int64_t calls = level.at("collective_calls").as_int();
        if (mode == "exact" && calls > kMaxExactLevelCalls) {
          return complain("exact level enters " + std::to_string(calls) +
                          " collective calls at p=" + std::to_string(procs) +
                          " (bound " + std::to_string(kMaxExactLevelCalls) +
                          ")");
        }
      }
      if (mode == "exact") exact_checked = true;
      level1_bytes[procs][mode][records] =
          levels.front().at("max_bytes_sent_per_rank").as_int();
      // details.metrics must decode as a metrics registry snapshot with the
      // comm.* family present (the vocabulary shared with --metrics-out);
      // quantized runs must additionally account their histogram traffic.
      const Json* details = run.find("details");
      if (details != nullptr) {
        const scalparc::mp::MetricsSnapshot snapshot =
            scalparc::mp::MetricsSnapshot::from_json(details->at("metrics"));
        if (snapshot.value("comm.bytes_sent") <= 0.0) {
          return complain("details.metrics lacks comm.bytes_sent");
        }
        const double histogram_bytes = snapshot.value("comm.histogram_bytes");
        if (mode != "exact" && histogram_bytes <= 0.0) {
          return complain("quantized run lacks comm.histogram_bytes");
        }
        // Claim 3: each merged histogram has one owner rank, so the busiest
        // rank of a quantized run sends at most kMaxMergeSendRatio times the
        // histogram bytes one rank packs (the counter sums every rank's).
        const double ratio =
            static_cast<double>(run.at("max_bytes_sent_per_rank").as_int()) /
            (histogram_bytes / procs);
        if (mode != "exact" && ratio > kMaxMergeSendRatio) {
          return complain("busiest rank sends " + std::to_string(ratio) +
                          "x its packed histogram bytes at p=" +
                          std::to_string(procs) + " (" + mode + ", bound " +
                          std::to_string(kMaxMergeSendRatio) + ")");
        }
      }
    }
    if (!exact_checked) return complain("no exact-mode run present");
    // Claim 2: histogram-mode first-level bytes are flat in the record count
    // while the exact engine's grow with it. Checked wherever a (p, mode)
    // was measured at two scales. The thresholds leave headroom for the
    // small N-independent terms both engines carry (tree growth metadata,
    // categorical count matrices).
    bool flat_checked = false;
    for (const auto& [procs, by_mode] : level1_bytes) {
      const auto hist = by_mode.find("histogram");
      const auto exact = by_mode.find("exact");
      if (hist == by_mode.end() || exact == by_mode.end()) continue;
      if (hist->second.size() < 2 || exact->second.size() < 2) continue;
      const auto ratio = [](const std::map<std::int64_t, std::int64_t>& m) {
        const double lo = static_cast<double>(m.begin()->second);
        const double hi = static_cast<double>(m.rbegin()->second);
        return lo > 0.0 ? hi / lo : 0.0;
      };
      flat_checked = true;
      const double hist_ratio = ratio(hist->second);
      const double exact_ratio = ratio(exact->second);
      if (hist_ratio > 1.2) {
        return complain("histogram level-1 bytes not flat at p=" +
                        std::to_string(procs) + " (ratio " +
                        std::to_string(hist_ratio) + ")");
      }
      if (exact_ratio < 1.3) {
        return complain("exact level-1 bytes unexpectedly flat at p=" +
                        std::to_string(procs) + " (ratio " +
                        std::to_string(exact_ratio) + ")");
      }
    }
    if (!flat_checked) {
      return complain("no two-scale histogram/exact pair to check flatness");
    }
  } catch (const std::exception& e) {
    return complain(e.what());
  }
  return true;
}

// Metrics that measure the host rather than the modeled run.
constexpr const char* kHostMetrics[] = {"runtime.wall_seconds",
                                        "runtime.liveness_epoch_bumps"};

// Compares a regenerated document with a committed one, field by field:
// integers must match exactly, other numbers to 1e-9 relative, and the
// kHostMetrics are skipped. Prints every difference; returns their count.
std::size_t count_differences(const Json& fresh, const Json& committed,
                              const std::string& path) {
  const auto differ = [&path](const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", path.empty() ? "<root>" : path.c_str(),
                 what.c_str());
    return std::size_t{1};
  };
  if (fresh.is_object() && committed.is_object()) {
    const Json::Object& ours = fresh.as_object();
    const Json::Object& theirs = committed.as_object();
    std::size_t differences = 0;
    for (const auto& [key, value] : theirs) {
      if (std::find(std::begin(kHostMetrics), std::end(kHostMetrics), key) !=
          std::end(kHostMetrics)) {
        continue;
      }
      const auto it = ours.find(key);
      differences += it == ours.end()
                         ? differ("member '" + key + "' is missing")
                         : count_differences(it->second, value,
                                             path + "." + key);
    }
    for (const auto& [key, value] : ours) {
      if (theirs.count(key) == 0) {
        differences += differ("unexpected member '" + key + "'");
      }
    }
    return differences;
  }
  if (fresh.is_array() && committed.is_array()) {
    if (fresh.size() != committed.size()) {
      return differ(std::to_string(fresh.size()) + " elements, expected " +
                    std::to_string(committed.size()));
    }
    std::size_t differences = 0;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      differences += count_differences(fresh.at(i), committed.at(i),
                                       path + "[" + std::to_string(i) + "]");
    }
    return differences;
  }
  if (fresh.is_number() && committed.is_number()) {
    const double ours = fresh.as_double();
    const double theirs = committed.as_double();
    const bool integers =
        std::floor(ours) == ours && std::floor(theirs) == theirs;
    const bool same =
        integers ? ours == theirs
                 : std::abs(ours - theirs) <=
                       1e-9 * std::max(std::abs(ours), std::abs(theirs));
    if (same) return 0;
    char what[96];
    std::snprintf(what, sizeof(what), "%.17g, expected %.17g", ours, theirs);
    return differ(what);
  }
  return fresh.dump(0) == committed.dump(0)
             ? 0
             : differ(fresh.dump(0) + ", expected " + committed.dump(0));
}

// Reads and parses a JSON document; nullopt (with a message) when the file
// cannot be read.
std::optional<Json> read_document(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  return Json::parse(buffer.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);

  const std::string out_path = args.get_string("out", "");
  const std::string validate_path = args.get_string("validate", "");
  const std::string compare_path = args.get_string("compare", "");

  if (out_path.empty() && compare_path.empty() && !validate_path.empty()) {
    // Validate-only mode.
    const std::optional<Json> doc = read_document(validate_path);
    return doc && validate(*doc) ? 0 : 1;
  }

  const auto records =
      static_cast<std::uint64_t>(args.get_int("records", 16000));
  const std::vector<std::int64_t> procs =
      args.get_int_list("procs", {2, 4, 8, 16});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int depth = static_cast<int>(args.get_int("depth", 12));
  const int bins = static_cast<int>(args.get_int("bins", 64));
  const int top_k = static_cast<int>(args.get_int("top-k", 2));
  const auto model = mp::CostModel::cray_t3d();
  const data::QuestGenerator generator = bench::paper_generator(seed);
  // Holdout rid range disjoint from every training scale (rids [0, 2N)).
  const data::Dataset holdout = generator.generate(
      4 * records, std::max<std::size_t>(records / 4, 256));

  bench::CsvWriter csv(
      args, "level_comm.csv",
      "procs,mode,records,level,active_nodes,active_records,"
      "collective_calls,max_bytes_sent_per_rank,vtime_s");

  struct Variant {
    const char* mode;
    std::uint64_t scale;  // multiple of --records
  };
  // Every mode runs at N and 2N for the flatness comparison.
  const Variant variants[] = {
      {"exact", 1},     {"exact", 2},  {"histogram", 1},
      {"histogram", 2}, {"voting", 1}, {"voting", 2},
  };

  std::vector<RunRow> rows;
  // Exact-engine reference tree per record scale. Exact trees are
  // processor-count invariant, so the first one measured at a scale serves
  // as the oracle for every p.
  std::map<std::uint64_t, DecisionTree> exact_tree;
  std::map<std::uint64_t, double> exact_accuracy;
  for (const std::int64_t p : procs) {
    for (const Variant& variant : variants) {
      const std::uint64_t n = records * variant.scale;
      core::InductionControls controls = bench::paper_controls();
      controls.options.max_depth = depth;
      controls.collect_level_stats = true;
      const std::string mode = variant.mode;
      if (mode == "histogram") {
        controls.options.split_mode = SplitMode::kHistogram;
      } else if (mode == "voting") {
        controls.options.split_mode = SplitMode::kVoting;
      }
      controls.options.hist_bins = bins;
      controls.options.top_k = top_k;
      const core::FitReport report = core::ScalParC::fit_generated(
          generator, n, static_cast<int>(p), controls, model);
      RunRow row;
      row.procs = static_cast<int>(p);
      row.mode = mode;
      row.records = n;
      row.total_vtime_s = report.run.modeled_seconds;
      row.findsplit_vtime_s = report.stats.findsplit_seconds;
      row.presort_vtime_s = report.stats.presort_seconds;
      for (const mp::RankOutcome& rank : report.run.ranks) {
        row.max_bytes_sent_per_rank =
            std::max(row.max_bytes_sent_per_rank, rank.stats.bytes_sent);
      }
      row.levels = report.stats.per_level;
      row.holdout_accuracy = report.tree.accuracy(holdout);
      if (mode == "exact") {
        if (exact_tree.find(n) == exact_tree.end()) {
          exact_tree.emplace(n, report.tree);
          exact_accuracy[n] = row.holdout_accuracy;
        }
      } else {
        row.winner_agreement = winner_agreement(exact_tree.at(n), report.tree);
        row.accuracy_delta = exact_accuracy.at(n) - row.holdout_accuracy;
      }
      mp::MetricsSnapshot merged = report.run.metrics;
      core::absorb_induction_stats(merged, report.stats);
      row.details = Json::object();
      row.details["metrics"] = merged.to_json();
      rows.push_back(std::move(row));
    }
  }

  // ---------------- stdout tables ------------------------------------------
  std::printf("per-level communication (records=%llu, depth cap %d):\n",
              static_cast<unsigned long long>(records), depth);
  std::printf("%6s %10s %8s %6s %7s %9s %11s %13s %11s\n", "procs", "mode",
              "records", "level", "nodes", "records", "coll calls",
              "max bytes/rk", "vtime(ms)");
  for (const RunRow& row : rows) {
    double prev_vtime = row.presort_vtime_s;
    for (const LevelStats& level : row.levels) {
      const double vtime_s = level.vtime_end - prev_vtime;
      prev_vtime = level.vtime_end;
      std::printf(
          "%6d %10s %8llu %6d %7lld %9lld %11lld %13llu %11.3f\n",
          row.procs, row.mode.c_str(),
          static_cast<unsigned long long>(row.records), level.level,
          static_cast<long long>(level.active_nodes),
          static_cast<long long>(level.active_records),
          static_cast<long long>(level.collective_calls),
          static_cast<unsigned long long>(level.max_bytes_sent_per_rank),
          vtime_s * 1e3);
      csv.row("%d,%s,%llu,%d,%lld,%lld,%lld,%llu,%.6f", row.procs,
              row.mode.c_str(),
              static_cast<unsigned long long>(row.records), level.level,
              static_cast<long long>(level.active_nodes),
              static_cast<long long>(level.active_records),
              static_cast<long long>(level.collective_calls),
              static_cast<unsigned long long>(level.max_bytes_sent_per_rank),
              vtime_s);
    }
  }

  std::printf(
      "\nexact engine, most collective calls in one level (bound %lld):\n",
      static_cast<long long>(kMaxExactLevelCalls));
  std::printf("%6s %8s %11s\n", "procs", "records", "coll calls");
  for (const RunRow& row : rows) {
    if (row.mode != "exact") continue;
    std::int64_t most = 0;
    for (const LevelStats& level : row.levels) {
      most = std::max(most, level.collective_calls);
    }
    std::printf("%6d %8llu %11lld\n", row.procs,
                static_cast<unsigned long long>(row.records),
                static_cast<long long>(most));
  }

  std::printf(
      "\nsplit modes at N vs 2N (level-1 max bytes/rank; histogram stays "
      "flat):\n");
  std::printf("%6s %10s %14s %14s %8s %10s %9s\n", "procs", "mode", "bytes@N",
              "bytes@2N", "ratio", "agreement", "acc delta");
  for (const std::int64_t p : procs) {
    for (const char* mode : {"exact", "histogram", "voting"}) {
      std::uint64_t at_n = 0, at_2n = 0;
      double agreement = 1.0, delta = 0.0;
      for (const RunRow& row : rows) {
        if (row.procs != p || row.mode != mode) continue;
        const std::uint64_t bytes =
            row.levels.empty() ? 0
                               : row.levels.front().max_bytes_sent_per_rank;
        if (row.records == records) {
          at_n = bytes;
          agreement = row.winner_agreement;
          delta = row.accuracy_delta;
        } else if (row.records == 2 * records) {
          at_2n = bytes;
        }
      }
      std::printf(
          "%6lld %10s %14llu %14llu %8.2f %10.3f %9.4f\n",
          static_cast<long long>(p), mode,
          static_cast<unsigned long long>(at_n),
          static_cast<unsigned long long>(at_2n),
          at_n > 0 ? static_cast<double>(at_2n) / static_cast<double>(at_n)
                   : 0.0,
          agreement, delta);
    }
  }

  // ---------------- JSON document ------------------------------------------
  Json doc = Json::object();
  doc["bench"] = "level_comm";
  doc["records"] = records;
  doc["seed"] = seed;
  doc["depth"] = depth;
  doc["bins"] = bins;
  doc["top_k"] = top_k;
  doc["cost_model"] = "cray_t3d";
  Json procs_json = Json::array();
  for (const std::int64_t p : procs) procs_json.push_back(p);
  doc["procs"] = std::move(procs_json);
  Json runs = Json::array();
  for (const RunRow& row : rows) runs.push_back(to_json(row));
  doc["runs"] = std::move(runs);

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
    const std::optional<Json> written = read_document(validate_path);
    if (!written || !validate(*written)) return 1;
    std::printf("validation OK: %s\n", validate_path.c_str());
  }
  if (!compare_path.empty()) {
    const std::optional<Json> committed = read_document(compare_path);
    if (!committed) return 1;
    // Compare what --out would write, at the precision it is written with.
    const std::size_t differences =
        count_differences(Json::parse(doc.dump(2)), *committed, "");
    if (differences > 0) {
      std::fprintf(stderr, "%zu field(s) differ from %s\n", differences,
                   compare_path.c_str());
      return 1;
    }
    std::printf("reproduces %s\n", compare_path.c_str());
  }
  return 0;
}
