// scalparc-trace-report: summarize and validate the documents a run writes.
//
// usage: scalparc-trace-report [TRACE.json] [flags]
//   TRACE.json       Chrome trace_event JSON from `scalparc train --trace-out`
//   --metrics FILE   scalparc-metrics-v1 from --metrics-out
//   --timeseries F   scalparc-timeseries-v2 JSONL from --telemetry-out
//   --flight F       scalparc-flight-v1 JSONL from --flight-out
//   --top K          slowest spans to list (default 5)
//   --critical-path  per-level slowest-rank table (compute vs wait split)
//   --timeline       render the timeseries as a textual timeline
//   --validate       run the CI checks; non-zero exit on any failure
//
// Every registry in these documents (the trace's otherData.metrics, the
// metrics document, each series line) has one encoding,
// MetricsSnapshot::to_json, and is decoded by MetricsSnapshot::from_json.
// Every problem is one `FAIL: <document>: <what>` line from one collector:
// a document that cannot be read or decoded fails in any mode, and the tool
// exits 1 on any failure.
//
// The trace report mirrors the paper's presentation: per-phase totals and a
// per-level table of the five §4 phases in modeled seconds (max over ranks,
// the quantity the scalability argument is about), then the top-k slowest
// spans by wall time. --validate checks the trace's rank and phase coverage,
// vtime tiling, and recovery and heartbeat counters; the metrics document's
// format tag; the series' order, attempts, monotone totals and last line
// (the --metrics registry); and the flight dump's header, order and event
// counts against that registry.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "mp/metrics.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/read_all.hpp"
#include "util/trace.hpp"

namespace {

using scalparc::mp::MetricKind;
using scalparc::mp::MetricsSnapshot;
using scalparc::util::Json;

// Every failure of every document: one `FAIL: <document>: <what>` line each.
struct Failures {
  int count = 0;
  void add(std::string_view document, const std::string& what) {
    std::cout << "FAIL: " << document << ": " << what << "\n";
    ++count;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open '" + path + "'");
  return scalparc::util::read_all(file);
}

// The parsed non-empty lines of a JSONL document.
std::vector<Json> read_jsonl(const std::string& path) {
  std::istringstream text(read_file(path));
  std::vector<Json> lines;
  std::size_t number = 0;
  for (std::string line; std::getline(text, line);) {
    ++number;
    if (line.empty()) continue;
    try {
      lines.push_back(Json::parse(line));
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(number) + ": " +
                               e.what());
    }
  }
  return lines;
}

// The format tag of `doc`, checked against `expected`.
void require_format(const Json& doc, const std::string& expected) {
  const std::string& format = doc.at("format").as_string();
  if (format != expected) {
    throw std::runtime_error("format tag '" + format + "', expected '" +
                             expected + "'");
  }
}

struct SpanRow {
  std::string name;
  int rank = 0;
  int level = -1;
  std::int64_t nodes = -1;
  std::int64_t records = -1;
  std::int64_t bytes = -1;
  double wall_s = 0.0;
  double ts_s = 0.0;
  double vtime_begin = 0.0;
  double vtime_end = 0.0;
  int depth = 0;
};

struct Trace {
  std::vector<SpanRow> spans;
  Json metadata;  // otherData object (null when absent)
  std::optional<MetricsSnapshot> metrics;  // otherData.metrics, decoded
};

constexpr const char* kLevelPhases[] = {"findsplit_i", "findsplit_ii",
                                        "performsplit_i", "performsplit_ii"};

double arg_number(const Json& args, const std::string& key, double fallback) {
  const Json* v = args.find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

Trace load_trace(const std::string& path) {
  const Json doc = Json::parse(read_file(path));

  Trace trace;
  if (const Json* other = doc.find("otherData")) trace.metadata = *other;
  if (const Json* metrics = trace.metadata.find("metrics")) {
    trace.metrics = MetricsSnapshot::from_json(*metrics);
  }
  const Json& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    if (event.at("ph").as_string() != "X") continue;  // skip metadata events
    SpanRow row;
    row.name = event.at("name").as_string();
    row.rank = static_cast<int>(event.at("pid").as_int());
    row.ts_s = event.at("ts").as_double() / 1e6;
    row.wall_s = event.at("dur").as_double() / 1e6;
    const Json& args = event.at("args");
    row.level = static_cast<int>(arg_number(args, "level", -1.0));
    row.nodes = static_cast<std::int64_t>(arg_number(args, "nodes", -1.0));
    row.records = static_cast<std::int64_t>(arg_number(args, "records", -1.0));
    row.bytes = static_cast<std::int64_t>(arg_number(args, "bytes", -1.0));
    row.vtime_begin = arg_number(args, "vtime_begin_s", 0.0);
    row.vtime_end = arg_number(args, "vtime_end_s", 0.0);
    row.depth = static_cast<int>(arg_number(args, "depth", 0.0));
    trace.spans.push_back(std::move(row));
  }
  return trace;
}

double vtime_of(const SpanRow& row) {
  return std::max(0.0, row.vtime_end - row.vtime_begin);
}

void print_report(const Trace& trace, int top_k, std::ostream& out) {
  std::set<int> ranks;
  for (const SpanRow& row : trace.spans) ranks.insert(row.rank);

  out << "spans: " << trace.spans.size() << "   ranks: " << ranks.size();
  if (const Json* complete = trace.metadata.find("complete")) {
    out << "   complete: " << (complete->as_bool() ? "yes" : "no");
  }
  out << "\n\n";

  // Per-phase totals. vtime is summed within a rank then maxed over ranks
  // (the run's critical path); wall time and bytes are summed over all
  // ranks (the simulation's total work).
  std::map<std::string, std::map<int, double>> phase_rank_vtime;
  std::map<std::string, double> phase_wall;
  std::map<std::string, std::int64_t> phase_bytes;
  std::map<std::string, std::int64_t> phase_count;
  for (const SpanRow& row : trace.spans) {
    phase_rank_vtime[row.name][row.rank] += vtime_of(row);
    phase_wall[row.name] += row.wall_s;
    if (row.bytes > 0) phase_bytes[row.name] += row.bytes;
    ++phase_count[row.name];
  }
  out << "per-phase totals:\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-20s %8s %12s %12s %12s\n", "phase",
                "spans", "vtime-s", "wall-s", "MB");
  out << line;
  // Phases in lane order so the table reads in §4 order.
  std::vector<std::string> ordered;
  for (int lane = 1; lane < scalparc::util::trace_num_lanes(); ++lane) {
    const std::string name(scalparc::util::trace_lane_name(lane));
    if (phase_count.count(name)) ordered.push_back(name);
  }
  for (const auto& [name, count] : phase_count) {
    if (std::find(ordered.begin(), ordered.end(), name) == ordered.end()) {
      ordered.push_back(name);
    }
  }
  for (const std::string& name : ordered) {
    double vtime = 0.0;
    for (const auto& [rank, v] : phase_rank_vtime[name]) {
      vtime = std::max(vtime, v);
    }
    std::snprintf(line, sizeof(line), "  %-20s %8lld %12.6f %12.6f %12.3f\n",
                  name.c_str(), static_cast<long long>(phase_count[name]),
                  vtime, phase_wall[name],
                  static_cast<double>(phase_bytes[name]) / 1e6);
    out << line;
  }

  // Per-level table of the four level phases (presort has no level).
  std::map<int, std::map<std::string, std::map<int, double>>> level_table;
  std::map<int, std::int64_t> level_nodes;
  std::map<int, std::int64_t> level_records;
  for (const SpanRow& row : trace.spans) {
    if (row.level < 0) continue;
    level_table[row.level][row.name][row.rank] += vtime_of(row);
    if (row.nodes >= 0) {
      level_nodes[row.level] = std::max(level_nodes[row.level], row.nodes);
    }
    if (row.records >= 0) {
      level_records[row.level] =
          std::max(level_records[row.level], row.records);
    }
  }
  if (!level_table.empty()) {
    out << "\nper-level modeled seconds (max over ranks):\n";
    std::snprintf(line, sizeof(line),
                  "  %5s %8s %10s %12s %12s %14s %15s\n", "level", "nodes",
                  "records", "findsplit_i", "findsplit_ii", "performsplit_i",
                  "performsplit_ii");
    out << line;
    for (const auto& [level, phases] : level_table) {
      double cells[4] = {0.0, 0.0, 0.0, 0.0};
      for (int k = 0; k < 4; ++k) {
        const auto it = phases.find(kLevelPhases[k]);
        if (it == phases.end()) continue;
        for (const auto& [rank, v] : it->second) {
          cells[k] = std::max(cells[k], v);
        }
      }
      std::snprintf(line, sizeof(line),
                    "  %5d %8lld %10lld %12.6f %12.6f %14.6f %15.6f\n", level,
                    static_cast<long long>(level_nodes[level]),
                    static_cast<long long>(level_records[level]), cells[0],
                    cells[1], cells[2], cells[3]);
      out << line;
    }
  }

  // Top-k slowest spans by wall time: where the run actually burned CPU.
  std::vector<const SpanRow*> by_wall;
  by_wall.reserve(trace.spans.size());
  for (const SpanRow& row : trace.spans) by_wall.push_back(&row);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const SpanRow* a, const SpanRow* b) {
              return a->wall_s > b->wall_s;
            });
  const int n = std::min<int>(top_k, static_cast<int>(by_wall.size()));
  if (n > 0) {
    out << "\ntop " << n << " slowest spans (wall time):\n";
    for (int i = 0; i < n; ++i) {
      const SpanRow& row = *by_wall[static_cast<std::size_t>(i)];
      std::snprintf(line, sizeof(line),
                    "  %9.6fs  rank %d  %-18s level %d\n", row.wall_s,
                    row.rank, row.name.c_str(), row.level);
      out << line;
    }
  }
}

// CI checks of a trace.
void validate_trace(const Trace& trace, Failures& failures) {
  const auto fail = [&](const std::string& what) {
    failures.add("trace", what);
  };
  if (trace.spans.empty()) fail("trace contains no spans");

  // Metrics embedded in the trace metadata drive the recovery-aware
  // relaxations below: a recovered run's trace legitimately mixes spans
  // from attempts with different world sizes (a grow retry adds joiner
  // ranks beyond the launch world; the failed attempt's ranks show presort
  // while the resumed attempt's show checkpoint_restore).
  const MetricsSnapshot meta_metrics = trace.metrics.value_or(MetricsSnapshot{});
  const bool recovered = meta_metrics.value("recovery.recoveries", 0.0) > 0.0;
  const bool grew = meta_metrics.value("recovery.grows", 0.0) > 0.0;

  // Every rank announced in the metadata must have emitted spans, and no
  // span may come from an unknown rank (joiners from a grow recovery are
  // allowed past the launch world).
  std::set<int> ranks;
  for (const SpanRow& row : trace.spans) ranks.insert(row.rank);
  if (const Json* meta_ranks = trace.metadata.find("ranks")) {
    const int expected = static_cast<int>(meta_ranks->as_int());
    for (int r = 0; r < expected; ++r) {
      if (!ranks.count(r)) {
        fail("rank " + std::to_string(r) + " emitted no spans");
      }
    }
    for (const int r : ranks) {
      if (r < 0 || (r >= expected && !grew)) {
        fail("span from out-of-range rank " + std::to_string(r));
      }
    }
  }

  // Phase coverage must be SPMD-symmetric: a phase present on any rank must
  // be present on every rank (a fresh run shows presort; a resumed run
  // shows checkpoint_restore instead — symmetry covers both shapes). Mixed
  // multi-attempt traces from recovered runs are exempt.
  std::map<std::string, std::set<int>> phase_ranks;
  for (const SpanRow& row : trace.spans) {
    phase_ranks[row.name].insert(row.rank);
  }
  if (!recovered) {
    for (const auto& [name, present] : phase_ranks) {
      if (present.size() != ranks.size()) {
        fail("phase '" + name + "' appears on " +
             std::to_string(present.size()) + " of " +
             std::to_string(ranks.size()) + " ranks");
      }
    }
  }
  const bool has_levels = !trace.spans.empty() &&
                          std::any_of(trace.spans.begin(), trace.spans.end(),
                                      [](const SpanRow& r) {
                                        return r.level >= 0;
                                      });
  if (has_levels) {
    for (const char* phase : kLevelPhases) {
      if (!phase_ranks.count(phase)) {
        fail(std::string("level phase '") + phase + "' has no spans");
      }
    }
  }
  if (!phase_ranks.count("presort") && !phase_ranks.count("checkpoint_restore")) {
    fail("neither presort nor checkpoint_restore spans present");
  }

  // Recovery cross-checks: a trace that shows recovery activity (an
  // elastic_restore re-tile span) must carry the matching recovery metrics,
  // and vice versa — a recovery.* family without an outcome gauge means the
  // run escaped classification.
  if (trace.metrics.has_value()) {
    const MetricsSnapshot& metrics = *trace.metrics;
    const bool has_elastic_spans = phase_ranks.count("elastic_restore") > 0;
    const double elastic_restores =
        metrics.value("checkpoint.elastic_restores", 0.0);
    if (has_elastic_spans && elastic_restores < 1.0) {
      fail("elastic_restore spans present but checkpoint.elastic_restores "
           "counter is missing or zero");
    }
    if (has_elastic_spans && metrics.find("recovery.retile_bytes") == nullptr) {
      fail("elastic_restore spans present but recovery.retile_bytes counter "
           "is missing");
    }
    bool has_recovery_metrics = false;
    for (const auto& [name, metric] : metrics.metrics()) {
      (void)metric;
      if (name.rfind("recovery.", 0) == 0) {
        has_recovery_metrics = true;
        break;
      }
    }
    if (has_recovery_metrics &&
        metrics.find("recovery.outcome") == nullptr) {
      fail("recovery.* metrics present but the recovery.outcome gauge is "
           "missing (run escaped classification)");
    }
    if (metrics.value("recovery.recoveries", 0.0) >
        metrics.value("recovery.attempts", 0.0)) {
      fail("recovery.recoveries exceeds recovery.attempts");
    }
    if (metrics.value("recovery.grows", 0.0) > 0.0 &&
        metrics.find("recovery.joiners_admitted") == nullptr &&
        has_elastic_spans) {
      fail("grow recoveries recorded but recovery.joiners_admitted is "
           "missing");
    }

    // Heartbeat cross-check: every per-rank heartbeat lands in the Hub's
    // registry, so the run-level received counter must cover the summed
    // per-rank sent counters. A shortfall means heartbeats were dropped on
    // the lane — exactly the kind of gray failure the health layer exists
    // to catch. Recovered runs merge counters across attempts, so the exact
    // equality only binds single-attempt traces.
    const double hb_sent = metrics.value("health.heartbeats_sent", 0.0);
    const double hb_received = metrics.value("health.heartbeats_received", 0.0);
    if (hb_sent > 0.0 && hb_received <= 0.0) {
      fail("health.heartbeats_sent recorded but health.heartbeats_received "
           "is missing or zero (heartbeat lane lost every beat)");
    }
    if (!recovered && hb_sent > 0.0 && hb_received != hb_sent) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "health.heartbeats_received (%.0f) disagrees with "
                    "health.heartbeats_sent (%.0f)",
                    hb_received, hb_sent);
      fail(msg);
    }
    if (metrics.value("health.stragglers_detected", 0.0) > 0.0 &&
        hb_received <= 0.0) {
      fail("a straggler was detected but no heartbeats were received — "
           "classification without evidence");
    }
  }

  // For complete traces the top-level spans tile each rank's virtual clock,
  // so their vtime deltas must sum to induction.total_seconds within 1%.
  // Recovered traces carry the failed attempts' spans too, so the tiling
  // argument only holds for single-attempt runs.
  const Json* complete = trace.metadata.find("complete");
  if (complete != nullptr && complete->as_bool() && trace.metrics.has_value() &&
      !recovered) {
    const double total = trace.metrics->value("induction.total_seconds", -1.0);
    if (total >= 0.0) {
      std::map<int, double> rank_vtime;
      for (const SpanRow& row : trace.spans) {
        if (row.depth == 0) rank_vtime[row.rank] += vtime_of(row);
      }
      const double tolerance = std::max(0.01 * total, 1e-9);
      for (const auto& [rank, sum] : rank_vtime) {
        if (std::fabs(sum - total) > tolerance) {
          char msg[160];
          std::snprintf(msg, sizeof(msg),
                        "rank %d span vtimes sum to %.9f, metrics say "
                        "induction.total_seconds = %.9f",
                        rank, sum, total);
          fail(msg);
        }
      }
    }
  }

}

// A scalparc-metrics-v1 document's registry.
MetricsSnapshot load_metrics(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  require_format(doc, "scalparc-metrics-v1");
  return MetricsSnapshot::from_json(doc.at("metrics"));
}

void print_metrics(const MetricsSnapshot& snapshot, std::ostream& out) {
  out << "\nmetrics (" << snapshot.size() << "):\n";
  char line[256];
  for (const auto& [name, metric] : snapshot.metrics()) {
    if (metric.kind == MetricKind::kHistogram) {
      const scalparc::mp::Histogram& h = metric.histogram;
      std::snprintf(line, sizeof(line),
                    "  %-40s histogram  count=%llu p50=%.4g p95=%.4g "
                    "p99=%.4g max=%llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    scalparc::mp::histogram_quantile(h, 0.50),
                    scalparc::mp::histogram_quantile(h, 0.95),
                    scalparc::mp::histogram_quantile(h, 0.99),
                    static_cast<unsigned long long>(h.max));
    } else {
      std::snprintf(
          line, sizeof(line), "  %-40s %-9s %.6g\n", name.c_str(),
          std::string(scalparc::mp::metric_kind_name(metric.kind)).c_str(),
          metric.value);
    }
    out << line;
  }
}

// ---------------------------------------------------------------------------
// Critical-path analysis: per (level, phase lane) the run can only be as
// fast as its slowest rank, and the gap between that rank and the mean is
// time every other rank spends blocked at the next collective. Summing the
// per-lane maxima gives the critical path; summing the gaps gives the
// recoverable imbalance.
// ---------------------------------------------------------------------------

void print_critical_path(const Trace& trace, std::ostream& out) {
  std::set<int> ranks;
  for (const SpanRow& row : trace.spans) ranks.insert(row.rank);
  // level -> phase -> rank -> summed vtime
  std::map<int, std::map<std::string, std::map<int, double>>> table;
  for (const SpanRow& row : trace.spans) {
    if (row.level < 0) continue;
    table[row.level][row.name][row.rank] += vtime_of(row);
  }
  if (table.empty()) {
    out << "\ncritical path: no per-level spans in this trace\n";
    return;
  }
  out << "\ncritical path per level (slowest rank per phase lane; wait = "
         "crit - mean, the time the other ranks block):\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %5s %-18s %5s %12s %12s %12s %7s\n",
                "level", "phase", "crit", "crit-s", "mean-s", "wait-s",
                "wait%");
  out << line;
  double critical_total = 0.0;
  double wait_total = 0.0;
  for (const auto& [level, phases] : table) {
    for (const char* phase : kLevelPhases) {
      const auto it = phases.find(phase);
      if (it == phases.end()) continue;
      int crit_rank = -1;
      double crit = -1.0;
      double sum = 0.0;
      for (const auto& [rank, v] : it->second) {
        sum += v;
        if (v > crit) {
          crit = v;
          crit_rank = rank;
        }
      }
      if (crit < 0.0) crit = 0.0;
      // Absent ranks contribute zero: a lane a rank never entered still
      // waits out the slowest rank's lane time at the next collective.
      const double mean = ranks.empty()
                              ? 0.0
                              : sum / static_cast<double>(ranks.size());
      const double wait = crit - mean;
      critical_total += crit;
      wait_total += wait;
      std::snprintf(line, sizeof(line),
                    "  %5d %-18s %5d %12.6f %12.6f %12.6f %6.1f%%\n", level,
                    phase, crit_rank, crit, mean, wait,
                    crit > 0.0 ? 100.0 * wait / crit : 0.0);
      out << line;
    }
  }
  std::snprintf(line, sizeof(line),
                "  critical path %.6fs, imbalance wait %.6fs (%.1f%% "
                "recoverable by perfect balance)\n",
                critical_total, wait_total,
                critical_total > 0.0 ? 100.0 * wait_total / critical_total
                                     : 0.0);
  out << line;
}

// ---------------------------------------------------------------------------
// The time series: one scalparc-timeseries-v2 line per telemetry epoch.
// ---------------------------------------------------------------------------

struct SeriesLine {
  std::int64_t epoch = 0;
  std::int64_t attempt = 0;
  double t_s = 0.0;
  MetricsSnapshot metrics;
};

// Decodes every line; a line that does not decode is a failure and is left
// out of the result.
std::vector<SeriesLine> decode_series(const std::vector<Json>& lines,
                                      Failures& failures) {
  std::vector<SeriesLine> series;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    try {
      const Json& line = lines[i];
      require_format(line, "scalparc-timeseries-v2");
      SeriesLine decoded;
      decoded.epoch = line.at("epoch").as_int();
      decoded.attempt = line.at("attempt").as_int();
      decoded.t_s = line.at("t_s").as_double();
      decoded.metrics = MetricsSnapshot::from_json(line.at("metrics"));
      series.push_back(std::move(decoded));
    } catch (const std::exception& e) {
      failures.add("timeseries",
                   "line " + std::to_string(i + 1) + ": " + e.what());
    }
  }
  return series;
}

// Counter `name`'s total or histogram `name`'s count in `snapshot`; zero
// when the snapshot or the metric is absent.
double cumulative(const MetricsSnapshot* snapshot, const std::string& name) {
  const scalparc::mp::Metric* metric =
      snapshot == nullptr ? nullptr : snapshot->find(name);
  if (metric == nullptr) return 0.0;
  return metric->kind == MetricKind::kHistogram
             ? static_cast<double>(metric->histogram.count)
             : metric->value;
}

// One row per line: the three counters that rose most since the previous
// line of the same attempt, and the p99 of every histogram that grew.
void print_timeline(const std::vector<SeriesLine>& series, std::ostream& out) {
  out << "\ntimeline (" << series.size() << " epoch(s)):\n";
  char line[512];
  const SeriesLine* prev = nullptr;
  for (const SeriesLine& now : series) {
    const MetricsSnapshot* before =
        prev != nullptr && prev->attempt == now.attempt ? &prev->metrics
                                                        : nullptr;
    std::vector<std::pair<double, std::string>> rises;
    std::string tails;
    for (const auto& [name, metric] : now.metrics.metrics()) {
      if (metric.kind == MetricKind::kGauge) continue;
      const double delta =
          cumulative(&now.metrics, name) - cumulative(before, name);
      if (delta <= 0.0) continue;
      if (metric.kind == MetricKind::kCounter) {
        rises.emplace_back(delta, name);
        continue;
      }
      char cell[96];
      std::snprintf(cell, sizeof(cell), "%s%s p99=%.4g",
                    tails.empty() ? "" : ", ", name.c_str(),
                    scalparc::mp::histogram_quantile(metric.histogram, 0.99));
      tails += cell;
    }
    std::sort(rises.begin(), rises.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::string activity;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, rises.size()); ++i) {
      char cell[96];
      std::snprintf(cell, sizeof(cell), "%s%s +%.6g", i ? ", " : "",
                    rises[i].second.c_str(), rises[i].first);
      activity += cell;
    }
    if (activity.empty()) activity = "(idle)";
    std::snprintf(line, sizeof(line),
                  "  epoch %4lld  attempt %lld  t=%9.3fs  %s%s%s\n",
                  static_cast<long long>(now.epoch),
                  static_cast<long long>(now.attempt), now.t_s,
                  activity.c_str(), tails.empty() ? "" : "  |  ",
                  tails.c_str());
    out << line;
    prev = &now;
  }
}

// CI checks of a decoded series: epoch and t_s increase, attempts never
// decrease, counter totals and histogram counts never fall within one
// attempt, and the last line equals the final registry when it is given.
void validate_series(const std::vector<SeriesLine>& series,
                     const std::optional<MetricsSnapshot>& final_metrics,
                     Failures& failures) {
  const auto fail = [&](const std::string& what) {
    failures.add("timeseries", what);
  };
  if (series.empty()) {
    fail("document holds no decodable lines");
    return;
  }
  const SeriesLine* prev = nullptr;
  for (const SeriesLine& now : series) {
    const std::string at = " at epoch " + std::to_string(now.epoch);
    if (prev != nullptr) {
      if (now.epoch <= prev->epoch) fail("epoch does not increase" + at);
      if (now.t_s <= prev->t_s) fail("t_s does not increase" + at);
      if (now.attempt < prev->attempt) fail("attempt decreases" + at);
    }
    if (prev != nullptr && prev->attempt == now.attempt) {
      for (const auto& [name, metric] : prev->metrics.metrics()) {
        if (metric.kind == MetricKind::kGauge) continue;
        const double before = cumulative(&prev->metrics, name);
        const double after = cumulative(&now.metrics, name);
        if (after < before - 1e-9 * std::max(1.0, before)) {
          char msg[256];
          std::snprintf(msg, sizeof(msg), "%s '%s' falls from %.17g to %.17g",
                        metric.kind == MetricKind::kCounter ? "counter"
                                                            : "histogram count",
                        name.c_str(), before, after);
          fail(msg + at + " (attempt " + std::to_string(now.attempt) + ")");
        }
      }
    }
    prev = &now;
  }
  if (!final_metrics.has_value()) return;
  // The exporter writes the final registry itself as the last line, so the
  // two encodings must agree metric by metric.
  const Json last = series.back().metrics.to_json();
  const Json expected = final_metrics->to_json();
  std::set<std::string> names;
  for (const auto& [name, entry] : last.as_object()) names.insert(name);
  for (const auto& [name, entry] : expected.as_object()) names.insert(name);
  std::vector<std::string> differing;
  for (const std::string& name : names) {
    const Json* mine = last.find(name);
    const Json* theirs = expected.find(name);
    if (mine == nullptr || theirs == nullptr ||
        mine->dump(0) != theirs->dump(0)) {
      differing.push_back(name);
    }
  }
  if (!differing.empty()) {
    fail("last line differs from the --metrics registry in " +
         std::to_string(differing.size()) + " metric(s), first '" +
         differing.front() + "'");
  }
}

// ---------------------------------------------------------------------------
// The flight recorder's dump.
// ---------------------------------------------------------------------------

// CI checks for a scalparc-flight-v1 dump: well-formed header and events,
// nondecreasing timestamps, and event counts cross-checked against the
// recovery.* / predict.swaps / health.* counters of the final registry.
void validate_flight(const std::vector<Json>& lines,
                     const std::optional<MetricsSnapshot>& final_metrics,
                     Failures& failures) {
  const auto fail = [&](const std::string& what) {
    failures.add("flight", what);
  };
  if (lines.empty()) {
    fail("document is empty");
    return;
  }
  double dropped = 0.0;
  try {
    const Json& header = lines.front();
    require_format(header, "scalparc-flight-v1");
    if (header.at("capacity").as_double() < 1.0) {
      fail("header capacity must be >= 1");
    }
    dropped = header.at("dropped").as_double();
    if (dropped < 0.0) fail("header dropped count is negative");
    const std::int64_t announced = header.at("events").as_int();
    if (announced != static_cast<std::int64_t>(lines.size() - 1)) {
      fail("header announces " + std::to_string(announced) +
           " event(s) but the document holds " +
           std::to_string(lines.size() - 1));
    }
  } catch (const std::exception& e) {
    fail(std::string("malformed header: ") + e.what());
    return;
  }
  double prev_t = -1.0;
  std::map<std::string, double> by_kind;
  double recoveries = 0.0;  // non-terminal recovery events
  for (std::size_t i = 1; i < lines.size(); ++i) {
    try {
      const Json& event = lines[i];
      const double t_s = event.at("t_s").as_double();
      const std::string& kind = event.at("kind").as_string();
      (void)event.at("rank").as_int();
      const std::string& detail = event.at("detail").as_string();
      if (kind.empty()) fail("event " + std::to_string(i) + " has no kind");
      if (t_s < prev_t) {
        fail("event " + std::to_string(i) +
             " timestamp moves backwards (ring dump must be "
             "oldest-to-newest)");
      }
      prev_t = t_s;
      by_kind[kind] += 1.0;
      if (kind == "recovery" && detail.rfind("terminal:", 0) != 0) {
        recoveries += 1.0;
      }
    } catch (const std::exception& e) {
      fail("malformed event " + std::to_string(i) + ": " + e.what());
    }
  }
  // Counter cross-checks. Every recorded event of these kinds bumps (or is
  // bumped alongside) a registry counter, so with an unsaturated ring the
  // counts must agree exactly; once the ring dropped events the document
  // may only undercount.
  if (final_metrics.has_value()) {
    const auto cross_check = [&](const std::string& kind,
                                 const std::string& counter, double counted) {
      const double expected = final_metrics->value(counter, 0.0);
      if (counted > expected) {
        char msg[192];
        std::snprintf(msg, sizeof(msg),
                      "%.0f '%s' event(s) but the registry counter %s says "
                      "%.0f",
                      counted, kind.c_str(), counter.c_str(), expected);
        fail(msg);
      } else if (dropped == 0.0 && counted < expected) {
        char msg[192];
        std::snprintf(msg, sizeof(msg),
                      "registry counter %s says %.0f but only %.0f '%s' "
                      "event(s) recorded with zero drops",
                      counter.c_str(), expected, counted, kind.c_str());
        fail(msg);
      }
    };
    cross_check("model_swap", "predict.swaps", by_kind["model_swap"]);
    cross_check("straggler", "health.stragglers_detected",
                by_kind["straggler"]);
    // Non-terminal recovery events pair 1:1 with survived failures.
    cross_check("recovery", "recovery.recoveries", recoveries);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const scalparc::util::CliArgs args(argc, const_cast<const char* const*>(argv));
  const std::string metrics_path = args.get_string("metrics", "");
  const std::string timeseries_path = args.get_string("timeseries", "");
  const std::string flight_path = args.get_string("flight", "");
  const int top_k = static_cast<int>(args.get_int("top", 5));
  const bool validate_mode = args.get_bool("validate", false);

  // The trace positional is optional once any other document is named:
  // `--validate --timeseries F` checks just that document.
  if (args.positional().empty() && metrics_path.empty() &&
      timeseries_path.empty() && flight_path.empty()) {
    std::cerr << "usage: scalparc-trace-report [TRACE.json] [--top K] "
                 "[--metrics FILE] [--critical-path] [--timeseries F] "
                 "[--timeline] [--flight F] [--validate]\n";
    return 2;
  }

  // A document that cannot be read or decoded fails in any mode.
  Failures failures;
  const auto guarded = [&](std::string_view document, const auto& body) {
    try {
      body();
    } catch (const std::exception& e) {
      failures.add(document, e.what());
    }
  };
  if (!args.positional().empty()) {
    guarded("trace", [&] {
      const std::string& trace_path = args.positional().front();
      const Trace trace = load_trace(trace_path);
      std::cout << "trace: " << trace_path << "\n";
      print_report(trace, top_k, std::cout);
      if (args.get_bool("critical-path", false)) {
        print_critical_path(trace, std::cout);
      }
      if (validate_mode) validate_trace(trace, failures);
    });
  }
  // The final registry (when given) anchors the cross-document checks.
  std::optional<MetricsSnapshot> final_metrics;
  if (!metrics_path.empty()) {
    guarded("metrics", [&] {
      final_metrics = load_metrics(metrics_path);
      print_metrics(*final_metrics, std::cout);
      if (validate_mode && final_metrics->empty()) {
        failures.add("metrics", "document holds no metrics");
      }
    });
  }
  if (!timeseries_path.empty()) {
    guarded("timeseries", [&] {
      const std::vector<SeriesLine> series =
          decode_series(read_jsonl(timeseries_path), failures);
      std::cout << "timeseries: " << timeseries_path << " (" << series.size()
                << " epoch(s))\n";
      if (args.get_bool("timeline", false)) print_timeline(series, std::cout);
      if (validate_mode) validate_series(series, final_metrics, failures);
    });
  }
  if (!flight_path.empty()) {
    guarded("flight", [&] {
      const std::vector<Json> lines = read_jsonl(flight_path);
      std::cout << "flight: " << flight_path << " ("
                << (lines.empty() ? 0 : lines.size() - 1) << " event(s))\n";
      if (validate_mode) validate_flight(lines, final_metrics, failures);
    });
  }
  if (validate_mode) {
    if (failures.count > 0) {
      std::cout << "validation: " << failures.count << " failure(s)\n";
    } else {
      std::cout << "validation: OK\n";
    }
  }
  return failures.count > 0 ? 1 : 0;
}
