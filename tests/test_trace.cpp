// The observability layer: per-rank span tracing (util/trace.hpp), the typed
// metrics registry (mp/metrics.hpp), and their integration with the
// induction loop — nesting/ordering, ring-buffer retention, merge
// associativity, Chrome trace_event export, the vtime-tiling invariant
// against InductionStats::total_seconds, and the differential guarantee that
// tracing changes nothing about the computed tree.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/scalparc.hpp"
#include "data/synthetic.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace scalparc {
namespace {

using core::InductionControls;
using core::ScalParC;
using data::GeneratorConfig;
using data::QuestGenerator;
using mp::Histogram;
using mp::MetricsSnapshot;
using util::Json;
using util::TraceCollector;
using util::TraceConfig;
using util::TraceDump;
using util::TraceScope;

data::Dataset make_training(std::uint64_t records, std::uint64_t seed = 7) {
  GeneratorConfig config;
  config.seed = seed;
  config.function = data::LabelFunction::kF2;
  return QuestGenerator(config).generate(0, records);
}

// ---------------------------------------------------------------------------
// TraceScope mechanics
// ---------------------------------------------------------------------------

TEST(Trace, SpansRecordNestingAndCompletionOrder) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  ASSERT_TRUE(TraceCollector::instance().start(TraceConfig{}));
  {
    util::ThreadRankGuard rank(3);
    TraceScope outer("presort");
    {
      TraceScope inner("findsplit_i", /*level=*/2, /*nodes=*/5,
                       /*records=*/100);
      inner.set_bytes(4096);
    }
  }
  const TraceDump dump = TraceCollector::instance().stop();
  ASSERT_EQ(dump.spans.size(), 2u);
  EXPECT_TRUE(dump.complete());
  // Spans complete inner-first, so seq orders them inner, outer.
  const util::TraceSpan& inner = dump.spans[0];
  const util::TraceSpan& outer = dump.spans[1];
  EXPECT_STREQ(inner.name, "findsplit_i");
  EXPECT_STREQ(outer.name, "presort");
  EXPECT_EQ(inner.rank, 3);
  EXPECT_EQ(outer.rank, 3);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_LT(inner.seq, outer.seq);
  EXPECT_EQ(inner.level, 2);
  EXPECT_EQ(inner.nodes, 5);
  EXPECT_EQ(inner.records, 100);
  EXPECT_EQ(inner.bytes, 4096);
  EXPECT_GE(inner.ts_s, outer.ts_s);
  EXPECT_GE(inner.dur_s, 0.0);
}

TEST(Trace, RingKeepsNewestSpans) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  TraceConfig config;
  config.ring_capacity = 4;
  ASSERT_TRUE(TraceCollector::instance().start(config));
  static const char* const kNames[] = {"s0", "s1", "s2", "s3", "s4",
                                       "s5", "s6", "s7", "s8", "s9"};
  {
    util::ThreadRankGuard rank(0);
    for (int i = 0; i < 10; ++i) {
      TraceScope span(kNames[i], i);
    }
  }
  const TraceDump dump = TraceCollector::instance().stop();
  ASSERT_EQ(dump.spans.size(), 4u);
  EXPECT_EQ(dump.dropped, 6u);
  EXPECT_FALSE(dump.complete());
  // Oldest-first within the retained window: the newest four spans.
  EXPECT_EQ(dump.spans[0].level, 6);
  EXPECT_EQ(dump.spans[3].level, 9);
  for (std::size_t i = 1; i < dump.spans.size(); ++i) {
    EXPECT_LT(dump.spans[i - 1].seq, dump.spans[i].seq);
  }
}

TEST(Trace, SamplingKeepsEveryNth) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  TraceConfig config;
  config.sample_every = 3;
  ASSERT_TRUE(TraceCollector::instance().start(config));
  {
    util::ThreadRankGuard rank(0);
    for (int i = 0; i < 9; ++i) {
      TraceScope span("sampled", i);
    }
  }
  const TraceDump dump = TraceCollector::instance().stop();
  EXPECT_EQ(dump.spans.size(), 3u);
  EXPECT_EQ(dump.sampled_out, 6u);
  EXPECT_FALSE(dump.complete());
  EXPECT_EQ(dump.spans[0].level, 0);  // first span always kept
  EXPECT_EQ(dump.spans[1].level, 3);
  EXPECT_EQ(dump.spans[2].level, 6);
}

TEST(Trace, ScopeOutsideActiveCollectorRecordsNothing) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  {
    TraceScope span("ignored");
  }
  ASSERT_TRUE(TraceCollector::instance().start(TraceConfig{}));
  const TraceDump dump = TraceCollector::instance().stop();
  EXPECT_TRUE(dump.spans.empty());
}

TEST(Trace, ConcurrentRanksGetSeparateLanes) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  ASSERT_TRUE(TraceCollector::instance().start(TraceConfig{}));
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([r] {
      util::ThreadRankGuard rank(r);
      for (int i = 0; i < 25; ++i) {
        TraceScope span("work", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const TraceDump dump = TraceCollector::instance().stop();
  ASSERT_EQ(dump.spans.size(), 100u);
  std::map<int, std::uint64_t> last_seq;
  std::map<int, int> count;
  for (const util::TraceSpan& span : dump.spans) {
    ++count[span.rank];
    if (count[span.rank] > 1) {
      EXPECT_LT(last_seq[span.rank], span.seq) << "rank " << span.rank;
    }
    last_seq[span.rank] = span.seq;
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(count[r], 25) << "rank " << r;
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, HistogramBucketsArePowerOfTwoRanges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), mp::kHistogramBuckets - 1);
  Histogram h;
  h.observe(0);
  h.observe(5);
  h.observe(5);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 10u);
  EXPECT_EQ(h.max, 5u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[3], 2u);
}

MetricsSnapshot snapshot_of(double c, double g, std::uint64_t obs) {
  MetricsSnapshot s;
  s.add("family.counter", c);
  s.gauge_max("family.gauge", g);
  s.observe("family.histogram", obs);
  return s;
}

TEST(Metrics, MergeIsAssociativeAndCommutative) {
  const MetricsSnapshot a = snapshot_of(1, 10, 100);
  const MetricsSnapshot b = snapshot_of(2, 30, 5);
  const MetricsSnapshot c = snapshot_of(4, 20, 1000);

  MetricsSnapshot ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  MetricsSnapshot bc = b;
  bc.merge(c);
  MetricsSnapshot a_bc = a;
  a_bc.merge(bc);
  MetricsSnapshot cba = c;
  cba.merge(b);
  cba.merge(a);

  const std::string expected = ab_c.to_json().dump(0);
  EXPECT_EQ(a_bc.to_json().dump(0), expected);
  EXPECT_EQ(cba.to_json().dump(0), expected);
  EXPECT_DOUBLE_EQ(ab_c.value("family.counter"), 7.0);
  EXPECT_DOUBLE_EQ(ab_c.value("family.gauge"), 30.0);
  const mp::Metric* h = ab_c.find("family.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, 3u);
  EXPECT_EQ(h->histogram.max, 1000u);
}

TEST(Metrics, MergeRejectsKindMismatch) {
  MetricsSnapshot a;
  a.add("x", 1);
  MetricsSnapshot b;
  b.gauge_max("x", 1);
  EXPECT_THROW(a.merge(b), std::logic_error);
  EXPECT_THROW(a.gauge_max("x", 2), std::logic_error);
}

TEST(Metrics, JsonRoundTripPreservesEverything) {
  MetricsSnapshot s = snapshot_of(3.5, 7.25, 129);
  s.observe("family.histogram", 0);
  s.observe("family.histogram", 1u << 20);
  const Json doc = s.to_json();
  const MetricsSnapshot back =
      MetricsSnapshot::from_json(Json::parse(doc.dump(2)));
  EXPECT_EQ(back.to_json().dump(0), doc.dump(0));
}

// ---------------------------------------------------------------------------
// Integration with the induction loop
// ---------------------------------------------------------------------------

struct TracedRun {
  core::FitReport report;
  TraceDump dump;
};

TracedRun traced_fit(const data::Dataset& training, int ranks,
                     const mp::CostModel& model,
                     const InductionControls& controls = {}) {
  EXPECT_TRUE(TraceCollector::instance().start(TraceConfig{}));
  TracedRun run;
  run.report = ScalParC::fit(training, ranks, controls, model);
  run.dump = TraceCollector::instance().stop();
  return run;
}

TEST(TraceInduction, ChromeExportHasOnePidPerRankAndAllPhases) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const int p = 4;
  const TracedRun run =
      traced_fit(make_training(2000), p, mp::CostModel::cray_t3d());
  ASSERT_TRUE(run.dump.complete());

  Json metadata = Json::object();
  metadata["ranks"] = p;
  const Json doc = util::chrome_trace_json(run.dump, metadata);
  // Chrome JSON must survive its own serialization.
  const Json parsed = Json::parse(doc.dump(0));
  ASSERT_TRUE(parsed.find("traceEvents") != nullptr);
  EXPECT_EQ(parsed.at("otherData").at("ranks").as_int(), p);

  std::set<int> pids;
  std::map<int, std::set<std::string>> phases_by_pid;
  const Json& events = parsed.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    if (event.at("ph").as_string() != "X") continue;
    const int pid = static_cast<int>(event.at("pid").as_int());
    pids.insert(pid);
    phases_by_pid[pid].insert(event.at("name").as_string());
    EXPECT_GE(event.at("ts").as_double(), 0.0);
    EXPECT_GE(event.at("dur").as_double(), 0.0);
  }
  ASSERT_EQ(static_cast<int>(pids.size()), p);
  for (int r = 0; r < p; ++r) {
    ASSERT_TRUE(pids.count(r)) << "rank " << r;
    const std::set<std::string>& phases = phases_by_pid[r];
    for (const char* phase :
         {"presort", "findsplit_i", "findsplit_ii", "performsplit_i",
          "performsplit_ii"}) {
      EXPECT_TRUE(phases.count(phase))
          << "rank " << r << " missing phase " << phase;
    }
  }
}

// The phase spans tile every vtime-advancing statement of the induction
// loop, so per rank the top-level span vtime deltas sum exactly to
// InductionStats::total_seconds (the report tool enforces 1%; here the
// modeled clock is deterministic, so the agreement is to rounding).
void expect_top_level_spans_tile_total(const TracedRun& run, int p) {
  ASSERT_TRUE(run.dump.complete());
  const double total = run.report.stats.total_seconds;
  ASSERT_GT(total, 0.0);
  std::map<int, double> rank_vtime;
  for (const util::TraceSpan& span : run.dump.spans) {
    if (span.depth == 0) {
      rank_vtime[span.rank] += span.vtime_end - span.vtime_begin;
    }
  }
  ASSERT_EQ(static_cast<int>(rank_vtime.size()), p);
  for (const auto& [rank, sum] : rank_vtime) {
    EXPECT_NEAR(sum, total, 0.01 * total) << "rank " << rank;
  }
}

TEST(TraceInduction, SpanVtimesTileTotalSeconds) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const int p = 4;
  expect_top_level_spans_tile_total(
      traced_fit(make_training(2000), p, mp::CostModel::cray_t3d()), p);
}

// The histogram engine's phase spans follow the same contract, and none
// nests inside another: each phase ends where the next begins.
TEST(TraceInduction, HistogramPhaseSpansAreFlatAndTileTotalSeconds) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const int p = 4;
  InductionControls controls;
  controls.options.split_mode = core::SplitMode::kHistogram;
  controls.collect_level_stats = true;
  const TracedRun run = traced_fit(make_training(2000), p,
                                   mp::CostModel::cray_t3d(), controls);
  for (const util::TraceSpan& span : run.dump.spans) {
    EXPECT_EQ(span.depth, 0) << span.name << " at level " << span.level
                             << " on rank " << span.rank;
  }
  expect_top_level_spans_tile_total(run, p);
}

TEST(TraceInduction, MergedRunMetricsCoverTheFamilies) {
  const int p = 4;
  const core::FitReport report = ScalParC::fit(
      make_training(2000), p, InductionControls{}, mp::CostModel::cray_t3d());
  const MetricsSnapshot& m = report.run.metrics;
  // Gauges are SPMD-identical, so the merged value is the per-run value.
  EXPECT_DOUBLE_EQ(m.value("runtime.ranks"), p);
  // The gauge max-merges the per-rank clocks; report.stats is rank 0's view,
  // so agreement is to the (small) end-of-run vtime skew, not exact.
  EXPECT_GE(m.value("induction.total_seconds"),
            report.stats.total_seconds - 1e-12);
  EXPECT_NEAR(m.value("induction.total_seconds"), report.stats.total_seconds,
              0.01 * report.stats.total_seconds);
  EXPECT_GT(m.value("comm.bytes_sent"), 0.0);
  EXPECT_GT(m.value("nodetable.updates"), 0.0);
  EXPECT_GT(m.value("memory.peak_bytes_per_rank"), 0.0);
  const mp::Metric* hist = m.find("comm.message_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, mp::MetricKind::kHistogram);
  EXPECT_GT(hist->histogram.count, 0u);
  // Counters sum across ranks: messages balance globally.
  EXPECT_DOUBLE_EQ(m.value("comm.messages_sent"),
                   m.value("comm.messages_received"));
}

// Differential guarantee: tracing must observe, never perturb. The tree
// from a traced run is byte-identical to an untraced one, and the traced
// run's wall time stays within the <5% overhead budget (with an absolute
// slack so scheduler noise on tiny runs cannot flake the suite).
TEST(TraceInduction, TracingIsByteIdenticalAndCheap) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const int p = 4;
  const data::Dataset training = make_training(4000);

  const auto timed_fit = [&](bool traced) {
    double best = 1e300;
    std::string tree_text;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (traced) {
        EXPECT_TRUE(TraceCollector::instance().start(TraceConfig{}));
      }
      const auto begin = std::chrono::steady_clock::now();
      const core::FitReport report = ScalParC::fit(
          training, p, InductionControls{}, mp::CostModel::zero());
      const auto end = std::chrono::steady_clock::now();
      if (traced) {
        const TraceDump dump = TraceCollector::instance().stop();
        EXPECT_FALSE(dump.spans.empty());
      }
      best = std::min(best, std::chrono::duration<double>(end - begin).count());
      tree_text = report.tree.to_string();
    }
    return std::pair<double, std::string>(best, tree_text);
  };

  const auto [untraced_s, untraced_tree] = timed_fit(false);
  const auto [traced_s, traced_tree] = timed_fit(true);
  EXPECT_EQ(traced_tree, untraced_tree);
  EXPECT_LT(traced_s, untraced_s * 1.05 + 0.05)
      << "tracing overhead above budget: " << untraced_s << "s -> "
      << traced_s << "s";
}

}  // namespace
}  // namespace scalparc
