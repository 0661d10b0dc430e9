// The continuous-telemetry layer: histogram quantiles and their JSON summary
// fields, the live registry's latest-per-source algebra and attempt
// numbering, rolling-window quantiles and SLO burn accounting, the
// flight-recorder ring, the background exporter's scalparc-timeseries-v2
// lines (ending in the final registry), the registry edge paths
// (kind-mismatch merges, disjoint-bucket folds, sinks outside rank threads,
// sampled trace dumps), the JSON structured-log knob, and the differential
// guarantee that a telemetered scoring loop stays within 5% of the
// untelemetered one.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_tree.hpp"
#include "core/scalparc.hpp"
#include "data/synthetic.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "mp/telemetry.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace scalparc {
namespace {

using core::CompiledTree;
using core::InductionControls;
using core::ScalParC;
using mp::Histogram;
using mp::MetricsSnapshot;
using util::Json;

data::Dataset make_training(std::uint64_t records, std::uint64_t seed = 7) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.function = data::LabelFunction::kF2;
  return data::QuestGenerator(config).generate(0, records);
}

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          ("scalparc_telemetry_test_" + stem + "_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
      .string();
}

std::vector<Json> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<Json> docs;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) docs.push_back(Json::parse(line));
  }
  return docs;
}

// Every test leaves the process-global telemetry state as it found it.
class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    telemetry::reset_live_metrics();  // clears only while enabled
    telemetry::set_live_metrics_enabled(false);
    telemetry::set_flight_capacity(0);
    telemetry::arm_flight_dump("");
  }
};

// ---------------------------------------------------------------------------
// histogram_quantile + JSON summary fields
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, EmptyAndSingleValue) {
  Histogram h;
  EXPECT_EQ(mp::histogram_quantile(h, 0.5), 0.0);
  h.observe(100);
  // A single observation is every quantile, clamped to the observed max.
  EXPECT_LE(mp::histogram_quantile(h, 0.5), 100.0);
  EXPECT_GT(mp::histogram_quantile(h, 0.5), 0.0);
  EXPECT_EQ(mp::histogram_quantile(h, 1.0), 100.0);
}

TEST(HistogramQuantile, OrdersAndClamps) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(10);
  h.observe(100000);
  const double p50 = mp::histogram_quantile(h, 0.50);
  const double p99 = mp::histogram_quantile(h, 0.99);
  EXPECT_LE(p50, p99);
  EXPECT_LT(p50, 20.0);  // inside the bucket holding 10
  // Out-of-range q is clamped, never UB.
  EXPECT_EQ(mp::histogram_quantile(h, 2.0), 100000.0);
  EXPECT_EQ(mp::histogram_quantile(h, -1.0),
            mp::histogram_quantile(h, 0.0));
  // The tail quantile never exceeds the observed max.
  EXPECT_LE(mp::histogram_quantile(h, 1.0), 100000.0);
}

TEST(HistogramQuantile, ZeroBucketIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(0);
  h.observe(1000);
  EXPECT_EQ(mp::histogram_quantile(h, 0.5), 0.0);
}

TEST(MetricsJson, HistogramsCarryQuantileSummaries) {
  MetricsSnapshot snapshot;
  for (std::uint64_t v = 1; v <= 100; ++v) snapshot.observe("lat", v);
  const Json doc = snapshot.to_json();
  const Json& entry = doc.at("lat");
  EXPECT_GT(entry.at("p50").as_double(), 0.0);
  EXPECT_LE(entry.at("p50").as_double(), entry.at("p95").as_double());
  EXPECT_LE(entry.at("p95").as_double(), entry.at("p99").as_double());
  EXPECT_LE(entry.at("p99").as_double(), 100.0);
  // The summary fields are derived, not stored: the round trip must still
  // reconstruct the identical histogram.
  const MetricsSnapshot back = MetricsSnapshot::from_json(doc);
  const mp::Metric* metric = back.find("lat");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->histogram.count, 100u);
  EXPECT_EQ(metric->histogram.max, 100u);
}

// ---------------------------------------------------------------------------
// Registry edge paths
// ---------------------------------------------------------------------------

TEST(MetricsEdge, KindMismatchMergeThrows) {
  MetricsSnapshot a;
  a.add("x", 1.0);
  MetricsSnapshot b;
  b.gauge_max("x", 2.0);
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(MetricsEdge, DisjointBucketHistogramMerge) {
  MetricsSnapshot a;
  a.observe("h", 1);  // bucket 1
  MetricsSnapshot b;
  b.observe("h", 1u << 20);  // a far-away bucket
  a.merge(b);
  const mp::Metric* metric = a.find("h");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->histogram.count, 2u);
  EXPECT_EQ(metric->histogram.sum, 1u + (1u << 20));
  EXPECT_EQ(metric->histogram.max, 1u << 20);
  std::uint64_t nonzero = 0;
  for (const std::uint64_t c : metric->histogram.buckets) nonzero += c;
  EXPECT_EQ(nonzero, 2u);
}

TEST(MetricsEdge, SinkIsNullOutsideRankThreads) {
  EXPECT_EQ(mp::metrics_sink(), nullptr);
}

TEST(MetricsEdge, SampledTraceDumpIsIncomplete) {
  if (!util::trace_compiled_in()) GTEST_SKIP() << "tracing compiled out";
  util::TraceConfig config;
  config.sample_every = 2;
  ASSERT_TRUE(util::TraceCollector::instance().start(config));
  for (int i = 0; i < 4; ++i) {
    util::TraceScope span("findsplit_i", /*level=*/0);
  }
  const util::TraceDump dump = util::TraceCollector::instance().stop();
  // A sampled dump must advertise itself as incomplete so validators skip
  // the vtime-tiling invariant (half the spans are simply missing).
  EXPECT_FALSE(dump.complete());
  EXPECT_EQ(dump.sample_every, 2);
}

// ---------------------------------------------------------------------------
// Live registry
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, PublishIsLatestWinsPerSourceAndMergesAcrossSources) {
  telemetry::set_live_metrics_enabled(true);
  MetricsSnapshot r0;
  r0.add("work", 5.0);
  telemetry::publish_metrics("rank0", r0);
  r0.add("work", 5.0);  // cumulative: now 10
  telemetry::publish_metrics("rank0", r0);
  MetricsSnapshot r1;
  r1.add("work", 3.0);
  r1.gauge_max("peak", 7.0);
  telemetry::publish_metrics("rank1", r1);

  const telemetry::LiveMetrics live = telemetry::merged_live_metrics();
  EXPECT_EQ(live.merged.value("work"), 13.0);  // latest rank0 (10) + rank1 (3)
  EXPECT_EQ(live.merged.value("peak"), 7.0);

  // A reset drops every source and starts the next attempt.
  telemetry::reset_live_metrics();
  const telemetry::LiveMetrics next = telemetry::merged_live_metrics();
  EXPECT_TRUE(next.merged.empty());
  EXPECT_EQ(next.attempt, live.attempt + 1);
}

TEST_F(TelemetryTest, PublishIsIgnoredWhileDisabled) {
  ASSERT_FALSE(telemetry::live_metrics_enabled());
  MetricsSnapshot snapshot;
  snapshot.add("work", 1.0);
  telemetry::publish_metrics("rank0", snapshot);
  EXPECT_TRUE(telemetry::merged_live_metrics().merged.empty());
  // So is a reset: a fit without telemetry starts no attempt.
  const int attempt = telemetry::merged_live_metrics().attempt;
  telemetry::reset_live_metrics();
  EXPECT_EQ(telemetry::merged_live_metrics().attempt, attempt);
}

// ---------------------------------------------------------------------------
// Rolling-window quantiles + SLO tracking
// ---------------------------------------------------------------------------

TEST(RollingQuantiles, WindowEvictsOldEpochs) {
  telemetry::RollingQuantiles rolling(2);
  EXPECT_EQ(rolling.window_epochs(), 2u);
  for (int i = 0; i < 100; ++i) rolling.observe(1u << 20);  // slow epoch
  EXPECT_GT(rolling.quantile(0.5), 1000.0);
  rolling.advance_epoch();
  for (int i = 0; i < 100; ++i) rolling.observe(4);
  // Both epochs still in the window: the p99 tail is the old slow epoch.
  EXPECT_GT(rolling.quantile(0.99), 1000.0);
  rolling.advance_epoch();
  for (int i = 0; i < 100; ++i) rolling.observe(4);
  // The slow epoch has been evicted; the window only holds fast epochs.
  EXPECT_LT(rolling.quantile(0.99), 100.0);
  EXPECT_EQ(rolling.windowed().count, 200u);
}

TEST_F(TelemetryTest, SloTrackerCountsBreachesAndBurn) {
  telemetry::set_flight_capacity(16);  // capture the breach-entry event
  telemetry::SloTracker slo(/*target_p99_us=*/100.0, /*window_epochs=*/2);
  for (int i = 0; i < 50; ++i) slo.observe_latency_us(10000);
  EXPECT_TRUE(slo.epoch_tick(1.0));
  EXPECT_TRUE(slo.epoch_tick(1.0));  // still violating: window holds the tail
  MetricsSnapshot metrics = slo.metrics();
  EXPECT_EQ(metrics.value("slo.target_p99_us"), 100.0);
  EXPECT_GT(metrics.value("slo.p99_us"), 100.0);
  EXPECT_EQ(metrics.value("slo.breaches"), 2.0);
  EXPECT_EQ(metrics.value("slo.burn_seconds"), 2.0);
  EXPECT_GT(metrics.value("slo.time_in_violation_s"), 0.0);
  // Breach *entry* records exactly one flight event, not one per epoch.
  int breach_events = 0;
  for (const telemetry::FlightEvent& event : telemetry::flight_events()) {
    if (event.kind == "slo_breach") ++breach_events;
  }
  EXPECT_EQ(breach_events, 1);

  // The second tick's advance evicted the slow epoch from the 2-epoch
  // window, so a fast epoch ends the violation and burn stops accruing.
  for (int i = 0; i < 50; ++i) slo.observe_latency_us(5);
  EXPECT_FALSE(slo.epoch_tick(1.0));
  metrics = slo.metrics();
  EXPECT_LT(metrics.value("slo.p99_us"), 100.0);
  EXPECT_EQ(metrics.value("slo.breaches"), 2.0);
  EXPECT_EQ(metrics.value("slo.burn_seconds"), 2.0);
  EXPECT_EQ(metrics.value("slo.time_in_violation_s"), 0.0);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, FlightRingEvictsOldestAndCountsDrops) {
  telemetry::set_flight_capacity(3);
  for (int i = 0; i < 5; ++i) {
    telemetry::record_event("test", "event " + std::to_string(i));
  }
  const std::vector<telemetry::FlightEvent> events =
      telemetry::flight_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().detail, "event 2");  // oldest surviving
  EXPECT_EQ(events.back().detail, "event 4");
  EXPECT_EQ(telemetry::flight_dropped(), 2u);
  EXPECT_LE(events.front().t_s, events.back().t_s);
  EXPECT_EQ(events.front().rank, -1);  // not a rank thread

  telemetry::clear_flight();
  EXPECT_TRUE(telemetry::flight_events().empty());
  EXPECT_EQ(telemetry::flight_dropped(), 0u);
}

TEST_F(TelemetryTest, RecordIsNoOpWhileDisabled) {
  ASSERT_EQ(telemetry::flight_capacity(), 0u);
  telemetry::record_event("test", "dropped on the floor");
  EXPECT_TRUE(telemetry::flight_events().empty());
  EXPECT_FALSE(telemetry::dump_flight(temp_path("disabled")));
}

TEST_F(TelemetryTest, DumpWritesFlightV1) {
  telemetry::set_flight_capacity(8);
  telemetry::record_event("model_swap", "hot-swap #1");
  telemetry::record_event("recovery", "restart after rank 2 failure");
  const std::string path = temp_path("flight");
  ASSERT_TRUE(telemetry::dump_flight(path));
  const std::vector<Json> lines = read_jsonl(path);
  ASSERT_EQ(lines.size(), 3u);
  const Json& header = lines[0];
  EXPECT_EQ(header.at("format").as_string(), "scalparc-flight-v1");
  EXPECT_EQ(header.at("capacity").as_int(), 8);
  EXPECT_EQ(header.at("dropped").as_int(), 0);
  EXPECT_EQ(header.at("events").as_int(), 2);
  EXPECT_EQ(lines[1].at("kind").as_string(), "model_swap");
  EXPECT_EQ(lines[2].at("kind").as_string(), "recovery");
  EXPECT_LE(lines[1].at("t_s").as_double(), lines[2].at("t_s").as_double());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// TelemetryExporter lines
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ExporterEmitsConsistentEpochDeltas) {
  const std::string series_path = temp_path("series");
  MetricsSnapshot snapshot;
  {
    telemetry::TelemetryOptions options;
    options.timeseries_path = series_path;
    options.interval_ms = 20;
    telemetry::TelemetryExporter exporter(options);
    for (int step = 1; step <= 5; ++step) {
      snapshot.add("work.steps", 1.0);
      snapshot.observe("work.latency_us", 100u * step);
      telemetry::publish_metrics("rank0", snapshot);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    snapshot.gauge_max("work.end_of_run", 1.0);  // never published live
    exporter.stop(snapshot);
    EXPECT_GE(exporter.epochs(), 2);
  }

  const std::vector<Json> lines = read_jsonl(series_path);
  ASSERT_GE(lines.size(), 2u);
  std::int64_t prev_epoch = -1;
  double prev_total = 0.0;
  double delta_sum = 0.0;
  for (const Json& line : lines) {
    EXPECT_EQ(line.at("format").as_string(), "scalparc-timeseries-v2");
    EXPECT_EQ(line.at("attempt").as_int(), 0);
    EXPECT_GT(line.at("epoch").as_int(), prev_epoch);
    prev_epoch = line.at("epoch").as_int();
    const MetricsSnapshot metrics =
        MetricsSnapshot::from_json(line.at("metrics"));
    const double total = metrics.value("work.steps");
    EXPECT_GE(total, prev_total) << "counter total went backwards";
    delta_sum += total - prev_total;
    prev_total = total;
  }
  // Readers subtract consecutive lines; the differences telescope to the
  // final total, and the last line is the registry stop() was handed.
  EXPECT_DOUBLE_EQ(delta_sum, 5.0);
  EXPECT_EQ(lines.back().at("metrics").dump(0), snapshot.to_json().dump(0));
  std::filesystem::remove(series_path);
}

TEST_F(TelemetryTest, ExporterEpochHookInjectsMetrics) {
  const std::string series_path = temp_path("hooked");
  {
    telemetry::TelemetryOptions options;
    options.timeseries_path = series_path;
    options.interval_ms = 1000;  // only the final stop() epoch fires
    options.epoch_hook = [](MetricsSnapshot& merged, double epoch_seconds) {
      merged.gauge_max("hook.epoch_seconds_seen", epoch_seconds >= 0.0);
      merged.add("hook.calls", 1.0);
    };
    telemetry::TelemetryExporter exporter(options);
    exporter.stop(MetricsSnapshot{});
  }
  const std::vector<Json> lines = read_jsonl(series_path);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines.back().at("metrics").find("hook.calls"), nullptr);
  std::filesystem::remove(series_path);
}

TEST_F(TelemetryTest, FinalLineNamesTheCurrentAttempt) {
  const std::string series_path = temp_path("attempts");
  MetricsSnapshot final_registry;
  final_registry.add("work.steps", 2.0);
  {
    telemetry::TelemetryOptions options;
    options.timeseries_path = series_path;
    options.interval_ms = 1000;  // only the final stop() epoch fires
    telemetry::TelemetryExporter exporter(options);
    MetricsSnapshot dead_attempt;
    dead_attempt.add("work.steps", 7.0);
    telemetry::publish_metrics("rank3", dead_attempt);
    telemetry::reset_live_metrics();  // what a recovered fit does per retry
    EXPECT_TRUE(telemetry::merged_live_metrics().merged.empty());
    exporter.stop(final_registry);
  }
  const std::vector<Json> lines = read_jsonl(series_path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("attempt").as_int(), 1);
  EXPECT_EQ(lines[0].at("metrics").dump(0), final_registry.to_json().dump(0));
  // stop() leaves the registry empty and off.
  EXPECT_FALSE(telemetry::live_metrics_enabled());
  EXPECT_TRUE(telemetry::merged_live_metrics().merged.empty());
  std::filesystem::remove(series_path);
}

TEST_F(TelemetryTest, ExporterThrowsWhenTheSeriesCannotBeOpened) {
  telemetry::TelemetryOptions options;
  options.timeseries_path = temp_path("no_such_dir") + "/series.jsonl";
  EXPECT_THROW(telemetry::TelemetryExporter exporter(options),
               std::runtime_error);
  EXPECT_FALSE(telemetry::live_metrics_enabled());
}

// ---------------------------------------------------------------------------
// Structured-log knob
// ---------------------------------------------------------------------------

TEST(LogFormat, ParsesAndRejectsLoudly) {
  EXPECT_EQ(util::parse_log_format("text"), util::LogFormat::kText);
  EXPECT_EQ(util::parse_log_format("json"), util::LogFormat::kJson);
  EXPECT_THROW(util::parse_log_format("yaml"), std::invalid_argument);
  EXPECT_THROW(util::parse_log_format(""), std::invalid_argument);
  const util::LogFormat saved = util::log_format();
  util::set_log_format(util::LogFormat::kJson);
  EXPECT_EQ(util::log_format(), util::LogFormat::kJson);
  util::set_log_format(saved);
}

// ---------------------------------------------------------------------------
// Differential: telemetry must not slow the scoring loop
// ---------------------------------------------------------------------------

// Mirrors serve's inner loop: score the evaluation set through the compiled
// engine in batches, once bare and once with the full telemetry stack
// running (live publishes, SLO observation, exporter epochs). The
// telemetered loop must sustain >= ~95% of the bare throughput — the same
// budget the tracing layer is held to.
TEST_F(TelemetryTest, TelemetryKeepsScoringWithinBudget) {
  const data::Dataset training = make_training(4000);
  const core::FitReport report = ScalParC::fit(training, 2);
  const CompiledTree compiled = CompiledTree::compile(report.tree);
  const data::Dataset scoring = make_training(20000, /*seed=*/11);
  const std::size_t batch = 512;
  std::vector<std::int32_t> out(batch);

  const auto timed_pass = [&](bool telemetered) {
    std::unique_ptr<telemetry::TelemetryExporter> exporter;
    std::unique_ptr<telemetry::SloTracker> slo;
    const std::string series_path = temp_path("overhead");
    if (telemetered) {
      telemetry::set_flight_capacity(256);
      slo = std::make_unique<telemetry::SloTracker>(1e9);
      telemetry::TelemetryOptions options;
      options.timeseries_path = series_path;
      options.interval_ms = 10;
      exporter = std::make_unique<telemetry::TelemetryExporter>(options);
    }
    double best = 1e300;
    std::uint64_t checksum = 0;
    MetricsSnapshot local;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const auto begin = std::chrono::steady_clock::now();
      for (std::size_t row = 0; row < scoring.num_records(); row += batch) {
        const std::size_t end =
            std::min(row + batch, static_cast<std::size_t>(
                                      scoring.num_records()));
        const auto t0 = std::chrono::steady_clock::now();
        compiled.predict_batch(scoring, row, end,
                               std::span<std::int32_t>(out.data(), end - row));
        checksum += static_cast<std::uint64_t>(out[0]);
        if (telemetered) {
          const auto us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          local.add("serve.batches", 1.0);
          local.observe("serve.batch_us", static_cast<std::uint64_t>(us));
          slo->observe_latency_us(static_cast<std::uint64_t>(us));
          if (telemetry::live_metrics_enabled()) {
            telemetry::publish_metrics("bench", local);
          }
        }
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - begin;
      best = std::min(best, elapsed.count());
    }
    if (exporter != nullptr) {
      exporter->stop(local);
      std::filesystem::remove(series_path);
    }
    return std::pair<double, std::uint64_t>(best, checksum);
  };

  const auto [bare_s, bare_sum] = timed_pass(false);
  const auto [telemetered_s, telemetered_sum] = timed_pass(true);
  EXPECT_EQ(bare_sum, telemetered_sum) << "telemetry altered predictions";
  EXPECT_LT(telemetered_s, bare_s * 1.05 + 0.05)
      << "telemetry overhead above budget: " << bare_s << "s -> "
      << telemetered_s << "s";
}

}  // namespace
}  // namespace scalparc
