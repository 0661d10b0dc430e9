// Continuous telemetry on top of the metrics registry.
//
// Everything PR 5 built exports once, at end of run — useless for the
// long-running serve path. This layer answers "what is the system doing
// right now" and "what was it doing just before it misbehaved":
//
//   LiveRegistry        rank threads publish copies of their own snapshot
//                       at natural boundaries (per induction level, per
//                       serve batch rate-limited); a sampler merges the
//                       latest copy per source. Counters are cumulative,
//                       so latest-wins per source is exact modulo lag.
//                       A recovered fit starts each retry with an empty
//                       registry and the next attempt number.
//   TelemetryExporter   background thread samples the live registry on an
//                       interval and appends one scalparc-timeseries-v2
//                       JSONL line per epoch: the merged registry in its
//                       one encoding, MetricsSnapshot::to_json. The last
//                       line is the run's end-of-run registry itself.
//   RollingQuantiles    ring of per-epoch log2 histograms merged over a
//                       window — p50/p95/p99 of the last W epochs, not of
//                       the whole run.
//   SloTracker          rolling p99 vs. a target, maintaining the slo.*
//                       family (breaches, burn seconds, time in violation).
//   flight recorder     bounded per-process ring of structured events
//                       (hot-swaps, stragglers, recovery transitions,
//                       checkpoint I/O errors, SLO breaches) stamped via
//                       record_event and dumped to scalparc-flight-v1
//                       JSONL for postmortems.
//
// Discipline matches the tracing layer: everything is off by default, the
// publish fast path is a single relaxed atomic load when disabled, and
// nothing here ever alters induction results (byte-identical trees).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mp/metrics.hpp"

namespace scalparc::telemetry {

// ---------------------------------------------------------------------------
// Live registry: latest-per-source snapshot copies, merged on demand.
// ---------------------------------------------------------------------------

// Cheap gate for publishers: a relaxed atomic load. False by default.
bool live_metrics_enabled();
void set_live_metrics_enabled(bool enabled);

// Stores a copy of `snapshot` under `source` (latest wins). Publishers call
// this with their own full cumulative snapshot at natural boundaries; cost
// when disabled is the enabled() check only.
void publish_metrics(std::string_view source, const mp::MetricsSnapshot& snapshot);

struct LiveMetrics {
  int attempt = 0;  // the attempt the sources belong to
  mp::MetricsSnapshot merged;
};

// Merge of the latest snapshot from every source (counters sum, gauges max,
// histograms fold) — the same algebra run_ranks applies at end of run —
// read together with the attempt number under one lock.
LiveMetrics merged_live_metrics();

// Starts the next attempt: drops every published snapshot and numbers what
// is sampled from here on with attempt + 1. A recovered fit calls it before
// each retry, whose ranks publish counters that restarted at zero. No-op
// while the live registry is disabled.
void reset_live_metrics();

// ---------------------------------------------------------------------------
// Rolling-window quantiles.
// ---------------------------------------------------------------------------

// Ring of per-epoch log2 histograms. observe() lands in the current epoch;
// advance_epoch() rotates (evicting the oldest epoch from the window);
// quantile() merges the whole ring first. Thread-safe.
class RollingQuantiles {
 public:
  explicit RollingQuantiles(std::size_t window_epochs);
  ~RollingQuantiles();
  RollingQuantiles(const RollingQuantiles&) = delete;
  RollingQuantiles& operator=(const RollingQuantiles&) = delete;

  void observe(std::uint64_t value);
  void advance_epoch();
  mp::Histogram windowed() const;
  double quantile(double q) const;
  std::size_t window_epochs() const;

 private:
  struct RollingImpl* impl_;
};

// ---------------------------------------------------------------------------
// SLO tracking for serving latency.
// ---------------------------------------------------------------------------

// Rolling-window p99 against a target, updated once per telemetry epoch.
// Maintains the slo.* family:
//   slo.target_p99_us        gauge    configured target
//   slo.p99_us               gauge    latest windowed p99
//   slo.breaches             counter  epochs whose windowed p99 > target
//   slo.burn_seconds         counter  cumulative seconds spent in violation
//   slo.time_in_violation_s  gauge    length of the current violation streak
// Thread-safe: scorers observe latencies concurrently with the exporter
// thread calling epoch_tick.
class SloTracker {
 public:
  SloTracker(double target_p99_us, std::size_t window_epochs = 8);
  ~SloTracker();
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  void observe_latency_us(std::uint64_t us);
  // Advances the rolling window by one epoch of length `epoch_seconds`,
  // updates the slo.* family, records a flight event on breach entry, and
  // returns true when the windowed p99 currently violates the target.
  bool epoch_tick(double epoch_seconds);
  double windowed_p99_us() const;
  // Copy of the slo.* family for merging into reports / epoch records.
  mp::MetricsSnapshot metrics() const;

 private:
  struct SloImpl* impl_;
};

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

struct FlightEvent {
  double t_s = 0.0;   // util::monotonic_seconds() at record time
  int rank = -1;      // util::thread_rank(); -1 outside rank threads
  std::string kind;   // "model_swap", "straggler", "recovery", ...
  std::string detail; // free-form, human-first
};

// Capacity 0 (the default) disables recording entirely; setting a capacity
// clears the ring. record_event is a relaxed atomic check when disabled and
// a short critical section when enabled — every call site is a rare event
// (swap, straggler, recovery transition, I/O error, SLO breach).
void set_flight_capacity(std::size_t capacity);
std::size_t flight_capacity();
void record_event(std::string_view kind, std::string_view detail);

// Oldest-to-newest copy of the ring, and how many events were evicted.
std::vector<FlightEvent> flight_events();
std::uint64_t flight_dropped();
void clear_flight();

// Writes the ring as scalparc-flight-v1 JSONL: a header object
// {"format","capacity","dropped","events"} followed by one event object per
// line. Returns false (and logs) on I/O failure. No-op when disabled.
bool dump_flight(const std::string& path);

// Registers `path` for dumping on error exits: installs SIGINT/SIGTERM
// handlers that dump then re-raise, and lets callers' catch blocks call
// dump_armed_flight() before exiting. Pass "" to disarm.
void arm_flight_dump(std::string path);
// Dumps to the armed path, if any. Safe to call when nothing is armed.
void dump_armed_flight();

// ---------------------------------------------------------------------------
// Telemetry exporter.
// ---------------------------------------------------------------------------

struct TelemetryOptions {
  // Truncated, then one scalparc-timeseries-v2 line per epoch. Empty = off.
  std::string timeseries_path;
  int interval_ms = 1000;
  // Called with each line's snapshot before it is written, the final line
  // included — serve injects the slo.* family here.
  std::function<void(mp::MetricsSnapshot&, double epoch_seconds)> epoch_hook;
};

// Background sampler. Construction opens the series (throwing
// std::runtime_error when it cannot), empties and enables the live registry
// with attempt numbering restarted at 0, and starts the thread.
class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryOptions options);
  ~TelemetryExporter();
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // Joins the sampling thread, then writes the final line from
  // `final_registry` (the run's end-of-run registry, which is what its
  // --metrics-out document holds) and empties and disables the live
  // registry. Later calls do nothing; the destructor stops sampling without
  // a final line.
  void stop(const mp::MetricsSnapshot& final_registry);
  int epochs() const;

 private:
  struct ExporterImpl* impl_;
};

}  // namespace scalparc::telemetry
