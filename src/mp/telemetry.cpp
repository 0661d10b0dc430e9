#include "mp/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace scalparc::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Live registry state.
// ---------------------------------------------------------------------------

std::atomic<bool> g_live_enabled{false};
std::mutex g_live_mutex;
struct LiveState {
  int attempt = 0;
  std::map<std::string, mp::MetricsSnapshot, std::less<>> sources;
};
LiveState& live_state() {
  static auto* state = new LiveState();
  return *state;
}

// Empties the live registry, numbers the next attempt 0 and turns
// publishing on or off: an exporter's first and last act.
void restart_live_registry(bool enabled) {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  live_state().sources.clear();
  live_state().attempt = 0;
  g_live_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Flight-recorder state.
// ---------------------------------------------------------------------------

std::atomic<bool> g_flight_enabled{false};
std::mutex g_flight_mutex;
struct FlightState {
  std::size_t capacity = 0;
  std::deque<FlightEvent> ring;
  std::uint64_t dropped = 0;
  std::string armed_path;
};
FlightState& flight_state() {
  static auto* state = new FlightState();
  return *state;
}

extern "C" void flight_signal_handler(int sig) {
  // Best-effort postmortem: the dump allocates and locks, which is not
  // async-signal-safe, but on SIGINT/SIGTERM the alternative is losing the
  // ring entirely. Restore the default disposition first so a second
  // signal (or the re-raise below) terminates unconditionally.
  std::signal(sig, SIG_DFL);
  dump_armed_flight();
  std::raise(sig);
}

}  // namespace

// ---------------------------------------------------------------------------
// Live registry.
// ---------------------------------------------------------------------------

bool live_metrics_enabled() {
  return g_live_enabled.load(std::memory_order_relaxed);
}

void set_live_metrics_enabled(bool enabled) {
  g_live_enabled.store(enabled, std::memory_order_relaxed);
}

void publish_metrics(std::string_view source,
                     const mp::MetricsSnapshot& snapshot) {
  if (!live_metrics_enabled()) return;
  std::lock_guard<std::mutex> lock(g_live_mutex);
  auto& sources = live_state().sources;
  auto it = sources.find(source);
  if (it == sources.end()) {
    sources.emplace(std::string(source), snapshot);
  } else {
    it->second = snapshot;
  }
}

LiveMetrics merged_live_metrics() {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  LiveMetrics live;
  live.attempt = live_state().attempt;
  for (const auto& [source, snapshot] : live_state().sources) {
    live.merged.merge(snapshot);
  }
  return live;
}

void reset_live_metrics() {
  if (!live_metrics_enabled()) return;
  std::lock_guard<std::mutex> lock(g_live_mutex);
  live_state().sources.clear();
  ++live_state().attempt;
}

// ---------------------------------------------------------------------------
// RollingQuantiles.
// ---------------------------------------------------------------------------

struct RollingImpl {
  mutable std::mutex mutex;
  std::vector<mp::Histogram> ring;  // ring[head] is the current epoch
  std::size_t head = 0;
};

RollingQuantiles::RollingQuantiles(std::size_t window_epochs)
    : impl_(new RollingImpl()) {
  impl_->ring.resize(window_epochs == 0 ? 1 : window_epochs);
}

RollingQuantiles::~RollingQuantiles() { delete impl_; }

std::size_t RollingQuantiles::window_epochs() const {
  return impl_->ring.size();
}

void RollingQuantiles::observe(std::uint64_t value) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->ring[impl_->head].observe(value);
}

void RollingQuantiles::advance_epoch() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->head = (impl_->head + 1) % impl_->ring.size();
  impl_->ring[impl_->head] = mp::Histogram{};  // evict the oldest epoch
}

mp::Histogram RollingQuantiles::windowed() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  mp::Histogram merged;
  for (const mp::Histogram& epoch : impl_->ring) merged += epoch;
  return merged;
}

double RollingQuantiles::quantile(double q) const {
  return mp::histogram_quantile(windowed(), q);
}

// ---------------------------------------------------------------------------
// SloTracker.
// ---------------------------------------------------------------------------

struct SloImpl {
  SloImpl(double target, std::size_t window_epochs)
      : target_p99_us(target), window(window_epochs) {}

  double target_p99_us;
  RollingQuantiles window;

  mutable std::mutex mutex;
  double latest_p99_us = 0.0;
  std::uint64_t breaches = 0;
  double burn_seconds = 0.0;
  double violation_streak_s = 0.0;
  bool in_violation = false;
};

SloTracker::SloTracker(double target_p99_us, std::size_t window_epochs)
    : impl_(new SloImpl(target_p99_us, window_epochs)) {}

SloTracker::~SloTracker() { delete impl_; }

void SloTracker::observe_latency_us(std::uint64_t us) {
  impl_->window.observe(us);
}

bool SloTracker::epoch_tick(double epoch_seconds) {
  const double p99 = impl_->window.quantile(0.99);
  impl_->window.advance_epoch();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->latest_p99_us = p99;
  const bool violating = p99 > impl_->target_p99_us;
  if (violating) {
    ++impl_->breaches;
    impl_->burn_seconds += epoch_seconds;
    impl_->violation_streak_s += epoch_seconds;
    if (!impl_->in_violation) {
      std::ostringstream detail;
      detail << "windowed p99 " << p99 << "us > target "
             << impl_->target_p99_us << "us";
      record_event("slo_breach", detail.str());
    }
  } else {
    impl_->violation_streak_s = 0.0;
  }
  impl_->in_violation = violating;
  return violating;
}

double SloTracker::windowed_p99_us() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->latest_p99_us;
}

mp::MetricsSnapshot SloTracker::metrics() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  mp::MetricsSnapshot out;
  out.gauge_max("slo.target_p99_us", impl_->target_p99_us);
  out.gauge_max("slo.p99_us", impl_->latest_p99_us);
  out.add("slo.breaches", static_cast<double>(impl_->breaches));
  out.add("slo.burn_seconds", impl_->burn_seconds);
  out.gauge_max("slo.time_in_violation_s", impl_->violation_streak_s);
  return out;
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

void set_flight_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(g_flight_mutex);
  FlightState& state = flight_state();
  state.capacity = capacity;
  state.ring.clear();
  state.dropped = 0;
  g_flight_enabled.store(capacity > 0, std::memory_order_relaxed);
}

std::size_t flight_capacity() {
  std::lock_guard<std::mutex> lock(g_flight_mutex);
  return flight_state().capacity;
}

void record_event(std::string_view kind, std::string_view detail) {
  if (!g_flight_enabled.load(std::memory_order_relaxed)) return;
  FlightEvent event;
  event.t_s = util::monotonic_seconds();
  event.rank = util::thread_rank();
  event.kind = std::string(kind);
  event.detail = std::string(detail);
  std::lock_guard<std::mutex> lock(g_flight_mutex);
  FlightState& state = flight_state();
  if (state.capacity == 0) return;
  if (state.ring.size() >= state.capacity) {
    state.ring.pop_front();
    ++state.dropped;
  }
  state.ring.push_back(std::move(event));
}

std::vector<FlightEvent> flight_events() {
  std::lock_guard<std::mutex> lock(g_flight_mutex);
  const FlightState& state = flight_state();
  return std::vector<FlightEvent>(state.ring.begin(), state.ring.end());
}

std::uint64_t flight_dropped() {
  std::lock_guard<std::mutex> lock(g_flight_mutex);
  return flight_state().dropped;
}

void clear_flight() {
  std::lock_guard<std::mutex> lock(g_flight_mutex);
  FlightState& state = flight_state();
  state.ring.clear();
  state.dropped = 0;
}

bool dump_flight(const std::string& path) {
  std::size_t capacity = 0;
  std::uint64_t dropped = 0;
  std::vector<FlightEvent> events;
  {
    std::lock_guard<std::mutex> lock(g_flight_mutex);
    const FlightState& state = flight_state();
    if (state.capacity == 0) return false;
    capacity = state.capacity;
    dropped = state.dropped;
    events.assign(state.ring.begin(), state.ring.end());
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    SCALPARC_LOG_ERROR << "flight recorder: cannot open '" << path
                       << "' for writing";
    return false;
  }
  util::Json header = util::Json::object();
  header["format"] = "scalparc-flight-v1";
  header["capacity"] = static_cast<std::uint64_t>(capacity);
  header["dropped"] = dropped;
  header["events"] = static_cast<std::uint64_t>(events.size());
  out << header.dump(0) << "\n";
  for (const FlightEvent& event : events) {
    util::Json line = util::Json::object();
    line["t_s"] = event.t_s;
    line["rank"] = event.rank;
    line["kind"] = event.kind;
    line["detail"] = event.detail;
    out << line.dump(0) << "\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

void arm_flight_dump(std::string path) {
  const bool armed = !path.empty();
  {
    std::lock_guard<std::mutex> lock(g_flight_mutex);
    flight_state().armed_path = std::move(path);
  }
  if (armed) {
    std::signal(SIGINT, flight_signal_handler);
    std::signal(SIGTERM, flight_signal_handler);
  }
}

void dump_armed_flight() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_flight_mutex);
    path = flight_state().armed_path;
  }
  if (!path.empty()) dump_flight(path);
}

// ---------------------------------------------------------------------------
// TelemetryExporter.
// ---------------------------------------------------------------------------

struct ExporterImpl {
  TelemetryOptions options;
  std::ofstream timeseries;
  std::thread worker;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  std::atomic<int> epochs{0};
  std::chrono::steady_clock::time_point last_epoch_at;
  double t0_s = 0.0;
};

namespace {

// Writes one series line: `metrics`, after the epoch hook, as a sample of
// `attempt`.
void export_epoch(ExporterImpl& impl, int attempt, mp::MetricsSnapshot metrics) {
  const auto now = std::chrono::steady_clock::now();
  const double epoch_seconds =
      std::chrono::duration<double>(now - impl.last_epoch_at).count();
  impl.last_epoch_at = now;
  if (impl.options.epoch_hook) impl.options.epoch_hook(metrics, epoch_seconds);
  const int epoch = impl.epochs.fetch_add(1);
  if (!impl.timeseries.is_open()) return;
  util::Json line = util::Json::object();
  line["format"] = "scalparc-timeseries-v2";
  line["epoch"] = epoch;
  line["attempt"] = attempt;
  line["t_s"] = util::monotonic_seconds() - impl.t0_s;
  line["interval_ms"] = impl.options.interval_ms;
  line["metrics"] = metrics.to_json();
  impl.timeseries << line.dump(0) << "\n";
  impl.timeseries.flush();
}

// Joins the sampling thread; false when it was already stopped.
bool halt(ExporterImpl& impl) {
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    if (impl.stopping) return false;
    impl.stopping = true;
  }
  impl.cv.notify_all();
  if (impl.worker.joinable()) impl.worker.join();
  return true;
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryOptions options) {
  std::ofstream timeseries;
  if (!options.timeseries_path.empty()) {
    timeseries.open(options.timeseries_path, std::ios::trunc);
    if (!timeseries) {
      throw std::runtime_error("telemetry: cannot open '" +
                               options.timeseries_path + "' for writing");
    }
  }
  impl_ = new ExporterImpl();
  impl_->options = std::move(options);
  impl_->timeseries = std::move(timeseries);
  if (impl_->options.interval_ms < 1) impl_->options.interval_ms = 1;
  impl_->t0_s = util::monotonic_seconds();
  impl_->last_epoch_at = std::chrono::steady_clock::now();
  restart_live_registry(true);
  impl_->worker = std::thread([impl = impl_] {
    std::unique_lock<std::mutex> lock(impl->mutex);
    for (;;) {
      impl->cv.wait_for(
          lock, std::chrono::milliseconds(impl->options.interval_ms),
          [impl] { return impl->stopping; });
      if (impl->stopping) return;
      LiveMetrics live = merged_live_metrics();
      export_epoch(*impl, live.attempt, std::move(live.merged));
    }
  });
}

void TelemetryExporter::stop(const mp::MetricsSnapshot& final_registry) {
  if (!halt(*impl_)) return;
  export_epoch(*impl_, merged_live_metrics().attempt, final_registry);
  restart_live_registry(false);
}

TelemetryExporter::~TelemetryExporter() {
  if (halt(*impl_)) restart_live_registry(false);
  delete impl_;
}

int TelemetryExporter::epochs() const { return impl_->epochs.load(); }

}  // namespace scalparc::telemetry
