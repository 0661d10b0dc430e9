#include "mp/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace scalparc::mp {

namespace {

// Grace window for liveness decisions while a heartbeat lane is unprimed:
// with no inter-arrival history yet, any silence shorter than this is
// treated as alive.
constexpr double kUnprimedAliveWindowS = 1.0;

double now_busy_s(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void bad_health_field(const std::string& field,
                                   const std::string& why) {
  throw std::invalid_argument("HealthOptions: " + field + " " + why);
}

void require_positive(const std::string& field, double value) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    bad_health_field(field, "must be a positive finite number, got " +
                                std::to_string(value));
  }
}

}  // namespace

void HealthOptions::validate() const {
  require_positive("phi_threshold", phi_threshold);
  require_positive("timeout_floor_s", timeout_floor_s);
  require_positive("sustain_s", sustain_s);
  require_positive("min_blocked_s", min_blocked_s);
  require_positive("slow_ratio", slow_ratio);
  if (slow_ratio < 1.0) {
    bad_health_field("slow_ratio", "must be >= 1, got " +
                                       std::to_string(slow_ratio));
  }
  if (window < 2) {
    bad_health_field("window", "must be >= 2, got " + std::to_string(window));
  }
  if (min_samples < 2 || min_samples > window) {
    bad_health_field("min_samples", "must be in [2, window], got " +
                                        std::to_string(min_samples));
  }
}

PhiAccrualEstimator::PhiAccrualEstimator(int window, int min_samples)
    : window_(window < 2 ? 2 : window),
      min_samples_(min_samples < 2 ? 2 : min_samples),
      ring_(static_cast<std::size_t>(window_), 0.0) {
  if (min_samples_ > window_) min_samples_ = window_;
}

void PhiAccrualEstimator::record(double interval_s) {
  if (!(interval_s >= 0.0) || !std::isfinite(interval_s)) return;
  if (count_ == window_) {
    const double evicted = ring_[static_cast<std::size_t>(next_)];
    sum_ -= evicted;
    sumsq_ -= evicted * evicted;
  } else {
    ++count_;
  }
  ring_[static_cast<std::size_t>(next_)] = interval_s;
  sum_ += interval_s;
  sumsq_ += interval_s * interval_s;
  next_ = (next_ + 1) % window_;
}

double PhiAccrualEstimator::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double PhiAccrualEstimator::stddev() const {
  if (count_ < 2) return 0.0;
  const double m = mean();
  const double var =
      std::max(0.0, sumsq_ / static_cast<double>(count_) - m * m);
  // Floor: an ultra-regular stream must keep a nonzero spread, or phi
  // becomes a step function at the mean.
  return std::max({std::sqrt(var), 0.125 * m, 1e-4});
}

double PhiAccrualEstimator::phi(double silence_s) const {
  if (!primed()) return 0.0;
  const double z = (silence_s - mean()) / stddev();
  // P(interval > silence) under the fitted normal.
  const double p = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (!(p > 0.0) || p < 1e-39) return kMaxPhi;
  return std::min(kMaxPhi, -std::log10(p));
}

double PhiAccrualEstimator::timeout_for_phi(double phi_threshold) const {
  const double m = mean();
  const double sd = stddev();
  // phi is monotone in t; bisect on the standardized deviate. erfc(12) is
  // ~1e-64, past kMaxPhi, so [0, 12] brackets every reachable threshold.
  double lo = 0.0, hi = 12.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double p = 0.5 * std::erfc(mid);
    const double mid_phi = (!(p > 0.0) || p < 1e-39)
                               ? kMaxPhi
                               : -std::log10(p);
    if (mid_phi < phi_threshold) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return m + sd * std::sqrt(2.0) * hi;
}

HealthRegistry::HealthRegistry(int nranks, const HealthOptions& options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  options_.validate();
  lanes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    lanes_.push_back(std::make_unique<RankLane>(options_));
  }
}

void HealthRegistry::heartbeat(int rank) {
  const auto now = std::chrono::steady_clock::now();
  const std::int64_t now_ns = now.time_since_epoch().count();
  RankLane& l = lane(rank);
  const std::int64_t prev =
      l.last_beat_ns.exchange(now_ns, std::memory_order_relaxed);
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
  if (prev < 0) return;
  const double interval_s =
      std::chrono::duration<double>(
          std::chrono::steady_clock::duration(now_ns - prev))
          .count();
  std::lock_guard<std::mutex> lock(l.mu);
  l.beats.record(interval_s);
}

void HealthRegistry::heartbeat_cheap(int rank) {
  lane(rank).last_beat_ns.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
}

void HealthRegistry::advance_watermark(int rank, int level) {
  RankLane& l = lane(rank);
  std::lock_guard<std::mutex> lock(l.mu);
  ++l.watermark;
  l.level = level;
  watermark_advances_.fetch_add(1, std::memory_order_relaxed);
}

void HealthRegistry::set_blocked(RankLane& l, bool blocked,
                                 std::chrono::steady_clock::time_point now) {
  if (blocked && !l.blocked) l.blocked_since = now;
  if (!blocked && l.blocked) {
    l.blocked_accum_s += now_busy_s(l.blocked_since, now);
  }
  l.blocked = blocked;
}

void HealthRegistry::on_blocked(int rank) {
  const auto now = std::chrono::steady_clock::now();
  RankLane& l = lane(rank);
  std::lock_guard<std::mutex> lock(l.mu);
  if (!l.in_io) set_blocked(l, true, now);  // else already not busy
}

void HealthRegistry::on_unblocked(int rank) {
  const auto now = std::chrono::steady_clock::now();
  RankLane& l = lane(rank);
  std::lock_guard<std::mutex> lock(l.mu);
  if (!l.in_io) set_blocked(l, false, now);
}

void HealthRegistry::on_finished(int rank) {
  const auto now = std::chrono::steady_clock::now();
  RankLane& l = lane(rank);
  std::lock_guard<std::mutex> lock(l.mu);
  set_blocked(l, false, now);
  l.finished = true;
}

void HealthRegistry::set_in_io(int rank, bool in_io) {
  const auto now = std::chrono::steady_clock::now();
  RankLane& l = lane(rank);
  std::lock_guard<std::mutex> lock(l.mu);
  l.in_io = in_io;
  // Checkpoint I/O is no straggler evidence: a rebalance cannot move it.
  set_blocked(l, in_io, now);
}

double HealthRegistry::suspicion(int rank) const {
  const RankLane& l = lane(rank);
  const std::int64_t last = l.last_beat_ns.load(std::memory_order_relaxed);
  if (last < 0) return 0.0;
  const std::int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const double silence_s =
      std::chrono::duration<double>(
          std::chrono::steady_clock::duration(now_ns - last))
          .count();
  std::lock_guard<std::mutex> lock(l.mu);
  return l.beats.phi(silence_s);
}

bool HealthRegistry::alive(int rank, double* phi_out) const {
  const RankLane& l = lane(rank);
  const std::int64_t last = l.last_beat_ns.load(std::memory_order_relaxed);
  const std::int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const double silence_s =
      last < 0 ? 0.0
               : std::chrono::duration<double>(
                     std::chrono::steady_clock::duration(now_ns - last))
                     .count();
  std::lock_guard<std::mutex> lock(l.mu);
  if (!l.beats.primed()) {
    if (phi_out != nullptr) *phi_out = 0.0;
    return l.in_io || silence_s < kUnprimedAliveWindowS;
  }
  const double phi = l.beats.phi(silence_s);
  if (phi_out != nullptr) *phi_out = phi;
  return l.in_io || phi < options_.phi_threshold;
}

HealthRegistry::Snapshot HealthRegistry::snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  Snapshot snap;
  snap.elapsed_s = now_busy_s(start_, now);
  snap.watermarks.reserve(lanes_.size());
  snap.busy_seconds.reserve(lanes_.size());
  snap.finished.reserve(lanes_.size());
  for (const std::unique_ptr<RankLane>& l : lanes_) {
    std::lock_guard<std::mutex> lock(l->mu);
    snap.watermarks.push_back(l->watermark);
    double blocked = l->blocked_accum_s;
    if (l->blocked) blocked += now_busy_s(l->blocked_since, now);
    snap.busy_seconds.push_back(
        std::max(0.0, now_busy_s(start_, now) - blocked));
    snap.finished.push_back(l->finished ? 1 : 0);
  }
  return snap;
}

void HealthRegistry::note_straggler(int rank, double slowdown) {
  std::lock_guard<std::mutex> lock(straggler_mu_);
  if (straggler_rank_ < 0) {
    straggler_rank_ = rank;
    straggler_slowdown_ = slowdown;
  }
}

int HealthRegistry::straggler_rank() const {
  std::lock_guard<std::mutex> lock(straggler_mu_);
  return straggler_rank_;
}

double HealthRegistry::straggler_slowdown() const {
  std::lock_guard<std::mutex> lock(straggler_mu_);
  return straggler_slowdown_;
}

double parse_positive_health_value(const std::string& flag,
                                   const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    std::ostringstream msg;
    msg << flag << ": expected a positive finite number, got '" << text << "'";
    throw std::invalid_argument(msg.str());
  }
  return v;
}

}  // namespace scalparc::mp
