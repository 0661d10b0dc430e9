#include "mp/metrics.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "mp/mailbox.hpp"
#include "util/json.hpp"

namespace scalparc::mp {

namespace {

thread_local MetricsSnapshot* t_sink = nullptr;

}  // namespace

std::size_t Histogram::bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(value));
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

void Histogram::observe(std::uint64_t value) {
  ++buckets[bucket_of(value)];
  ++count;
  sum += value;
  if (value > max) max = value;
}

Histogram& Histogram::operator+=(const Histogram& other) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
  return *this;
}

double histogram_quantile(const Histogram& histogram, double q) {
  if (histogram.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, ceil so p100 == last).
  const double target = q * static_cast<double>(histogram.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (histogram.buckets[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += histogram.buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    if (b == 0) return 0.0;  // bucket 0 holds only zeros
    const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
    const double hi = std::ldexp(1.0, static_cast<int>(b));
    const double within =
        (target - static_cast<double>(before)) /
        static_cast<double>(histogram.buckets[b]);
    const double estimate = lo + (hi - lo) * within;
    const double observed_max = static_cast<double>(histogram.max);
    return estimate < observed_max ? estimate : observed_max;
  }
  return static_cast<double>(histogram.max);
}

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Metric& MetricsSnapshot::slot(std::string_view name, MetricKind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Metric{kind, 0.0, {}}).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricsSnapshot: metric '" + std::string(name) +
                           "' is a " +
                           std::string(metric_kind_name(it->second.kind)) +
                           ", not a " + std::string(metric_kind_name(kind)));
  }
  return it->second;
}

void MetricsSnapshot::add(std::string_view name, double delta) {
  slot(name, MetricKind::kCounter).value += delta;
}

void MetricsSnapshot::gauge_max(std::string_view name, double value) {
  Metric& metric = slot(name, MetricKind::kGauge);
  if (value > metric.value) metric.value = value;
}

void MetricsSnapshot::observe(std::string_view name, std::uint64_t value) {
  slot(name, MetricKind::kHistogram).histogram.observe(value);
}

void MetricsSnapshot::merge_histogram(std::string_view name,
                                      const Histogram& histogram) {
  slot(name, MetricKind::kHistogram).histogram += histogram;
}

const Metric* MetricsSnapshot::find(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

double MetricsSnapshot::value(std::string_view name, double fallback) const {
  const Metric* metric = find(name);
  return metric == nullptr ? fallback : metric->value;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, metric] : other.metrics_) {
    Metric& mine = slot(name, metric.kind);
    switch (metric.kind) {
      case MetricKind::kCounter:
        mine.value += metric.value;
        break;
      case MetricKind::kGauge:
        if (metric.value > mine.value) mine.value = metric.value;
        break;
      case MetricKind::kHistogram:
        mine.histogram += metric.histogram;
        break;
    }
  }
}

util::Json MetricsSnapshot::to_json() const {
  util::Json doc = util::Json::object();
  for (const auto& [name, metric] : metrics_) {
    util::Json entry = util::Json::object();
    entry["kind"] = std::string(metric_kind_name(metric.kind));
    if (metric.kind == MetricKind::kHistogram) {
      const Histogram& h = metric.histogram;
      entry["count"] = h.count;
      entry["sum"] = h.sum;
      entry["max"] = h.max;
      // Derived summaries so readers stop hand-interpolating log2 buckets.
      // from_json ignores unknown keys, and they are deterministic functions
      // of the buckets, so round-trips stay byte-identical.
      entry["p50"] = histogram_quantile(h, 0.50);
      entry["p95"] = histogram_quantile(h, 0.95);
      entry["p99"] = histogram_quantile(h, 0.99);
      // Sparse encoding: only non-empty buckets, as [index, count] pairs.
      util::Json::Array buckets;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (h.buckets[i] == 0) continue;
        buckets.emplace_back(util::Json::Array{
            static_cast<std::uint64_t>(i), h.buckets[i]});
      }
      entry["buckets"] = std::move(buckets);
    } else {
      entry["value"] = metric.value;
    }
    doc[name] = std::move(entry);
  }
  return doc;
}

MetricsSnapshot MetricsSnapshot::from_json(const util::Json& doc) {
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : doc.as_object()) {
    const std::string& kind = entry.at("kind").as_string();
    if (kind == "counter") {
      snapshot.add(name, entry.at("value").as_double());
    } else if (kind == "gauge") {
      snapshot.gauge_max(name, entry.at("value").as_double());
    } else if (kind == "histogram") {
      Histogram h;
      h.count = static_cast<std::uint64_t>(entry.at("count").as_int());
      h.sum = static_cast<std::uint64_t>(entry.at("sum").as_int());
      h.max = static_cast<std::uint64_t>(entry.at("max").as_int());
      for (const util::Json& pair : entry.at("buckets").as_array()) {
        const auto index = static_cast<std::size_t>(pair.at(0).as_int());
        if (index >= kHistogramBuckets) {
          throw std::invalid_argument(
              "MetricsSnapshot: histogram bucket index out of range");
        }
        h.buckets[index] = static_cast<std::uint64_t>(pair.at(1).as_int());
      }
      snapshot.merge_histogram(name, h);
    } else {
      throw std::invalid_argument("MetricsSnapshot: unknown metric kind '" +
                                  kind + "'");
    }
  }
  return snapshot;
}

MetricsSnapshot* metrics_sink() { return t_sink; }

MetricsSinkGuard::MetricsSinkGuard(MetricsSnapshot* sink) : saved_(t_sink) {
  t_sink = sink;
}

MetricsSinkGuard::~MetricsSinkGuard() { t_sink = saved_; }

void absorb_comm_stats(MetricsSnapshot& snapshot, const CommStats& stats) {
  snapshot.add("comm.bytes_sent", static_cast<double>(stats.bytes_sent));
  snapshot.add("comm.bytes_received",
               static_cast<double>(stats.bytes_received));
  snapshot.add("comm.messages_sent", static_cast<double>(stats.messages_sent));
  snapshot.add("comm.messages_received",
               static_cast<double>(stats.messages_received));
  snapshot.add("comm.work_units", stats.work_units);
  for (int op = 0; op < kNumCommOps; ++op) {
    const std::string_view name = comm_op_name(static_cast<CommOp>(op));
    if (stats.calls_by_op[op] != 0) {
      snapshot.add("comm.calls." + std::string(name),
                   static_cast<double>(stats.calls_by_op[op]));
    }
    if (stats.bytes_sent_by_op[op] != 0) {
      snapshot.add("comm.bytes_sent." + std::string(name),
                   static_cast<double>(stats.bytes_sent_by_op[op]));
    }
  }
}

void absorb_channel_stats(MetricsSnapshot& snapshot,
                          const ChannelStats& stats) {
  snapshot.add("transport.retransmits",
               static_cast<double>(stats.retransmits));
  snapshot.add("transport.nacks", static_cast<double>(stats.nacks));
  snapshot.add("transport.duplicates",
               static_cast<double>(stats.duplicates));
}

void absorb_io_stats(MetricsSnapshot& snapshot, std::uint64_t bytes_written,
                     std::uint64_t bytes_read, std::uint64_t files_created,
                     std::uint64_t extra_passes) {
  snapshot.add("io.bytes_written", static_cast<double>(bytes_written));
  snapshot.add("io.bytes_read", static_cast<double>(bytes_read));
  snapshot.add("io.files_created", static_cast<double>(files_created));
  snapshot.add("io.extra_passes", static_cast<double>(extra_passes));
}

}  // namespace scalparc::mp
