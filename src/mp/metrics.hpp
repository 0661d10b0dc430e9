// Unified typed metrics registry.
//
// Before this layer, run telemetry was fragmented across ad-hoc structs
// (core::LevelStats, mp::CommStats, mp::ChannelStats, ooc::IoStats) that
// each needed bespoke aggregation and printing. A MetricsSnapshot is the
// common currency: a name -> Metric map with three kinds —
//
//   counter    merge by sum       (bytes sent, retransmits, enquiries)
//   gauge      merge by max       (peak memory, phase seconds)
//   histogram  merge bucket-wise  (message sizes, batch latencies; fixed
//                                  log2 buckets so merging never re-bins)
//
// All three merges are associative and commutative, so per-rank snapshots
// can be folded in any order (tests assert this). Naming convention is
// dotted lowercase families: comm.*, transport.*, runtime.*, induction.*,
// checkpoint.*, nodetable.*, io.*, memory.* — see
// docs/observability.md for the full catalog.
//
// Instrumented code reaches its rank's snapshot through the thread-local
// sink bound by run_ranks (metrics_sink(); nullptr outside a rank thread),
// and the absorb_* helpers translate the legacy structs into families.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "mp/stats.hpp"

namespace scalparc::util {
class Json;
}

namespace scalparc::mp {

struct ChannelStats;  // mp/mailbox.hpp

// Bucket b holds values v with 2^(b-1) <= v < 2^b (bucket 0 holds v == 0);
// the last bucket absorbs everything >= 2^62.
inline constexpr std::size_t kHistogramBuckets = 64;

struct Histogram {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  static std::size_t bucket_of(std::uint64_t value);
  void observe(std::uint64_t value);
  Histogram& operator+=(const Histogram& other);
};

// Quantile estimate from the log2 buckets: walks the cumulative counts to
// the bucket holding the q-th observation and interpolates linearly inside
// its [2^(b-1), 2^b) value range, clamped to the observed max. Returns 0
// for an empty histogram. q is clamped to [0, 1].
double histogram_quantile(const Histogram& histogram, double q);

enum class MetricKind { kCounter, kGauge, kHistogram };

std::string_view metric_kind_name(MetricKind kind);

struct Metric {
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;   // counter: running sum; gauge: running max
  Histogram histogram;  // kHistogram only
};

class MetricsSnapshot {
 public:
  // std::map keeps iteration (and JSON dumps) deterministically sorted.
  using Map = std::map<std::string, Metric, std::less<>>;

  void add(std::string_view name, double delta = 1.0);
  void gauge_max(std::string_view name, double value);
  void observe(std::string_view name, std::uint64_t value);
  void merge_histogram(std::string_view name, const Histogram& histogram);

  bool empty() const { return metrics_.empty(); }
  std::size_t size() const { return metrics_.size(); }
  const Map& metrics() const { return metrics_; }
  const Metric* find(std::string_view name) const;
  // Counter/gauge value by name; `fallback` when absent.
  double value(std::string_view name, double fallback = 0.0) const;

  // Folds `other` in. Throws std::logic_error when the same name carries
  // different kinds (a naming bug, never a data race).
  void merge(const MetricsSnapshot& other);

  util::Json to_json() const;
  static MetricsSnapshot from_json(const util::Json& doc);

 private:
  Metric& slot(std::string_view name, MetricKind kind);

  Map metrics_;
};

// Thread-local snapshot the current rank's instrumentation writes into;
// nullptr outside run_ranks (instrumented code then skips recording).
MetricsSnapshot* metrics_sink();

class MetricsSinkGuard {
 public:
  explicit MetricsSinkGuard(MetricsSnapshot* sink);
  ~MetricsSinkGuard();
  MetricsSinkGuard(const MetricsSinkGuard&) = delete;
  MetricsSinkGuard& operator=(const MetricsSinkGuard&) = delete;

 private:
  MetricsSnapshot* saved_;
};

// Legacy-struct absorbers (comm.* / transport.* families).
void absorb_comm_stats(MetricsSnapshot& snapshot, const CommStats& stats);
void absorb_channel_stats(MetricsSnapshot& snapshot, const ChannelStats& stats);
// io.* family; takes plain values so the mp layer needs no ooc dependency.
void absorb_io_stats(MetricsSnapshot& snapshot, std::uint64_t bytes_written,
                     std::uint64_t bytes_read, std::uint64_t files_created,
                     std::uint64_t extra_passes);

}  // namespace scalparc::mp
