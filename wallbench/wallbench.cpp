// Wall-clock train+serve benchmark: one workload per invocation.
//
// Runs the library calls a user makes — ingest the training CSV, fit, save /
// load / compile the model, score held-out records on worker ranks — and
// times each call from outside the library. Nothing here adds a span or a
// counter to the library: with --trace 1 the benchmark arms the existing
// util::TraceCollector phase spans on every other fit and reads the merged
// RunResult::metrics registry to attribute the fit's wall time to layers.
//
//   wallbench --workload exact-deep|hist-deep|recover --seed N --seconds S
//             --trace 0|1 --work DIR
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; a human-readable summary goes to stderr. Exit code 0 only when
// every fit, check and scored batch was correct. run.py builds this binary,
// runs it and validates its output; README.md explains the workloads and
// the layer -> metric map.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/compiled_tree.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "mp/collectives.hpp"
#include "mp/fault.hpp"
#include "mp/metrics.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/memory_meter.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace {

using namespace scalparc;
namespace fs = std::filesystem;

// One process, p = 4 rank threads: the size of the 4-vCPU machine the
// workloads were sized on.
constexpr int kRanks = 4;
constexpr std::size_t kTrainRecords = 1'000'000;
constexpr std::size_t kHoldoutRecords = 200'000;
constexpr std::size_t kBatch = 1024;
// A four-thread spin before anything is timed: the first 4-thread fit after
// an idle spell runs ~1.6x slower than later ones, and a spin of this length
// removes most of that (a single-thread memory touch does not).
constexpr double kWarmupSeconds = 2.0;
// Length of one closed-loop scoring window. Every round sets the model up
// twice and scores kWindowsPerSetup windows after each setup: many short
// windows, so that the median over them is not set by a few spells of a busy
// host.
constexpr double kScoreWindowSeconds = 0.25;
constexpr int kWindowsPerSetup = 4;
// Length of the single-thread kernel measurement of the traced run.
constexpr double kKernelSeconds = 0.125;
// Rounds measured at least, whatever --seconds says, so that every reported
// figure is a median of at least three samples (trace mode: two traced and
// two untraced fits). Past these, rounds stop once the next one would end
// after --seconds.
constexpr int kMinRounds = 3;
constexpr int kMinTraceRounds = 4;

struct Workload {
  const char* name;
  data::LabelFunction function;
  double label_noise;
  core::SplitMode mode;
  int max_depth;
  // Checkpoint every level, kill rank 2 at level 2, recover by shrinking.
  bool recover;
  // Processor count of the reference fit whose tree every timed fit must
  // match byte for byte (recover: the fault-free fit at kRanks).
  int reference_ranks;
};

// `recover` labels with F4, not F2: noise-free F2 puts a balanced XOR of
// age band and salary window into one node, where a spurious 20-way split on
// an irrelevant categorical attribute often wins, so the tree is 30 nodes for
// some seeds and 5-8 k nodes for others. Noise-free F4 gives 72-102 nodes and
// 7 levels on every seed tried.
constexpr Workload kWorkloads[] = {
    {"exact-deep", data::LabelFunction::kF2, 0.05, core::SplitMode::kExact, 16,
     false, 3},
    {"hist-deep", data::LabelFunction::kF2, 0.05, core::SplitMode::kHistogram,
     10, false, 2},
    {"recover", data::LabelFunction::kF4, 0.0, core::SplitMode::kExact, 64, true,
     kRanks},
};

// Level 2, not later: by level 3 some seeds have already retired a third of
// the records into pure leaves, so the completed 3-rank attempt's memory
// peak ranged 28-41 MB across seeds; at level 2 nearly every record is still
// active and the peak is ~52.9 MB on 7 of 8 seeds tried.
constexpr const char* kKillPlan = "kill:r=2,level=2";

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

std::string tree_text(const core::DecisionTree& tree) {
  std::ostringstream out;
  core::save_tree(tree, out);
  return out.str();
}

// Steal and total ticks of the aggregate "cpu" line of /proc/stat; zeros
// when the file is unavailable (the share then reads 0).
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(in >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

void spin_warmup() {
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> sink{0};
  for (int t = 0; t < kRanks; ++t) {
    threads.emplace_back([&sink] {
      util::Stopwatch clock;
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      while (clock.elapsed_seconds() < kWarmupSeconds) {
        for (int i = 0; i < 4096; ++i) x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// Counts operations (fits, checks, scored batches) and the failed ones.
class Tally {
 public:
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "wallbench: FAILED: " << what << '\n';
    }
    return ok;
  }
  void add(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::cerr << "wallbench: FAILED: " << failed << " of " << attempted << ' '
                << what << '\n';
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Fit {
  core::DecisionTree tree;
  mp::RunResult run;
  double wall_s = 0.0;
  // util::monotonic_seconds() stamps around the call: the clock trace spans
  // are stamped with.
  double begin_s = 0.0;
  double end_s = 0.0;
  util::TraceDump trace;  // empty unless the fit was traced
  // recover only.
  core::RecoveryOutcome outcome = core::RecoveryOutcome::kCompleted;
  std::vector<core::RecoveryEvent> events;
  double heal_s = 0.0;
};

core::InductionControls controls_for(const Workload& workload) {
  core::InductionControls controls;
  controls.options.max_depth = workload.max_depth;
  controls.options.split_mode = workload.mode;
  return controls;
}

// The timed fit: ScalParC::fit, or fit_with_recovery on `recover` with a
// fresh checkpoint directory that is removed again afterwards.
Fit timed_fit(const Workload& workload, const data::Dataset& training,
              const fs::path& checkpoint_dir, bool traced) {
  core::InductionControls controls = controls_for(workload);
  mp::FaultPlan plan;
  mp::RunOptions options;
  core::RecoveryControls recovery;
  if (workload.recover) {
    fs::remove_all(checkpoint_dir);
    controls.checkpoint.directory = checkpoint_dir.string();
    plan.parse(kKillPlan);
    options.fault_plan = &plan;
    recovery.policy = core::RecoveryPolicy::kShrink;
  }
  if (traced && !util::TraceCollector::instance().start()) {
    throw std::runtime_error("tracing is compiled out (SCALPARC_TRACE=OFF)");
  }
  Fit fit;
  try {
    fit.begin_s = util::monotonic_seconds();
    if (workload.recover) {
      core::RecoveryReport report = core::ScalParC::fit_with_recovery(
          training, kRanks, controls, recovery, mp::CostModel::zero(), options);
      fit.end_s = util::monotonic_seconds();
      fit.tree = std::move(report.fit.tree);
      fit.run = std::move(report.fit.run);
      fit.outcome = report.outcome;
      fit.events = std::move(report.events);
      fit.heal_s = report.heal_seconds;
    } else {
      core::FitReport report = core::ScalParC::fit(training, kRanks, controls);
      fit.end_s = util::monotonic_seconds();
      fit.tree = std::move(report.tree);
      fit.run = std::move(report.run);
    }
  } catch (...) {
    if (traced) util::TraceCollector::instance().stop();
    throw;
  }
  fit.wall_s = fit.end_s - fit.begin_s;
  if (traced) fit.trace = util::TraceCollector::instance().stop();
  if (workload.recover) fs::remove_all(checkpoint_dir);
  return fit;
}

struct ScoreWindow {
  double seconds = 0.0;
  std::uint64_t records = 0;
  std::uint64_t batches = 0;
  std::uint64_t bad_batches = 0;
  // Per-rank batch-latency quantiles: the median averaged over the ranks,
  // the 99th percentile the median over the ranks.
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Closed loop under mp::run_ranks: each rank scores its shard of the
// holdout back to back in kBatch-record batches (ModelHandle::get snapshot,
// then predict_batch — the scalparc-serve worker path) until the window
// ends, and checks every batch against `expected` outside the timed part.
//
// Latency quantiles are taken per rank. On a shared host each vCPU is at
// times slowed ~1.5x by a busy sibling thread, so a rank's batches sit in one
// of two modes; the median of the pooled batches then jumps between the
// modes as the number of slowed vCPUs crosses half, while the average of the
// rank medians moves in proportion to it. A rank's 99th percentile is set by
// the spells in which the host takes its vCPU away for tens of microseconds
// to milliseconds; they strike one rank at a time, so the median over the
// ranks keeps one struck rank from setting the window's figure.
ScoreWindow score_window(const core::ModelHandle& handle,
                         const data::Dataset& holdout,
                         const std::vector<std::int32_t>& expected) {
  const std::size_t n = holdout.num_records();
  std::vector<std::vector<double>> latencies(kRanks);
  std::vector<std::uint64_t> records(kRanks, 0), bad(kRanks, 0);
  std::vector<double> elapsed(kRanks, 0.0);
  mp::run_ranks(kRanks, mp::CostModel::zero(), [&](mp::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const std::size_t lo = n * rank / kRanks;
    const std::size_t hi = n * (rank + 1) / kRanks;
    std::vector<std::int32_t> out(kBatch);
    std::vector<double>& lat = latencies[rank];
    lat.reserve(1 << 16);
    mp::barrier(comm);
    util::Stopwatch window;
    std::size_t begin = lo;
    while (window.elapsed_seconds() < kScoreWindowSeconds) {
      const std::size_t end = std::min(begin + kBatch, hi);
      util::Stopwatch batch;
      const std::shared_ptr<const core::CompiledTree> model = handle.get();
      model->predict_batch(holdout, begin, end,
                           std::span<std::int32_t>(out.data(), end - begin));
      lat.push_back(batch.elapsed_seconds() * 1e6);
      if (std::memcmp(out.data(), expected.data() + begin,
                      (end - begin) * sizeof(std::int32_t)) != 0) {
        ++bad[rank];
      }
      records[rank] += end - begin;
      begin = end == hi ? lo : end;
    }
    elapsed[rank] = window.elapsed_seconds();
  });
  ScoreWindow result;
  result.seconds = *std::max_element(elapsed.begin(), elapsed.end());
  std::vector<double> rank_p99(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    result.records += records[r];
    result.batches += latencies[r].size();
    result.bad_batches += bad[r];
    result.p50_us += quantile(latencies[r], 0.50) / kRanks;
    rank_p99[r] = quantile(latencies[r], 0.99);
  }
  result.p99_us = median(std::move(rank_p99));
  return result;
}

// One thread calling predict_batch with no runtime around it: the kernel
// rate the service's records/s is compared against.
double kernel_records_per_s(const core::CompiledTree& model,
                            const data::Dataset& holdout) {
  const std::size_t n = holdout.num_records();
  std::vector<std::int32_t> out(kBatch);
  util::Stopwatch clock;
  std::uint64_t records = 0;
  std::size_t begin = 0;
  while (clock.elapsed_seconds() < kKernelSeconds) {
    const std::size_t end = std::min(begin + kBatch, n);
    model.predict_batch(holdout, begin, end,
                        std::span<std::int32_t>(out.data(), end - begin));
    records += end - begin;
    begin = end == n ? 0 : end;
  }
  return static_cast<double>(records) / clock.elapsed_seconds();
}

// Per-layer attribution of one traced fit.
struct SpanTotals {
  // Phase -> its share of the fit's critical path. Every instant of the fit
  // during which some rank is inside a top-level span is charged to the rank
  // whose top-level span has been open longest (the rank the others are
  // waiting for), and there to its innermost open span. The shares tile that
  // time exactly.
  std::map<std::string, double> critical;
  // Wall time of the fit during which no rank was inside any top-level span
  // (thread start-up, partitioning, attempt turnover).
  double outside_s = 0.0;
  // Sum over top-level (phase, level) of slowest-rank minus mean-rank span
  // time.
  double wait_s = 0.0;
  // Largest active-node count any level span carried.
  std::int64_t max_active_nodes = 0;
};

SpanTotals span_totals(const Fit& fit) {
  SpanTotals totals;
  // Span boundaries clipped to the fit: (time, closes?, span index). At
  // equal times opens sort first, so even a zero-length span is opened
  // before it is closed.
  std::vector<std::tuple<double, bool, std::size_t>> events;
  std::map<std::pair<std::string, int>, std::map<int, double>> per_rank;
  const std::vector<util::TraceSpan>& spans = fit.trace.spans;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const util::TraceSpan& span = spans[i];
    totals.max_active_nodes = std::max(totals.max_active_nodes, span.nodes);
    if (span.depth == 0) {
      per_rank[{span.name, span.level}][span.rank] += span.dur_s;
    }
    const double begin = std::clamp(span.ts_s, fit.begin_s, fit.end_s);
    const double end = std::clamp(span.ts_s + span.dur_s, fit.begin_s, fit.end_s);
    events.emplace_back(begin, false, i);
    events.emplace_back(end, true, i);
  }
  for (const auto& [key, by_rank] : per_rank) {
    double slowest = 0.0, sum = 0.0;
    for (const auto& [rank, seconds] : by_rank) {
      slowest = std::max(slowest, seconds);
      sum += seconds;
    }
    totals.wait_s += slowest - sum / static_cast<double>(by_rank.size());
  }

  // Sweep over the boundaries. `top` orders the open top-level spans by
  // begin time; `stacks` holds each rank's open spans by nesting depth.
  std::sort(events.begin(), events.end());
  std::set<std::pair<double, std::size_t>> top;
  std::map<int, std::map<int, std::size_t>> stacks;
  double now = fit.begin_s;
  for (const auto& [time, closes, index] : events) {
    if (top.empty()) {
      totals.outside_s += time - now;
    } else {
      const int rank = spans[top.begin()->second].rank;
      const std::size_t innermost = stacks[rank].rbegin()->second;
      totals.critical[spans[innermost].name] += time - now;
    }
    now = time;
    const util::TraceSpan& span = spans[index];
    if (closes) {
      stacks[span.rank].erase(span.depth);
      if (span.depth == 0) top.erase({span.ts_s, index});
    } else {
      stacks[span.rank][span.depth] = index;
      if (span.depth == 0) top.insert({span.ts_s, index});
    }
  }
  totals.outside_s += fit.end_s - now;
  return totals;
}

class MetricSet {
 public:
  void put(const std::string& name, double value, const char* unit) {
    util::Json metric = util::Json::object();
    metric["value"] = value;
    metric["unit"] = unit;
    json_[name] = std::move(metric);
  }
  util::Json& json() { return json_; }

 private:
  util::Json json_ = util::Json::object();
};

// Per-layer metrics of the traced run, from the representative traced fit
// (its spans and merged registry) plus the timings taken around the calls.
void put_layer_metrics(MetricSet& out, const Workload& workload, const Fit& fit,
                       double untraced_train_s, double traced_train_s) {
  if (!fit.trace.complete()) {
    throw std::runtime_error("trace ring overflowed: span totals incomplete");
  }
  const SpanTotals spans = span_totals(fit);
  const bool hist = workload.mode != core::SplitMode::kExact;
  const auto phase = [&](const char* name) {
    const auto it = spans.critical.find(name);
    return it == spans.critical.end() ? 0.0 : it->second;
  };
  const double findsplit_i = phase("findsplit_i");
  const double findsplit_ii = phase("findsplit_ii");
  const double performsplit_i = phase("performsplit_i");
  const double performsplit_ii = phase("performsplit_ii");
  double other = 0.0;
  for (const auto& [name, seconds] : spans.critical) {
    if (name != "presort" && name != "findsplit_i" && name != "findsplit_ii" &&
        name != "performsplit_i" && name != "performsplit_ii" &&
        name != "checkpoint_write" && name != "checkpoint_restore" &&
        name != "elastic_restore") {
      other += seconds;
    }
  }
  out.put("sort.presort_s", phase("presort"), "s");
  out.put("exact.findsplit_i_s", hist ? 0.0 : findsplit_i, "s");
  out.put("exact.findsplit_ii_s", hist ? 0.0 : findsplit_ii, "s");
  out.put("exact.performsplit_i_s", hist ? 0.0 : performsplit_i, "s");
  out.put("exact.performsplit_ii_s", hist ? 0.0 : performsplit_ii, "s");
  out.put("hist.findsplit_i_s", hist ? findsplit_i : 0.0, "s");
  out.put("hist.findsplit_ii_s", hist ? findsplit_ii : 0.0, "s");
  out.put("hist.performsplit_s", hist ? performsplit_i + performsplit_ii : 0.0, "s");
  out.put("checkpoint.write_s", phase("checkpoint_write"), "s");
  out.put("checkpoint.restore_s", phase("checkpoint_restore"), "s");
  out.put("elastic.restore_s", phase("elastic_restore"), "s");
  out.put("trace.other_span_s", other, "s");
  out.put("trace.outside_span_s", spans.outside_s, "s");
  out.put("trace.train_s", fit.wall_s, "s");
  out.put("trace.overhead_share", traced_train_s / untraced_train_s - 1.0,
          "fraction");
  out.put("mp.wait_s", spans.wait_s, "s");

  const mp::MetricsSnapshot& m = fit.run.metrics;
  const auto counter = [&](const char* name) { return m.value(name, 0.0); };
  out.put("nodetable.enquiry_entries", counter("nodetable.enquiry_entries"), "count");
  out.put("nodetable.update_entries", counter("nodetable.update_entries"), "count");
  out.put("hash.lookups", counter("hash.lookups"), "count");
  const mp::Metric* probes = m.find("hash.probe_length");
  out.put("hash.probe_length_p99",
          probes != nullptr ? mp::histogram_quantile(probes->histogram, 0.99) : 0.0,
          "probes");
  out.put("induction.levels", counter("induction.levels"), "count");
  out.put("induction.max_active_nodes",
          static_cast<double>(spans.max_active_nodes), "count");
  out.put("comm.histogram_bytes", counter("comm.histogram_bytes"), "bytes");
  out.put("mp.bytes_sent_max_per_rank",
          static_cast<double>(fit.run.max_bytes_sent_per_rank()), "bytes");
  out.put("mp.messages_sent", counter("comm.messages_sent"), "count");
  double collective_calls = 0.0;
  for (int op = 0; op < mp::kNumCommOps; ++op) {
    const auto kind = static_cast<mp::CommOp>(op);
    if (kind == mp::CommOp::kPointToPoint) continue;
    collective_calls +=
        m.value("comm.calls." + std::string(mp::comm_op_name(kind)), 0.0);
  }
  out.put("mp.collective_calls", collective_calls, "count");
  out.put("transport.retransmits", counter("transport.retransmits"), "count");
  out.put("transport.nacks", counter("transport.nacks"), "count");
  out.put("checkpoint.bytes_written", counter("checkpoint.bytes_written"), "bytes");
  out.put("checkpoint.bytes_read", counter("checkpoint.bytes_read"), "bytes");
  out.put("checkpoint.write_retries", counter("checkpoint.write_retries"), "count");
  out.put("recovery.retile_bytes", counter("recovery.retile_bytes"), "bytes");
  out.put("recovery.attempts", counter("recovery.attempts"), "count");
  out.put("recovery.failed_attempt_s", fit.heal_s, "s");
  out.put("recovery.wasted_share", fit.heal_s / fit.wall_s, "fraction");
  for (int c = 0; c < util::kNumMemCategories; ++c) {
    const auto category = static_cast<util::MemCategory>(c);
    std::size_t peak = 0;
    for (const mp::RankOutcome& rank : fit.run.ranks) {
      peak = std::max(peak, rank.meter.peak_bytes(category));
    }
    out.put("memory.peak_bytes." + std::string(util::mem_category_name(category)),
            static_cast<double>(peak), "bytes");
  }
}

int run(const util::CliArgs& args) {
  const std::string name = args.get_string("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::invalid_argument("unknown --workload '" + name +
                                "' (exact-deep, hist-deep, recover)");
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const fs::path work = args.get_string("work", "");
  if (work.empty()) throw std::invalid_argument("--work DIR is required");
  fs::create_directories(work);
  const fs::path csv = work / "train.csv";
  const fs::path model_path = work / "model.tree";
  const fs::path checkpoint_dir = work / "checkpoint";

  const CpuTicks ticks_begin = read_cpu_ticks();
  Tally tally;
  util::Stopwatch preparing;

  // ---- preparation (untimed): inputs from the seed, reference tree ------
  data::GeneratorConfig config;
  config.seed = seed;
  config.function = workload->function;
  config.label_noise = workload->label_noise;
  config.num_attributes = 7;
  const data::QuestGenerator generator(config);
  const data::Dataset holdout = generator.generate(kTrainRecords, kHoldoutRecords);
  std::string reference;
  {
    const data::Dataset training = generator.generate(0, kTrainRecords);
    data::write_csv_file(training, csv.string());
    spin_warmup();
    util::Stopwatch clock;
    const core::FitReport ref = core::ScalParC::fit(
        training, workload->reference_ranks, controls_for(*workload));
    reference = tree_text(ref.tree);
    std::cerr << "reference fit at p=" << workload->reference_ranks << ": "
              << clock.elapsed_seconds() << " s, " << ref.tree.num_nodes()
              << " nodes\n";
  }
  const double csv_mb = static_cast<double>(fs::file_size(csv)) / 1e6;
  const double prepare_s = preparing.elapsed_seconds();

  // ---- measured rounds ----------------------------------------------------
  std::vector<double> read_s, load_s, compile_s, setup_s, train_s, traced_s;
  std::vector<double> records_per_s, p50_us, p99_us, kernel_rps;
  std::vector<Fit> traced_fits;
  std::uint64_t batches = 0;
  double peak_bytes = 0.0, accuracy = 0.0;
  std::shared_ptr<const core::CompiledTree> served;
  std::vector<std::int32_t> expected;
  const int min_rounds = trace ? kMinTraceRounds : kMinRounds;
  util::Stopwatch measuring;
  // Past the minimum, a round starts only if a round of the mean length so
  // far still ends within --seconds.
  const auto another_round = [&](int done) {
    const double elapsed = measuring.elapsed_seconds();
    return done < min_rounds || elapsed + elapsed / done <= seconds;
  };
  for (int round = 0; another_round(round); ++round) {
    const std::string tag = "round " + std::to_string(round) + ": ";
    const bool traced = trace && round % 2 == 1;
    Fit fit;
    double first_read_s = 0.0;
    try {
      util::Stopwatch clock;
      const data::Dataset training = data::read_csv_file(csv.string());
      first_read_s = clock.elapsed_seconds();
      fit = timed_fit(*workload, training, checkpoint_dir, traced);
    } catch (const std::exception& e) {
      tally.check(false, tag + "fit threw: " + e.what());
      break;
    }
    if (workload->recover) {
      const bool one_shrink =
          fit.events.size() == 1 &&
          fit.events.front().policy == core::RecoveryPolicy::kShrink &&
          fit.events.front().ranks_after == kRanks - 1;
      if (!tally.check(fit.outcome == core::RecoveryOutcome::kCompleted &&
                           one_shrink,
                       tag + "recovery completes after exactly one shrink")) {
        break;
      }
    } else {
      tally.check(true, tag + "fit");
    }
    tally.check(tree_text(fit.tree) == reference,
                tag + "tree is byte-identical to the reference fit");
    (traced ? traced_s : train_s).push_back(fit.wall_s);
    peak_bytes = static_cast<double>(fit.run.max_peak_bytes_per_rank());
    core::save_tree_file(fit.tree, model_path.string());
    if (round == 0) {
      expected.resize(holdout.num_records());
      for (std::size_t row = 0; row < holdout.num_records(); ++row) {
        expected[row] = fit.tree.predict(holdout, row);
      }
    }

    // Set up and score twice per round: the setup after the fit ingests the
    // CSV the fit trained on; the second one ingests it again. Twice the
    // setup samples and scoring windows for one fit, spread over the round.
    for (int pass = 0; pass < 2; ++pass) {
      util::Stopwatch clock;
      if (pass == 0) {
        read_s.push_back(first_read_s);
      } else {
        data::read_csv_file(csv.string());
        read_s.push_back(clock.elapsed_seconds());
      }
      clock.reset();
      const core::DecisionTree loaded = core::load_tree_file(model_path.string());
      load_s.push_back(clock.elapsed_seconds());
      clock.reset();
      served = std::make_shared<const core::CompiledTree>(
          core::CompiledTree::compile(loaded));
      compile_s.push_back(clock.elapsed_seconds());
      setup_s.push_back(read_s.back() + load_s.back() + compile_s.back());
      const std::vector<std::int32_t> predicted = served->predict_all(holdout);
      tally.check(predicted == expected,
                  tag + "compiled predictions equal DecisionTree::predict");
      if (round == 0 && pass == 0) {
        std::uint64_t hits = 0;
        for (std::size_t row = 0; row < holdout.num_records(); ++row) {
          hits += predicted[row] == holdout.label(row) ? 1 : 0;
        }
        accuracy = static_cast<double>(hits) /
                   static_cast<double>(holdout.num_records());
      }

      const core::ModelHandle handle(served);
      std::uint64_t setup_batches = 0;
      for (int w = 0; w < kWindowsPerSetup; ++w) {
        const ScoreWindow window = score_window(handle, holdout, expected);
        tally.add(window.batches, window.bad_batches, "scored batches");
        setup_batches += window.batches;
        records_per_s.push_back(static_cast<double>(window.records) /
                                window.seconds);
        p50_us.push_back(window.p50_us);
        p99_us.push_back(window.p99_us);
      }
      batches += setup_batches;
      if (trace) kernel_rps.push_back(kernel_records_per_s(*served, holdout));
      const auto last_windows = [](const std::vector<double>& samples) {
        return median(std::vector<double>(samples.end() - kWindowsPerSetup,
                                          samples.end()));
      };
      std::cerr << tag << (traced ? "traced " : "") << "fit_s=" << fit.wall_s
                << " peak_bytes=" << fit.run.max_peak_bytes_per_rank()
                << (fit.events.empty() ? ""
                                       : " resumed_level=" + std::to_string(
                                             fit.events.front().resumed_level))
                << " read_s=" << read_s.back() << " load_s=" << load_s.back()
                << " compile_s=" << compile_s.back()
                << " score_records_per_s=" << last_windows(records_per_s)
                << " p50_us=" << last_windows(p50_us)
                << " p99_us=" << last_windows(p99_us)
                << " batches=" << setup_batches << '\n';
    }
    if (traced) traced_fits.push_back(std::move(fit));
  }
  const CpuTicks ticks_end = read_cpu_ticks();
  const double ticks = ticks_end.total - ticks_begin.total;
  const double steal_share =
      ticks > 0.0 ? (ticks_end.steal - ticks_begin.steal) / ticks : 0.0;

  if (train_s.empty() || (trace && traced_fits.empty())) {
    std::cerr << "wallbench: no fit completed; no result\n";
    return 1;
  }
  MetricSet metrics;
  const double ok_share = static_cast<double>(tally.attempted() - tally.failed()) /
                          static_cast<double>(tally.attempted());
  if (!trace) {
    metrics.put("setup_s", median(setup_s), "s");
    metrics.put("train_s", median(train_s), "s");
    metrics.put("train_peak_bytes_per_rank", peak_bytes, "bytes");
    metrics.put("holdout_accuracy", accuracy, "fraction");
    metrics.put("score_records_per_s", median(records_per_s), "records/s");
    metrics.put("score_batch_p50_us", median(p50_us), "us");
    metrics.put("score_batch_p99_us", median(p99_us), "us");
    metrics.put("ok_share", ok_share, "fraction");
  } else {
    // The traced fit with the median wall time stands for the run, so its
    // phase totals and its train_s come from the same fit.
    std::sort(traced_fits.begin(), traced_fits.end(),
              [](const Fit& a, const Fit& b) { return a.wall_s < b.wall_s; });
    const Fit& representative = traced_fits[(traced_fits.size() - 1) / 2];
    put_layer_metrics(metrics, *workload, representative, median(train_s),
                      median(traced_s));
    metrics.put("data.ingest_s", median(read_s), "s");
    metrics.put("data.ingest_mb_per_s", csv_mb / median(read_s), "MB/s");
    metrics.put("serve.load_s", median(load_s), "s");
    metrics.put("serve.compile_s", median(compile_s), "s");
    metrics.put("serve.model_nodes", served->num_nodes(), "count");
    metrics.put("serve.model_depth", served->depth(), "count");
    metrics.put("serve.model_bytes", static_cast<double>(served->payload_bytes()),
                "bytes");
    metrics.put("serve.batches", static_cast<double>(batches), "count");
    metrics.put("serve.kernel_records_per_s", median(kernel_rps), "records/s");
    metrics.put("machine.steal_share", steal_share, "fraction");
  }

  std::cerr << "wallbench " << workload->name << " seed=" << seed
            << (trace ? " trace" : "") << ": prepare_s=" << prepare_s
            << " measure_s=" << measuring.elapsed_seconds()
            << " rounds=" << train_s.size() + traced_s.size()
            << " train_s=" << median(train_s) << " setup_s=" << median(setup_s)
            << " batches=" << batches << " accuracy=" << accuracy
            << " steal_share=" << steal_share << " ok=" << ok_share << " ("
            << tally.failed() << " failed of " << tally.attempted() << ")\n";

  util::Json result = util::Json::object();
  result["correct"] = tally.failed() == 0;
  result["attempted"] = tally.attempted();
  result["failed"] = tally.failed();
  result["metrics"] = std::move(metrics.json());
  std::cout << result.dump(0) << std::endl;
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "wallbench: " << e.what() << '\n';
    return 2;
  }
}
