// Microbenchmark M1: the Presort — parallel sample sort and the rebalancing
// shift — as every exact fit runs it, measured with google-benchmark (wall
// time of the threaded simulation; the communication pattern is the object of
// interest, not distributed-memory speedup, since all ranks share this
// machine). Each rank holds the equal block of a Quest F2 dataset (seven
// attributes, four of them continuous) and builds, sample-sorts and shifts
// the columns of every continuous attribute, as the exact engine's build()
// does. BM_SerialSortBaseline is the serial reference.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "data/attribute_list.hpp"
#include "data/synthetic.hpp"
#include "mp/runtime.hpp"
#include "sort/partition_util.hpp"
#include "sort/sample_sort.hpp"
#include "util/random.hpp"

namespace {

using namespace scalparc;

std::vector<data::ContinuousEntry> random_entries(std::uint64_t seed,
                                                  std::size_t count,
                                                  std::int64_t first_rid) {
  util::Rng rng(seed);
  std::vector<data::ContinuousEntry> entries(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries[i].value = rng.next_double(0.0, 1e6);
    entries[i].rid = first_rid + static_cast<std::int64_t>(i);
  }
  return entries;
}

void BM_SerialSortBaseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto entries = random_entries(1, n, 0);
    state.ResumeTiming();
    std::sort(entries.begin(), entries.end(), data::ContinuousEntryLess{});
    benchmark::DoNotOptimize(entries.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SerialSortBaseline)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 18);

// Each rank's equal block of `n_total` Quest F2 records, generated once
// outside the timed region.
struct Blocks {
  std::vector<data::Dataset> blocks;
  std::vector<std::size_t> first;
  std::vector<int> continuous;
  std::vector<std::size_t> equal_sizes;
};

Blocks quest_blocks(int p, std::size_t n_total) {
  data::GeneratorConfig config;
  config.function = data::LabelFunction::kF2;
  config.label_noise = 0.05;
  const data::QuestGenerator generator(config);
  Blocks out;
  out.equal_sizes = sort::equal_partition_sizes(n_total, p);
  out.first = sort::offsets_from_sizes(out.equal_sizes);
  for (int r = 0; r < p; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    out.blocks.push_back(
        generator.generate(out.first[rank], out.equal_sizes[rank]));
  }
  const data::Schema& schema = generator.schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind == data::AttributeKind::kContinuous) {
      out.continuous.push_back(a);
    }
  }
  return out;
}

// Times the Presort of every continuous list; `shift` adds the rebalance.
void presort(benchmark::State& state, bool shift) {
  const int p = static_cast<int>(state.range(0));
  const auto n_total = static_cast<std::size_t>(state.range(1));
  const Blocks in = quest_blocks(p, n_total);
  for (auto _ : state) {
    mp::run_ranks(p, mp::CostModel::zero(), [&](mp::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      for (const int attribute : in.continuous) {
        data::ContinuousColumns cols = sort::sample_sort_columns(
            comm, data::build_continuous_columns(
                      in.blocks[rank], attribute,
                      static_cast<std::int64_t>(in.first[rank])));
        if (shift) {
          cols = sort::rebalance_columns(comm, std::move(cols), in.equal_sizes);
        }
        benchmark::DoNotOptimize(cols.values.data());
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n_total) *
                          static_cast<std::int64_t>(in.continuous.size()) *
                          state.iterations());
}

void BM_SampleSort(benchmark::State& state) { presort(state, false); }
BENCHMARK(BM_SampleSort)
    ->Args({2, 1 << 16})
    ->Args({4, 1 << 16})
    ->Args({8, 1 << 16})
    ->Args({4, 1 << 18})
    ->UseRealTime();

// The exact engine's whole Presort; {4, 1000000} is wallbench exact-deep's.
void BM_SampleSortPlusRebalance(benchmark::State& state) {
  presort(state, true);
}
BENCHMARK(BM_SampleSortPlusRebalance)
    ->Args({4, 1 << 16})
    ->Args({4, 1000000})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
