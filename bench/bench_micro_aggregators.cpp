// Micro-benchmarks of the aggregation operators: throughput as a function of
// cohort size and parameter dimension, timed over the calls a round makes (one
// shard's partial_aggregate_into, then merge_partials_into). Relevant to the
// paper's Table V discussion — Krum's pairwise distances dominate as m grows,
// GeoMed's Weiszfeld iterations cost a small multiple of FedAvg, the medians
// sort per coordinate.

#include <benchmark/benchmark.h>

#include <string>

#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/trimmed_mean.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedguard;

/// One round's arena: `count` uniform random ψ rows of `dim` floats.
void fill_updates(defenses::UpdateMatrix& arena, std::size_t count, std::size_t dim,
                  std::uint64_t seed) {
  util::Rng rng{seed};
  arena.reset(count, dim);
  for (std::size_t k = 0; k < count; ++k) {
    arena.meta(k).client_id = static_cast<int>(k);
    arena.meta(k).num_samples = 100;
    for (auto& v : arena.psi(k)) v = rng.uniform_float(-1.0f, 1.0f);
  }
}

template <typename Strategy, typename... Args>
void run_aggregator(benchmark::State& state, Args&&... args) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  defenses::UpdateMatrix arena;
  fill_updates(arena, count, dim, 42);
  const std::vector<float> global(dim, 0.0f);
  Strategy strategy{std::forward<Args>(args)...};
  defenses::AggregationContext context;
  context.global_parameters = global;
  std::vector<defenses::ShardPartial> partials(1);
  defenses::AggregationResult result;
  for (auto _ : state) {
    strategy.partial_aggregate_into(context, defenses::UpdateView{arena}, 0, partials[0]);
    defenses::merge_partials_into(partials, result);
    benchmark::DoNotOptimize(result.parameters.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * dim));
}

void BM_FedAvg(benchmark::State& state) {
  run_aggregator<defenses::FedAvgAggregator>(state);
}
void BM_GeoMed(benchmark::State& state) {
  run_aggregator<defenses::GeoMedAggregator>(state);
}
void BM_Krum(benchmark::State& state) {
  run_aggregator<defenses::KrumAggregator>(state, 0.25, std::size_t{1});
}
void BM_CoordinateMedian(benchmark::State& state) {
  run_aggregator<defenses::CoordinateMedianAggregator>(state);
}
void BM_TrimmedMean(benchmark::State& state) {
  run_aggregator<defenses::TrimmedMeanAggregator>(state, 0.2);
}

void aggregator_args(benchmark::internal::Benchmark* bench) {
  // (clients per round, parameter dimension). m=50 matches the paper.
  bench->Args({10, 100000})->Args({50, 100000})->Args({50, 500000})->Args({100, 100000});
  bench->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_FedAvg)->Apply(aggregator_args);
BENCHMARK(BM_GeoMed)->Apply(aggregator_args);
BENCHMARK(BM_Krum)->Apply(aggregator_args);
BENCHMARK(BM_CoordinateMedian)->Apply(aggregator_args);
BENCHMARK(BM_TrimmedMean)->Apply(aggregator_args);

// The pairwise-distance matrix in isolation, with an explicit kernel thread
// count as the LAST argument (0 thresholds so the parallel path always
// engages; threads = 1 measures the serial loop through the same dispatch).
void BM_KrumPairwise(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  parallel::KernelConfig config;
  config.threads = static_cast<std::size_t>(state.range(2));
  config.distance_min_elements = 1;
  parallel::set_kernel_config(config);
  util::Rng rng{7};
  std::vector<float> points(count * dim);
  for (auto& v : points) v = rng.uniform_float(-1.0f, 1.0f);
  const std::size_t f = count / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(defenses::krum_scores(defenses::PointsView{points, count, dim}, f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * count * dim / 2));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_KrumPairwise)
    ->Args({50, 100000, 1})
    ->Args({50, 100000, 4})
    ->Args({100, 100000, 1})
    ->Args({100, 100000, 4})
    ->Unit(benchmark::kMillisecond);

// The pairwise pass alone (pairwise_squared_distances, no scoring), pinned to
// each kernel tier this CPU supports, at the MLP's d = 101,770 for m = 50 (the
// paper) and m = 100; arguments are count, dim, then kernel threads. The tier
// is the op-name suffix (BM_KrumPairwise_serial / _avx2 / _avx512), which
// merge_kernel_bench.py turns into the kernel_arch record field. Items are
// 3 flops (subtract, multiply, add) per float of each pair, per second of
// wall time.
void BM_KrumPairwiseKernelArch(benchmark::State& state, tensor::kernels::KernelArch arch) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  parallel::KernelConfig config;
  config.threads = static_cast<std::size_t>(state.range(2));
  parallel::set_kernel_config(config);
  tensor::kernels::set_kernel_arch(arch);
  util::Rng rng{7};
  std::vector<float> points(count * dim);
  for (auto& v : points) v = rng.uniform_float(-1.0f, 1.0f);
  std::vector<double> distance2;
  for (auto _ : state) {
    defenses::pairwise_squared_distances(defenses::PointsView{points, count, dim}, distance2);
    benchmark::DoNotOptimize(distance2.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * count * (count - 1) / 2 * dim));
  tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto);
  parallel::set_kernel_config(parallel::KernelConfig{});
}

const int register_arch_pairwise = [] {
  namespace kernels = fedguard::tensor::kernels;
  for (const kernels::KernelArch arch : {kernels::KernelArch::Serial,
                                         kernels::KernelArch::Avx2,
                                         kernels::KernelArch::Avx512}) {
    if (!kernels::kernel_arch_available(arch)) continue;
    benchmark::RegisterBenchmark(
        ("BM_KrumPairwise_" + std::string{kernels::to_string(arch)}).c_str(),
        [arch](benchmark::State& s) { BM_KrumPairwiseKernelArch(s, arch); })
        ->Args({50, 101770, 1})
        ->Args({50, 101770, 4})
        ->Args({100, 101770, 1})
        ->Args({100, 101770, 4})
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
  return 0;
}();

}  // namespace

BENCHMARK_MAIN();
