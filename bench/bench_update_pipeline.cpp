// Round-pipeline benchmarks for the zero-copy UpdateMatrix refactor.
//
// BM_RoundPipeline* measures the server-side cost of one federated round
// minus client training: producers write ψ (and θ for FedGuard) into the
// round arena, the strategy aggregates through the UpdateView the way a
// round does (one shard's partial, then the root merge), and the result is
// η-blended into the global buffer.
//
// BM_BulyanElimination isolates Bulyan's stage-1 elimination loop, whose old
// implementation rebuilt the remaining [n, dim] point matrix once per
// iteration (quadratic copying); the view path rebuilds only the O(n) row
// index list. Numbers land in BENCH_update_pipeline.json via
// scripts/run_all_benches.sh (see docs/PERFORMANCE.md).

#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>

#include "defenses/bulyan.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/krum.hpp"
#include "defenses/update_matrix.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedguard;

constexpr std::uint64_t kSeed = 42;

/// Pre-trained-looking flat ψ vectors, one per client (stand-ins for the
/// output of local training, so the benchmark isolates the server-side path).
std::vector<std::vector<float>> make_psi_sources(std::size_t count, std::size_t dim) {
  util::Rng rng{kSeed};
  std::vector<std::vector<float>> sources(count);
  for (auto& psi : sources) {
    psi.resize(dim);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
  }
  return sources;
}

/// One zero-copy round: fill arena rows in place (the producer write),
/// partial-aggregate the identity view as one shard, merge, blend into the
/// global buffer.
void run_round_arena(benchmark::State& state, defenses::AggregationStrategy& strategy,
                     std::size_t dim, std::span<const float> theta_template) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto sources = make_psi_sources(count, dim);
  const std::size_t theta_dim = strategy.wants_decoders() ? theta_template.size() : 0;

  defenses::UpdateMatrix arena;
  std::vector<defenses::ShardPartial> partials(1);
  defenses::AggregationResult result;
  std::vector<float> global(dim, 0.0f);
  defenses::AggregationContext context;
  for (auto _ : state) {
    arena.reset(count, dim, theta_dim);
    for (std::size_t k = 0; k < count; ++k) {
      const defenses::UpdateRow row = arena.row(k);
      std::memcpy(row.psi.data(), sources[k].data(), dim * sizeof(float));
      row.meta->client_id = static_cast<int>(k);
      row.meta->num_samples = 100;
      row.meta->theta_count = theta_dim;
      if (theta_dim > 0) {
        std::memcpy(row.theta.data(), theta_template.data(), theta_dim * sizeof(float));
      }
    }
    context.global_parameters = global;
    strategy.partial_aggregate_into(context, defenses::UpdateView{arena}, 0, partials[0]);
    defenses::merge_partials_into(partials, result);
    for (std::size_t i = 0; i < dim; ++i) {
      global[i] += 0.5f * (result.parameters[i] - global[i]);
    }
    benchmark::DoNotOptimize(global.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * dim));
}

// ψ dimension ≈ 100k: the Mlp classifier on MNIST geometry, so the FedGuard
// variant can actually load the vectors into its scratch classifier.
const models::ImageGeometry kGeometry{1, 28, 28, 10};

std::size_t mlp_dim() {
  static const std::size_t dim = [] {
    models::Classifier probe{models::ClassifierArch::Mlp, kGeometry, kSeed};
    return probe.parameter_count();
  }();
  return dim;
}

models::CvaeSpec bench_cvae_spec() {
  models::CvaeSpec spec;
  spec.hidden = 64;
  spec.latent = 8;
  return spec;
}

const std::vector<float>& theta_template() {
  static const std::vector<float> theta = [] {
    models::CvaeDecoder decoder{bench_cvae_spec(), kSeed};
    return decoder.parameters_flat();
  }();
  return theta;
}

defenses::FedGuardConfig fedguard_config() {
  defenses::FedGuardConfig config;
  config.cvae_spec = bench_cvae_spec();
  config.total_samples = 50;
  return config;
}

void BM_RoundPipelineFedAvg(benchmark::State& state) {
  defenses::FedAvgAggregator strategy;
  run_round_arena(state, strategy, mlp_dim(), {});
}
void BM_RoundPipelineKrum(benchmark::State& state) {
  defenses::KrumAggregator strategy{0.25, 1};
  run_round_arena(state, strategy, mlp_dim(), {});
}
void BM_RoundPipelineFedGuard(benchmark::State& state) {
  defenses::FedGuardAggregator strategy{fedguard_config(), models::ClassifierArch::Mlp,
                                        kGeometry, kSeed};
  run_round_arena(state, strategy, mlp_dim(), theta_template());
}

void pipeline_args(benchmark::internal::Benchmark* bench) {
  bench->Arg(20)->Arg(50)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_RoundPipelineFedAvg)->Apply(pipeline_args);
BENCHMARK(BM_RoundPipelineKrum)->Apply(pipeline_args);
BENCHMARK(BM_RoundPipelineFedGuard)->Apply(pipeline_args);

// ---- Bulyan stage-1 elimination through selection views ----------------------

/// The post-refactor loop, as BulyanAggregator runs it: the pairwise distance
/// matrix is computed once over the arena, then every elimination iteration
/// re-scores the remaining candidates by lookup through the index list.
void BM_BulyanElimination(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto sources = make_psi_sources(count, dim);
  defenses::UpdateMatrix arena;
  arena.reset(count, dim);
  for (std::size_t k = 0; k < count; ++k) {
    std::memcpy(arena.psi(k).data(), sources[k].data(), dim * sizeof(float));
  }
  const defenses::UpdateView updates{arena};
  const auto f = static_cast<std::size_t>(0.2 * static_cast<double>(count));
  const std::size_t selection_size = (count > 2 * f) ? count - 2 * f : 1;

  std::vector<double> distance2;
  std::vector<std::size_t> remaining, selected;
  for (auto _ : state) {
    defenses::pairwise_squared_distances(updates.points(), distance2);
    remaining.resize(count);
    std::iota(remaining.begin(), remaining.end(), std::size_t{0});
    selected.clear();
    while (selected.size() < selection_size && remaining.size() > 1) {
      const std::vector<double> scores =
          defenses::krum_scores_from_distances(distance2, count, remaining, f);
      const std::size_t best = static_cast<std::size_t>(
          std::min_element(scores.begin(), scores.end()) - scores.begin());
      selected.push_back(remaining[best]);
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
    }
    benchmark::DoNotOptimize(selected.data());
  }
}

void bulyan_args(benchmark::internal::Benchmark* bench) {
  bench->Args({20, 100000})->Args({50, 100000})->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_BulyanElimination)->Apply(bulyan_args);

}  // namespace
