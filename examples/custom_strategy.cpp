// Extending the framework: implement a custom AggregationStrategy through the
// public interface and run it inside the simulator next to the built-ins.
//
// The custom strategy below filters updates by cosine similarity to the
// current global model (a simple direction-consistency heuristic), then
// FedAvgs the survivors — a miniature member of the anomaly-detection family
// from the paper's related-work taxonomy (§II).

#include <cstdio>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "defenses/aggregation.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace {

using namespace fedguard;

/// Rejects updates whose delta from the global model points away from the
/// majority direction (cosine similarity to the mean delta below a
/// threshold). Custom strategies override the private do_partial_aggregate
/// hook and read the round's uploads through the zero-copy UpdateView;
/// selections are index sub-views over the arena, never data copies. A
/// selector writes its cohort's aggregate into the shard partial and returns
/// the slots it kept, with its per-slot scores and cut; the round splits the
/// cohort, tallies the detections and merges the partials.
class CosineFilterAggregator final : public defenses::AggregationStrategy {
 public:
  explicit CosineFilterAggregator(double threshold) : threshold_{threshold} {}

  [[nodiscard]] std::string name() const override { return "cosine_filter"; }

 private:
  defenses::Selection do_partial_aggregate(const defenses::AggregationContext& context,
                                           const defenses::UpdateView& updates,
                                           defenses::ShardPartial& out) override {
    const std::size_t dim = updates.psi_dim();
    const auto global = context.global_parameters;

    // Deltas and their mean direction.
    std::vector<std::vector<float>> deltas(updates.count());
    std::vector<float> mean_delta(dim, 0.0f);
    for (std::size_t k = 0; k < updates.count(); ++k) {
      const std::span<const float> psi = updates.psi(k);
      deltas[k].resize(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        deltas[k][i] = psi[i] - global[i];
        mean_delta[i] += deltas[k][i] / static_cast<float>(updates.count());
      }
    }

    scores_.resize(updates.count());
    kept_slots_.clear();
    for (std::size_t k = 0; k < updates.count(); ++k) {
      scores_[k] = util::cosine_similarity(deltas[k], mean_delta);
      if (scores_[k] >= threshold_) kept_slots_.push_back(k);
    }
    if (kept_slots_.empty()) {
      // Nobody passes: aggregate the whole cohort. An empty kept list keeps
      // every slot.
      defenses::weighted_mean_into(updates, accumulator_, out.parameters);
    } else {
      const defenses::UpdateView kept = updates.select(kept_slots_, select_scratch_);
      defenses::weighted_mean_into(kept, accumulator_, out.parameters);
    }
    return defenses::Selection{.kept = kept_slots_, .scores = scores_, .threshold = threshold_};
  }

  double threshold_;
  // Round-persistent scratch; the returned Selection points into it.
  std::vector<double> scores_;
  std::vector<std::size_t> kept_slots_;
  std::vector<std::size_t> select_scratch_;
  std::vector<double> accumulator_;
};

}  // namespace

int main(int argc, char** argv) {
  const core::CliOptions options = core::CliOptions::parse(argc, argv);
  util::set_log_level(util::LogLevel::Warn);

  core::ExperimentConfig config = core::ExperimentConfig::small_scale();
  config.num_clients = 16;
  config.clients_per_round = 8;
  config.train_samples = 1600;
  config.rounds = static_cast<std::size_t>(options.get_int("rounds", 10));
  config.attack = attacks::AttackType::SignFlip;
  config.malicious_fraction = 0.4;

  // Build the federation through the library, then swap in the custom
  // strategy: the Federation struct exposes every component.
  core::Federation federation = core::build_federation(config);
  CosineFilterAggregator custom{options.get_double("threshold", 0.0)};
  fl::ServerConfig server_config;
  server_config.clients_per_round = config.clients_per_round;
  server_config.rounds = config.rounds;
  server_config.seed = config.seed;
  fl::Server server{server_config, federation.clients, custom, federation.test_set,
                    config.arch, config.geometry()};

  std::printf("custom cosine-similarity filter vs 40%% sign flipping:\n");
  fl::RunHistory history = server.run();
  for (const auto& round : history.rounds) {
    std::printf("  round %2zu: accuracy %5.1f%%, rejected %zu (malicious %zu)\n",
                round.round, round.test_accuracy * 100.0, round.rejected_clients,
                round.rejected_malicious);
  }
  std::printf("\nfinal accuracy %.1f%% | detection TPR %.2f FPR %.2f\n",
              history.rounds.back().test_accuracy * 100.0,
              history.true_positive_rate(), history.false_positive_rate());
  std::printf("\n(compare: ./attack_comparison --attack sign_flip --strategy fedguard "
              "--fraction 0.4)\n");
  return 0;
}
