// Extending the framework: implement a custom AggregationStrategy through the
// public interface and run it inside the simulator next to the built-ins.
//
// The custom strategy below filters updates by cosine similarity to the
// current global model (a simple direction-consistency heuristic), then
// FedAvgs the survivors — a miniature member of the anomaly-detection family
// from the paper's related-work taxonomy (§II).

#include <cstdio>
#include <memory>

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
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"threshold"});
  const core::ExperimentConfig config = core::parse_or_exit([&] {
    return core::experiment_config(options, [](core::ExperimentConfig& defaults) {
      defaults.num_clients = 16;
      defaults.clients_per_round = 8;
      defaults.train_samples = 1600;
      defaults.rounds = 10;
      defaults.attack = attacks::AttackType::SignFlip;
      defaults.malicious_fraction = 0.4;
    });
  });
  const double threshold =
      core::parse_or_exit([&] { return options.get_number("threshold", 0.0); });
  util::set_log_level(util::LogLevel::Warn);

  // Build the federation through the library, then run its clients under a
  // server with the custom strategy: the Federation struct exposes every
  // component. The server takes a factory and builds one instance per shard.
  core::Federation federation = core::build_federation(config);
  fl::ServerConfig server_config;
  static_cast<fl::RoundConfig&>(server_config) = core::round_config(config);
  server_config.fault_plan = config.fault_plan;
  fl::Server server{server_config, federation.clients,
                    [threshold] { return std::make_unique<CosineFilterAggregator>(threshold); },
                    federation.test_set, config.arch, config.geometry()};

  std::printf("custom cosine-similarity filter vs %.0f%% %s:\n",
              config.malicious_fraction * 100.0, attacks::to_string(config.attack));
  fl::RunHistory history = server.run();
  for (const auto& round : history.rounds) {
    std::printf("  round %2zu: accuracy %5.1f%%, rejected %zu (malicious %zu)\n",
                round.round, round.test_accuracy * 100.0, round.rejected_clients,
                round.rejected_malicious);
  }
  std::printf("\nfinal accuracy %.1f%% | detection TPR %.2f FPR %.2f\n",
              history.rounds.back().test_accuracy * 100.0,
              history.true_positive_rate(), history.false_positive_rate());
  std::printf("\n(compare: ./run_config --strategy fedguard --num_clients 16 "
              "--clients_per_round 8 --train_samples 1600 --rounds 10 --attack sign_flip "
              "--malicious_fraction 0.4)\n");
  return 0;
}
