#pragma once
// SPECTRAL baseline (Li et al. 2020, "Learning to Detect Malicious Clients
// for Robust Federated Learning").
//
// Working principle (Section II of the FedGuard paper): an auxiliary dataset
// at the server is used to pre-train, centrally, a (variational) autoencoder
// over low-dimensional surrogates of benign model updates. During federated
// rounds every uploaded update's surrogate is encoded/decoded; updates whose
// reconstruction error exceeds the dynamic threshold (the mean of the round's
// errors) are excluded from FedAvg aggregation.
//
// Our surrogate is the output-layer slice of the flat parameter vector (the
// trailing coordinates), z-normalized with statistics from the pre-training
// corpus — the same spirit as the reference implementation's low-dimensional
// update features. Pre-training simulates benign federated rounds on shards
// of the auxiliary dataset, starting from the very initialization the real
// federation uses (the strategy trains lazily on its first aggregate call,
// which passes that initialization in the context).

#include <cstdint>
#include <memory>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "models/classifier.hpp"
#include "models/vae.hpp"
#include "util/rng.hpp"

namespace fedguard::defenses {

struct SpectralConfig {
  std::size_t surrogate_dim = 1024;    // trailing slice of psi (clamped to dim)
  std::size_t pretrain_rounds = 6;     // simulated benign FL rounds
  std::size_t pretrain_clients = 8;    // shards of the auxiliary dataset
  std::size_t local_epochs = 1;        // per simulated client round
  std::size_t batch_size = 32;
  float local_learning_rate = 0.1f;
  float local_momentum = 0.9f;
  std::size_t vae_epochs = 60;
  std::size_t vae_hidden = 64;
  std::size_t vae_latent = 8;
  float vae_learning_rate = 1e-3f;
};

class SpectralAggregator final : public AggregationStrategy {
 public:
  /// `auxiliary` is the server-side public dataset the method assumes
  /// (simulated here; see DESIGN.md §1).
  SpectralAggregator(SpectralConfig config, models::ClassifierArch arch,
                     models::ImageGeometry geometry, data::Dataset auxiliary,
                     std::uint64_t seed);
  ~SpectralAggregator() override;

  [[nodiscard]] std::string name() const override { return "spectral"; }

 private:
  /// Records each slot's surrogate reconstruction error and their mean, the
  /// threshold; keeps the slots at or below it.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  void pretrain(std::span<const float> initial_parameters);
  [[nodiscard]] std::vector<float> surrogate(std::span<const float> psi) const;
  [[nodiscard]] std::vector<float> normalized_surrogate(std::span<const float> psi) const;

  SpectralConfig config_;
  models::ClassifierArch arch_;
  models::ImageGeometry geometry_;
  data::Dataset auxiliary_;
  util::Rng rng_;
  std::unique_ptr<models::Classifier> scratch_;
  std::unique_ptr<models::Vae> vae_;
  std::vector<double> feature_mean_;
  std::vector<double> feature_stddev_;
  std::size_t effective_surrogate_dim_ = 0;
  // Round-persistent scratch.
  std::vector<double> errors_;
  std::vector<std::size_t> kept_slots_;
  std::vector<std::size_t> select_scratch_;
  std::vector<double> accumulator_;
};

}  // namespace fedguard::defenses
