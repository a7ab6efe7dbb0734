#include "defenses/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/dataloader.hpp"
#include "data/partition.hpp"
#include "util/logging.hpp"

namespace fedguard::defenses {

SpectralAggregator::SpectralAggregator(SpectralConfig config, models::ClassifierArch arch,
                                       models::ImageGeometry geometry, data::Dataset auxiliary,
                                       std::uint64_t seed)
    : config_{config},
      arch_{arch},
      geometry_{geometry},
      auxiliary_{std::move(auxiliary)},
      rng_{seed},
      scratch_{std::make_unique<models::Classifier>(arch, geometry, seed)} {
  if (auxiliary_.empty()) {
    throw std::invalid_argument{"SpectralAggregator: auxiliary dataset is empty"};
  }
  effective_surrogate_dim_ = std::min(config_.surrogate_dim, scratch_->parameter_count());
}

SpectralAggregator::~SpectralAggregator() = default;

std::vector<float> SpectralAggregator::surrogate(std::span<const float> psi) const {
  // Trailing slice = the output layer (parameters are flattened in
  // declaration order, and every classifier arch ends with the output
  // Linear).
  return {psi.end() - static_cast<std::ptrdiff_t>(effective_surrogate_dim_), psi.end()};
}

std::vector<float> SpectralAggregator::normalized_surrogate(std::span<const float> psi) const {
  std::vector<float> s = surrogate(psi);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<float>((s[i] - feature_mean_[i]) / feature_stddev_[i]);
  }
  return s;
}

void SpectralAggregator::pretrain(std::span<const float> initial_parameters) {
  util::log_info("spectral: pre-training detection VAE (%zu simulated rounds, %zu shards)",
                 config_.pretrain_rounds, config_.pretrain_clients);
  // Shard the auxiliary dataset into simulated benign clients.
  const data::Partition shards =
      data::iid_partition(auxiliary_.size(), config_.pretrain_clients, rng_());

  std::vector<float> global(initial_parameters.begin(), initial_parameters.end());
  std::vector<std::vector<float>> surrogates;
  surrogates.reserve(config_.pretrain_rounds * config_.pretrain_clients);

  for (std::size_t round = 0; round < config_.pretrain_rounds; ++round) {
    std::vector<double> accumulator(global.size(), 0.0);
    for (std::size_t shard = 0; shard < shards.size(); ++shard) {
      scratch_->load_parameters_flat(global);
      data::DataLoader loader{auxiliary_, shards[shard], config_.batch_size, rng_()};
      for (std::size_t epoch = 0; epoch < config_.local_epochs; ++epoch) {
        loader.start_epoch();
        data::Dataset::Batch batch;
        while (loader.next(batch)) {
          scratch_->train_batch(batch.images, batch.labels, config_.local_learning_rate,
                                config_.local_momentum);
        }
      }
      const std::vector<float> trained = scratch_->parameters_flat();
      surrogates.push_back(surrogate(trained));
      for (std::size_t i = 0; i < global.size(); ++i) accumulator[i] += trained[i];
    }
    for (std::size_t i = 0; i < global.size(); ++i) {
      global[i] = static_cast<float>(accumulator[i] / static_cast<double>(shards.size()));
    }
  }

  // Normalization statistics over the pre-training corpus.
  const std::size_t dim = effective_surrogate_dim_;
  feature_mean_.assign(dim, 0.0);
  feature_stddev_.assign(dim, 0.0);
  for (const auto& s : surrogates) {
    for (std::size_t i = 0; i < dim; ++i) feature_mean_[i] += s[i];
  }
  for (auto& m : feature_mean_) m /= static_cast<double>(surrogates.size());
  for (const auto& s : surrogates) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = s[i] - feature_mean_[i];
      feature_stddev_[i] += d * d;
    }
  }
  for (auto& sd : feature_stddev_) {
    sd = std::sqrt(sd / static_cast<double>(surrogates.size()));
    if (sd < 1e-8) sd = 1.0;  // constant feature: leave centered only
  }

  // Train the VAE on normalized surrogates.
  tensor::Tensor corpus{{surrogates.size(), dim}};
  for (std::size_t k = 0; k < surrogates.size(); ++k) {
    for (std::size_t i = 0; i < dim; ++i) {
      corpus.at(k, i) =
          static_cast<float>((surrogates[k][i] - feature_mean_[i]) / feature_stddev_[i]);
    }
  }
  models::VaeSpec spec;
  spec.input_dim = dim;
  spec.hidden = config_.vae_hidden;
  spec.latent = config_.vae_latent;
  vae_ = std::make_unique<models::Vae>(spec, rng_());
  const float final_loss = vae_->train(corpus, config_.vae_epochs,
                                       std::min<std::size_t>(16, surrogates.size()),
                                       config_.vae_learning_rate);
  util::log_info("spectral: VAE pre-training done (final loss %.4f, %zu surrogates)",
                 static_cast<double>(final_loss), surrogates.size());
}

Selection SpectralAggregator::do_partial_aggregate(const AggregationContext& context,
                                                   const UpdateView& updates,
                                                   ShardPartial& out) {
  if (!vae_) pretrain(context.global_parameters);

  // Score every update by surrogate reconstruction error.
  const std::size_t count = updates.count();
  errors_.assign(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    const std::vector<float> s = normalized_surrogate(updates.psi(k));
    tensor::Tensor batch = tensor::Tensor::from_data({1, s.size()}, s);
    errors_[k] = vae_->reconstruction_errors(batch).front();
  }

  // Keep updates at or below the dynamic threshold (mean of errors). The kept
  // set is an index sub-view over the round arena — no psi copies.
  const Selection selection = select_by_mean(errors_, KeepSide::AtOrBelow, kept_slots_);
  weighted_mean_into(updates.select(selection.kept, select_scratch_), accumulator_,
                     out.parameters);
  return selection;
}

}  // namespace fedguard::defenses
