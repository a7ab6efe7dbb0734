#include "defenses/fedguard.hpp"

#include <algorithm>
#include <stdexcept>

#include "defenses/geomed.hpp"
#include "defenses/median.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace fedguard::defenses {

const char* to_string(InternalOperator op) noexcept {
  switch (op) {
    case InternalOperator::FedAvg: return "fedavg";
    case InternalOperator::GeoMed: return "geomed";
    case InternalOperator::Median: return "median";
  }
  return "unknown";
}

FedGuardAggregator::FedGuardAggregator(FedGuardConfig config, models::ClassifierArch arch,
                                       models::ImageGeometry geometry, std::uint64_t seed)
    : config_{std::move(config)},
      geometry_{geometry},
      rng_{seed},
      scratch_classifier_{std::make_unique<models::Classifier>(arch, geometry, seed)},
      scratch_decoder_{std::make_unique<models::CvaeDecoder>(config_.cvae_spec, seed)} {
  if (config_.cvae_spec.input_dim != geometry.pixels()) {
    throw std::invalid_argument{"FedGuardAggregator: CVAE input_dim != image pixels"};
  }
  if (config_.class_alpha.empty()) {
    config_.class_alpha.assign(config_.cvae_spec.num_classes,
                               1.0 / static_cast<double>(config_.cvae_spec.num_classes));
  }
  if (config_.class_alpha.size() != config_.cvae_spec.num_classes) {
    throw std::invalid_argument{"FedGuardAggregator: class_alpha size mismatch"};
  }
  if (config_.total_samples == 0) {
    throw std::invalid_argument{"FedGuardAggregator: total_samples must be > 0"};
  }
}

FedGuardAggregator::~FedGuardAggregator() = default;

std::size_t FedGuardAggregator::decoder_parameter_count() const {
  return scratch_decoder_->parameter_count();
}

Selection FedGuardAggregator::do_partial_aggregate(const AggregationContext& /*context*/,
                                                   const UpdateView& updates,
                                                   ShardPartial& out) {
  const std::size_t decoder_dim = scratch_decoder_->parameter_count();
  for (std::size_t j = 0; j < updates.count(); ++j) {
    if (updates.meta(j).theta_count != decoder_dim) {
      throw std::invalid_argument{"FedGuardAggregator: decoder dimension mismatch"};
    }
    FEDGUARD_CHECK_FINITE(updates.theta(j),
                          "FedGuard: non-finite decoder parameters from client " +
                              std::to_string(updates.meta(j).client_id));
  }
  const std::size_t active = updates.count();
  const std::size_t latent = config_.cvae_spec.latent;

  // (1) Shared latent + conditioning samples [z_t], [y_t] (Alg. 1 lines 2-3).
  const std::size_t t = config_.total_samples;
  const tensor::Tensor z = models::sample_standard_normal(t, latent, rng_);
  const std::vector<int> y =
      models::sample_categorical_labels(t, config_.class_alpha, rng_);

  // (2) Synthesize D_syn from the uploaded decoders (Alg. 1 line 4).
  // Split mode: decoder j synthesizes the j-th slice of the shared samples
  // (|D_syn| = t). PerDecoder mode: every decoder synthesizes all t samples
  // (|D_syn| = |J| * t).
  std::vector<float> syn_pixels;
  std::vector<int> syn_labels;
  auto decode_range = [&](std::span<const float> theta, std::size_t begin, std::size_t count) {
    scratch_decoder_->load_parameters_flat(theta);
    tensor::Tensor z_slice{{count, latent}};
    std::vector<int> y_slice(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = z.row(begin + i);
      std::copy(src.begin(), src.end(), z_slice.row(i).begin());
      y_slice[i] = y[begin + i];
    }
    const tensor::Tensor images = scratch_decoder_->decode(z_slice, y_slice);
    syn_pixels.insert(syn_pixels.end(), images.data().begin(), images.data().end());
    syn_labels.insert(syn_labels.end(), y_slice.begin(), y_slice.end());
  };

  {
    FEDGUARD_TRACE_SPAN("agg.fedguard", "decode");
    if (config_.sample_mode == FedGuardConfig::SampleMode::PerDecoder) {
      for (std::size_t j = 0; j < active; ++j) decode_range(updates.theta(j), 0, t);
    } else {
      // Distribute t samples over |J| decoders, remainder to the first ones.
      const std::size_t base = t / active;
      const std::size_t extra = t % active;
      std::size_t offset = 0;
      for (std::size_t j = 0; j < active; ++j) {
        const std::size_t count = base + (j < extra ? 1 : 0);
        if (count == 0) continue;
        decode_range(updates.theta(j), offset, count);
        offset += count;
      }
    }
  }

  const std::size_t syn_count = syn_labels.size();
  tensor::Tensor syn_images = tensor::Tensor::from_data(
      {syn_count, geometry_.channels, geometry_.height, geometry_.width},
      std::move(syn_pixels));

  // (3) Score each client's classifier on D_syn (Alg. 1 line 5).
  scores_.assign(active, 0.0);
  {
  FEDGUARD_TRACE_SPAN("agg.fedguard", "score");
  for (std::size_t j = 0; j < active; ++j) {
    scratch_classifier_->load_parameters_flat(updates.psi(j));
    if (config_.score_metric == FedGuardConfig::ScoreMetric::Balanced) {
      // Mean per-class recall over the classes present in D_syn: a targeted
      // attack that sacrifices a class pair cannot hide behind the other
      // classes' accuracy.
      const std::vector<double> recalls =
          scratch_classifier_->evaluate_per_class(syn_images, syn_labels);
      std::vector<bool> present(recalls.size(), false);
      for (const int label : syn_labels) present[static_cast<std::size_t>(label)] = true;
      double total = 0.0;
      std::size_t classes_present = 0;
      for (std::size_t c = 0; c < recalls.size(); ++c) {
        if (present[c]) {
          total += recalls[c];
          ++classes_present;
        }
      }
      scores_[j] = classes_present > 0 ? total / static_cast<double>(classes_present) : 0.0;
    } else {
      scores_[j] = scratch_classifier_->evaluate_accuracy(syn_images, syn_labels);
    }
  }
  }

  // (4) Selective aggregation: keep ACC_j >= mean(ACC) (Alg. 1 lines 6-7).
  // The kept set is an index sub-view over the round arena — no update is
  // ever copied for the internal operator.
  FEDGUARD_TRACE_SPAN("agg.fedguard", "select");
  const Selection selection = select_by_mean(scores_, KeepSide::AtOrAbove, kept_slots_);
  const UpdateView kept = updates.select(selection.kept, select_scratch_);

  switch (config_.internal_operator) {
    case InternalOperator::FedAvg:
      weighted_mean_into(kept, accumulator_, out.parameters);
      break;
    case InternalOperator::GeoMed:
      out.parameters = geometric_median(kept.points());
      break;
    case InternalOperator::Median:
      out.parameters = coordinate_median(kept.points());
      break;
  }
  return selection;
}

}  // namespace fedguard::defenses
