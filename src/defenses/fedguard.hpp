#pragma once
// FEDGUARD — the paper's contribution (Algorithm 1, Section III-B).
//
// Per round, given active clients' classifier updates ψ_j and CVAE decoder
// parameters θ_j:
//   1. sample t latent vectors z ~ N(0,1) and t labels y ~ Cat(L, α);
//   2. synthesize the validation dataset D_syn from the uploaded decoders;
//   3. score every ψ_j by its accuracy on D_syn;
//   4. keep clients scoring at or above the mean accuracy and aggregate the
//      survivors with the internal operator (FedAvg by default; GeoMed and
//      coordinate-median are available per the paper's future-work note).
//
// The t samples can be distributed across the active decoders (the paper's
// configuration: t = 2m = 100 total synthetic digits) or generated in full by
// every decoder (SampleMode::PerDecoder), trading validation-data diversity
// for server compute — the paper's "tuneable overhead" knob.

#include <cstdint>
#include <memory>

#include "defenses/aggregation.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"
#include "util/rng.hpp"

namespace fedguard::defenses {

/// Internal aggregation operator applied to the surviving updates.
enum class InternalOperator { FedAvg, GeoMed, Median };
[[nodiscard]] const char* to_string(InternalOperator op) noexcept;

struct FedGuardConfig {
  models::CvaeSpec cvae_spec;            // must match the clients' CVAEs
  std::size_t total_samples = 100;       // t: size of D_syn in Split mode
  enum class SampleMode { Split, PerDecoder } sample_mode = SampleMode::Split;
  std::vector<double> class_alpha;       // Cat(L, alpha); empty = uniform
  InternalOperator internal_operator = InternalOperator::FedAvg;
  /// L_ACC choice (Alg. 1 line 5). Accuracy is the paper's metric; Balanced
  /// scores each update by its mean per-class recall on D_syn, which is more
  /// sensitive to targeted label flipping (an ablation of ours).
  enum class ScoreMetric { Accuracy, Balanced } score_metric = ScoreMetric::Accuracy;
};

class FedGuardAggregator final : public AggregationStrategy {
 public:
  FedGuardAggregator(FedGuardConfig config, models::ClassifierArch arch,
                     models::ImageGeometry geometry, std::uint64_t seed);
  ~FedGuardAggregator() override;

  [[nodiscard]] std::string name() const override { return "fedguard"; }
  [[nodiscard]] bool wants_decoders() const override { return true; }
  [[nodiscard]] std::size_t decoder_parameter_count() const override;

 private:
  /// Each shard evaluates its own cohort's decoders against its own D_syn;
  /// the per-slot synthetic-set accuracies and their mean, the acceptance
  /// threshold, travel upward as the decision record.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  FedGuardConfig config_;
  models::ImageGeometry geometry_;
  util::Rng rng_;
  std::unique_ptr<models::Classifier> scratch_classifier_;
  std::unique_ptr<models::CvaeDecoder> scratch_decoder_;
  // Round-persistent scratch.
  std::vector<double> scores_;
  std::vector<std::size_t> kept_slots_;
  std::vector<std::size_t> select_scratch_;
  std::vector<double> accumulator_;
};

}  // namespace fedguard::defenses
