#pragma once
// Auxiliary-dataset audit — a PDGAN-style baseline (Zhao et al. 2019) reduced
// to its essence. PDGAN trains a server-side GAN on an auxiliary dataset and
// audits each client's accuracy on generated data; since the generator only
// approximates the auxiliary data, auditing on the auxiliary dataset directly
// is the idealized upper bound of that family. Like PDGAN it requires
// server-side data (the assumption FedGuard removes) and supports an
// initialization phase during which no filtering happens (PDGAN reports
// 400-600 warm-up rounds; configurable here).
//
// Filtering rule mirrors FedGuard's selective aggregation: keep updates at or
// above the round's mean auxiliary accuracy, FedAvg the survivors.

#include <memory>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "models/classifier.hpp"

namespace fedguard::defenses {

class AuxiliaryAuditAggregator final : public AggregationStrategy {
 public:
  /// `warmup_rounds`: rounds of plain FedAvg before auditing starts (PDGAN's
  /// initialization phase; 0 = audit from the first round).
  AuxiliaryAuditAggregator(models::ClassifierArch arch, models::ImageGeometry geometry,
                           data::Dataset auxiliary, std::size_t warmup_rounds = 0);
  ~AuxiliaryAuditAggregator() override;

  [[nodiscard]] std::string name() const override { return "aux_audit"; }

 private:
  /// Warm-up rounds keep every slot and score none; audited rounds record
  /// each slot's auxiliary accuracy and their mean, the threshold.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  data::Dataset auxiliary_;
  std::size_t warmup_rounds_;
  std::unique_ptr<models::Classifier> scratch_;
  tensor::Tensor audit_images_;
  std::vector<int> audit_labels_;
  // Round-persistent scratch.
  std::vector<double> scores_;
  std::vector<std::size_t> kept_slots_;
  std::vector<std::size_t> select_scratch_;
  std::vector<double> accumulator_;
};

}  // namespace fedguard::defenses
