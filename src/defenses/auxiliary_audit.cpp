#include "defenses/auxiliary_audit.hpp"

#include <numeric>
#include <stdexcept>

namespace fedguard::defenses {

AuxiliaryAuditAggregator::AuxiliaryAuditAggregator(models::ClassifierArch arch,
                                                   models::ImageGeometry geometry,
                                                   data::Dataset auxiliary,
                                                   std::size_t warmup_rounds,
                                                   std::uint64_t seed)
    : auxiliary_{std::move(auxiliary)},
      warmup_rounds_{warmup_rounds},
      scratch_{std::make_unique<models::Classifier>(arch, geometry, seed)} {
  if (auxiliary_.empty()) {
    throw std::invalid_argument{"AuxiliaryAuditAggregator: auxiliary dataset is empty"};
  }
  std::vector<std::size_t> all(auxiliary_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  data::Dataset::Batch batch = auxiliary_.gather(all);
  audit_images_ = std::move(batch.images);
  audit_labels_ = std::move(batch.labels);
}

AuxiliaryAuditAggregator::~AuxiliaryAuditAggregator() = default;

Selection AuxiliaryAuditAggregator::do_partial_aggregate(const AggregationContext& context,
                                                         const UpdateView& updates,
                                                         ShardPartial& out) {
  if (context.round < warmup_rounds_) {
    // PDGAN initialization phase: aggregate everything (the window during
    // which the system is vulnerable — paper §II / §VI-A).
    weighted_mean_into(updates, accumulator_, out.parameters);
    return {};
  }

  const std::size_t count = updates.count();
  scores_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    scratch_->load_parameters_flat(updates.psi(k));
    scores_[k] = scratch_->evaluate_accuracy(audit_images_, audit_labels_);
  }
  const Selection selection = select_by_mean(scores_, KeepSide::AtOrAbove, kept_slots_);
  weighted_mean_into(updates.select(selection.kept, select_scratch_), accumulator_,
                     out.parameters);
  return selection;
}

}  // namespace fedguard::defenses
