#include "defenses/auxiliary_audit.hpp"

#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"

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

void AuxiliaryAuditAggregator::do_partial_aggregate(const AggregationContext& context,
                                                    const UpdateView& updates, ShardPartial& out) {
  const std::size_t count = updates.count();
  if (context.round < warmup_rounds_) {
    // PDGAN initialization phase: aggregate everything (the window during
    // which the system is vulnerable — paper §II / §VI-A).
    last_scores_.assign(count, 0.0);
    weighted_mean_into(updates, accumulator_, out.parameters);
    for (std::size_t k = 0; k < count; ++k) {
      out.accepted_clients.push_back(updates.meta(k).client_id);
    }
    return;
  }

  last_scores_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    scratch_->load_parameters_flat(updates.psi(k));
    last_scores_[k] = scratch_->evaluate_accuracy(audit_images_, audit_labels_);
  }
  const double threshold = util::mean(std::span<const double>{last_scores_});

  kept_slots_.clear();
  for (std::size_t k = 0; k < count; ++k) {
    if (last_scores_[k] >= threshold) {
      kept_slots_.push_back(k);
      out.accepted_clients.push_back(updates.meta(k).client_id);
    } else {
      out.rejected_clients.push_back(updates.meta(k).client_id);
    }
  }
  if (kept_slots_.empty()) {
    kept_slots_.resize(count);
    std::iota(kept_slots_.begin(), kept_slots_.end(), std::size_t{0});
    out.accepted_clients.swap(out.rejected_clients);
    out.rejected_clients.clear();
  }
  const UpdateView kept = updates.select(kept_slots_, select_scratch_);
  weighted_mean_into(kept, accumulator_, out.parameters);
}

}  // namespace fedguard::defenses
