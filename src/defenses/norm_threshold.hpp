#pragma once
// Norm-threshold defense (Sun et al., "Can you really backdoor federated
// learning?"): updates are measured as deltas from the current global model;
// deltas whose L2 norm exceeds the threshold (the median delta norm by
// default) are scaled down to the threshold, then averaged. The paper notes
// sign-flipping preserves norms and defeats this family — reproduced in our
// tests.

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class NormThresholdAggregator final : public AggregationStrategy {
 public:
  /// threshold_multiplier scales the median delta norm used as the bound.
  explicit NormThresholdAggregator(double threshold_multiplier = 1.0)
      : threshold_multiplier_{threshold_multiplier} {}

  [[nodiscard]] std::string name() const override { return "norm_threshold"; }

 private:
  /// Keeps every row: oversized deltas are clipped, not rejected.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  double threshold_multiplier_;
};

}  // namespace fedguard::defenses
