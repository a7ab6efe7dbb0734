#pragma once
// Coordinate-wise trimmed mean (Yin et al. 2018): drop the beta-fraction
// smallest and largest values of each coordinate, average the rest.

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class TrimmedMeanAggregator final : public AggregationStrategy {
 public:
  /// `trim_fraction` in [0, 0.5): fraction trimmed from EACH side.
  explicit TrimmedMeanAggregator(double trim_fraction = 0.2);

  [[nodiscard]] std::string name() const override { return "trimmed_mean"; }

 private:
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  double trim_fraction_;
};

/// Trimmed mean over the view's rows.
[[nodiscard]] std::vector<float> trimmed_mean(const PointsView& points, double trim_fraction);

}  // namespace fedguard::defenses
