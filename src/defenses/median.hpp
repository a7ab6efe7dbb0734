#pragma once
// Coordinate-wise median aggregation (Yin et al. 2018). Robust-aggregation
// extension mentioned by the paper's related work; also available as
// FedGuard's internal operator.

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class CoordinateMedianAggregator final : public AggregationStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "median"; }

 private:
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;
};

/// Coordinate-wise median over the view's rows.
[[nodiscard]] std::vector<float> coordinate_median(const PointsView& points);

}  // namespace fedguard::defenses
