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
  void do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                            ShardPartial& out) override;
};

/// Coordinate-wise median over the view's rows.
[[nodiscard]] std::vector<float> coordinate_median(const PointsView& points);
/// Flattened [count, dim] form, kept for direct testing and external callers.
[[nodiscard]] std::vector<float> coordinate_median(std::span<const float> points,
                                                   std::size_t count, std::size_t dim);

}  // namespace fedguard::defenses
