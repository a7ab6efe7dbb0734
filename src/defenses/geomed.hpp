#pragma once
// Geometric median aggregation (Chen, Su & Xu 2018). The global update is
// the point minimizing the sum of Euclidean distances to all client updates,
// computed with Weiszfeld's iteration.

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class GeoMedAggregator final : public AggregationStrategy {
 public:
  explicit GeoMedAggregator(std::size_t max_iterations = 50, double tolerance = 1e-6)
      : max_iterations_{max_iterations}, tolerance_{tolerance} {}

  [[nodiscard]] std::string name() const override { return "geomed"; }

 private:
  /// Keeps every row (robustness comes from the operator itself).
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  std::size_t max_iterations_;
  double tolerance_;
};

/// Weiszfeld iteration over the view's rows (index indirection, no
/// sub-matrix materialization).
[[nodiscard]] std::vector<float> geometric_median(const PointsView& points,
                                                  std::size_t max_iterations = 50,
                                                  double tolerance = 1e-6);

}  // namespace fedguard::defenses
