#pragma once
// Bulyan (El Mhamdi et al. 2018): a two-stage robust aggregator from the same
// family as the paper's Krum baseline. Stage 1 repeatedly applies Krum
// selection to build a set of n - 2f candidate updates; stage 2 aggregates
// them with a coordinate-wise trimmed mean around the median. Included as a
// robust-aggregation extension (the paper's related-work taxonomy, §II).

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class BulyanAggregator final : public AggregationStrategy {
 public:
  /// `byzantine_estimate_fraction` = assumed f/n; clamped internally so both
  /// stages stay well-defined for small cohorts.
  explicit BulyanAggregator(double byzantine_estimate_fraction = 0.2)
      : byzantine_fraction_{byzantine_estimate_fraction} {}

  [[nodiscard]] std::string name() const override { return "bulyan"; }

 private:
  /// Keeps the stage-1 selection (stage 2 trims coordinates, not rows).
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  double byzantine_fraction_;
  // Round-persistent scratch.
  std::vector<double> distance2_;  // pairwise distance matrix
  std::vector<std::size_t> selected_;
};

}  // namespace fedguard::defenses
