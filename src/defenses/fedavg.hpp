#pragma once
// FedAvg (McMahan et al. 2016): sample-count weighted average of all client
// updates. The undefended baseline.

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class FedAvgAggregator final : public AggregationStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "fedavg"; }
  /// A weighted mean merges exactly across shards (up to summation
  /// bracketing): shards fold running ψ sums, the root divides once.
  [[nodiscard]] bool supports_exact_merge() const override { return true; }

 private:
  /// Exact path: fold every cohort row in slot order.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;
};

}  // namespace fedguard::defenses
