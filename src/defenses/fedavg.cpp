#include "defenses/fedavg.hpp"

namespace fedguard::defenses {

Selection FedAvgAggregator::do_partial_aggregate(const AggregationContext& /*context*/,
                                                 const UpdateView& updates, ShardPartial& out) {
  // The shard tier uses the same fold_exact_update primitive incrementally as
  // replies arrive, so the batch and streaming forms produce bit-identical
  // accumulators.
  for (std::size_t k = 0; k < updates.count(); ++k) {
    fold_exact_update(out, updates.psi(k), updates.meta(k));
  }
  return {};
}

}  // namespace fedguard::defenses
