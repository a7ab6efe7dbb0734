#include "defenses/norm_threshold.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace fedguard::defenses {

Selection NormThresholdAggregator::do_partial_aggregate(const AggregationContext& context,
                                                        const UpdateView& updates,
                                                        ShardPartial& out) {
  const std::size_t dim = updates.psi_dim();
  if (context.global_parameters.size() != dim) {
    throw std::invalid_argument{"norm_threshold: global parameter dimension mismatch"};
  }
  const auto global = context.global_parameters;
  const std::size_t count = updates.count();

  // Delta norms in O(dim) memory: the float delta is recomputed per pass
  // below with identical rounding, so no [count, dim] delta matrix is ever
  // materialized.
  std::vector<double> norms(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::span<const float> psi = updates.psi(k);
    double total = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const float delta = psi[i] - global[i];
      total += static_cast<double>(delta) * static_cast<double>(delta);
    }
    norms[k] = std::sqrt(total);
  }

  const double threshold = util::median(std::span<const double>{norms}) * threshold_multiplier_;

  // Clip oversized deltas to the threshold and average.
  std::vector<double> accumulator(dim, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    const double scale = (threshold > 0.0 && norms[k] > threshold) ? threshold / norms[k] : 1.0;
    const std::span<const float> psi = updates.psi(k);
    for (std::size_t i = 0; i < dim; ++i) {
      const float delta = psi[i] - global[i];
      accumulator[i] += static_cast<double>(delta) * scale;
    }
  }

  out.parameters.resize(dim);
  const double inv = 1.0 / static_cast<double>(count);
  for (std::size_t i = 0; i < dim; ++i) {
    out.parameters[i] = static_cast<float>(global[i] + accumulator[i] * inv);
  }
  return {};
}

}  // namespace fedguard::defenses
