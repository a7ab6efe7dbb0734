#include "defenses/trimmed_mean.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedguard::defenses {

TrimmedMeanAggregator::TrimmedMeanAggregator(double trim_fraction)
    : trim_fraction_{trim_fraction} {
  if (trim_fraction < 0.0 || trim_fraction >= 0.5) {
    throw std::invalid_argument{"TrimmedMeanAggregator: trim_fraction must be in [0, 0.5)"};
  }
}

std::vector<float> trimmed_mean(const PointsView& points, double trim_fraction) {
  const std::size_t count = points.count();
  const std::size_t dim = points.dim();
  if (count == 0 || dim == 0) {
    throw std::invalid_argument{"trimmed_mean: bad dimensions"};
  }
  auto trim = static_cast<std::size_t>(trim_fraction * static_cast<double>(count));
  if (2 * trim >= count) trim = (count - 1) / 2;
  const std::size_t kept = count - 2 * trim;

  std::vector<float> out(dim);
  std::vector<float> column(count);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t k = 0; k < count; ++k) column[k] = points.row(k)[i];
    std::sort(column.begin(), column.end());
    double total = 0.0;
    for (std::size_t k = trim; k < count - trim; ++k) total += column[k];
    out[i] = static_cast<float>(total / static_cast<double>(kept));
  }
  return out;
}

Selection TrimmedMeanAggregator::do_partial_aggregate(const AggregationContext& /*context*/,
                                                      const UpdateView& updates,
                                                      ShardPartial& out) {
  out.parameters = trimmed_mean(updates.points(), trim_fraction_);
  return {};
}

}  // namespace fedguard::defenses
