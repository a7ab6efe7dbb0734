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

std::vector<float> trimmed_mean(std::span<const float> points, std::size_t count,
                                std::size_t dim, double trim_fraction) {
  if (count == 0 || dim == 0 || points.size() != count * dim) {
    throw std::invalid_argument{"trimmed_mean: bad dimensions"};
  }
  return trimmed_mean(PointsView{points, count, dim}, trim_fraction);
}

void TrimmedMeanAggregator::do_partial_aggregate(const AggregationContext& /*context*/,
                                                 const UpdateView& updates, ShardPartial& out) {
  out.parameters = trimmed_mean(updates.points(), trim_fraction_);
  for (std::size_t k = 0; k < updates.count(); ++k) {
    out.accepted_clients.push_back(updates.meta(k).client_id);
  }
}

}  // namespace fedguard::defenses
