#include "defenses/median.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedguard::defenses {

std::vector<float> coordinate_median(const PointsView& points) {
  const std::size_t count = points.count();
  const std::size_t dim = points.dim();
  if (count == 0 || dim == 0) {
    throw std::invalid_argument{"coordinate_median: bad dimensions"};
  }
  std::vector<float> out(dim);
  std::vector<float> column(count);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t k = 0; k < count; ++k) column[k] = points.row(k)[i];
    const std::size_t mid = count / 2;
    std::nth_element(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(mid),
                     column.end());
    if (count % 2 == 1) {
      out[i] = column[mid];
    } else {
      const float upper = column[mid];
      std::nth_element(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(mid) - 1,
                       column.end());
      out[i] = 0.5f * (column[mid - 1] + upper);
    }
  }
  return out;
}

Selection CoordinateMedianAggregator::do_partial_aggregate(
    const AggregationContext& /*context*/, const UpdateView& updates, ShardPartial& out) {
  out.parameters = coordinate_median(updates.points());
  return {};
}

}  // namespace fedguard::defenses
