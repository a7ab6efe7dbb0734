#include "defenses/geomed.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {

std::vector<float> geometric_median(const PointsView& points, std::size_t max_iterations,
                                    double tolerance) {
  const std::size_t count = points.count();
  const std::size_t dim = points.dim();
  if (count == 0 || dim == 0) {
    throw std::invalid_argument{"geometric_median: bad dimensions"};
  }
  for (std::size_t k = 0; k < count; ++k) {
    FEDGUARD_CHECK_FINITE(points.row(k), "geometric_median: non-finite input point");
  }
  // Start from the arithmetic mean.
  std::vector<double> current(dim, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    const std::span<const float> point = points.row(k);
    for (std::size_t i = 0; i < dim; ++i) current[i] += point[i];
  }
  for (auto& v : current) v /= static_cast<double>(count);

  // Each Weiszfeld iteration runs two data passes, both parallelized over the
  // kernel pool when count * dim crosses the distance threshold:
  //   1. per-point distances to the current estimate (independent per point),
  //   2. the weighted accumulation of `next`, partitioned over coordinate
  //      ranges — every coordinate sums the points in ascending k order, so
  //      the result is identical for any thread count.
  const parallel::KernelConfig config = parallel::kernel_config();
  const bool fan_out =
      parallel::should_parallelize(count * dim, config.distance_min_elements);

  // The per-point distance loop goes through the runtime kernel dispatch;
  // the serial tier is bit-identical to the original inline loop.
  const auto squared_distance_wide =
      tensor::kernels::kernel_table().squared_distance_wide;
  std::vector<double> next(dim);
  std::vector<double> weights(count);
  for (std::size_t iteration = 0; iteration < max_iterations; ++iteration) {
    const auto distance_pass = [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        weights[k] =
            std::sqrt(squared_distance_wide(points.row(k).data(), current.data(), dim));
      }
    };
    if (fan_out) {
      parallel::kernel_parallel_ranges(count, 1, distance_pass);
    } else {
      distance_pass(0, count);
    }

    double weight_total = 0.0;
    bool at_point = false;
    for (std::size_t k = 0; k < count; ++k) {
      if (weights[k] < 1e-12) {
        // Weiszfeld is undefined exactly at a sample point; accept it as the
        // (local) solution — a sample point coinciding with the median is a
        // valid optimum for our purposes.
        at_point = true;
        break;
      }
      weights[k] = 1.0 / weights[k];
      weight_total += weights[k];
    }
    if (at_point) break;

    const auto accumulate_pass = [&](std::size_t begin, std::size_t end) {
      std::fill(next.begin() + static_cast<std::ptrdiff_t>(begin),
                next.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
      for (std::size_t k = 0; k < count; ++k) {
        const double w = weights[k];
        const float* point = points.row(k).data();
        for (std::size_t i = begin; i < end; ++i) next[i] += w * point[i];
      }
    };
    if (fan_out) {
      parallel::kernel_parallel_ranges(dim, 256, accumulate_pass);
    } else {
      accumulate_pass(0, dim);
    }

    double movement2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      next[i] /= weight_total;
      const double d = next[i] - current[i];
      movement2 += d * d;
      current[i] = next[i];
    }
    if (std::sqrt(movement2) < tolerance) break;
  }

  std::vector<float> out(dim);
  for (std::size_t i = 0; i < dim; ++i) out[i] = static_cast<float>(current[i]);
  return out;
}

Selection GeoMedAggregator::do_partial_aggregate(const AggregationContext& /*context*/,
                                                 const UpdateView& updates, ShardPartial& out) {
  out.parameters = geometric_median(updates.points(), max_iterations_, tolerance_);
  return {};
}

}  // namespace fedguard::defenses
