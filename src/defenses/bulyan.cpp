#include "defenses/bulyan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "defenses/krum.hpp"
#include "parallel/kernel_config.hpp"

namespace fedguard::defenses {

void BulyanAggregator::do_aggregate(const AggregationContext& /*context*/,
                                    const UpdateView& updates, AggregationResult& out) {
  const std::size_t dim = updates.psi_dim();
  const std::size_t count = updates.count();

  auto f = static_cast<std::size_t>(byzantine_fraction_ * static_cast<double>(count));
  // Selection set size n - 2f, at least 1.
  std::size_t selection_size = (count > 2 * f) ? count - 2 * f : 1;

  // Stage 1: iterative Krum selection without replacement. Pairwise distances
  // never change between eliminations, so the O(n^2 d) matrix is computed once
  // up front; each iteration re-scores the remaining candidates by lookup —
  // only the O(n) row-index list shrinks, never the [n, dim] point data, and
  // no distance is ever recomputed.
  pairwise_squared_distances(updates.points(), distance2_);
  std::vector<std::size_t> remaining(count);
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});
  std::vector<std::size_t> selected;
  while (selected.size() < selection_size && remaining.size() > 0) {
    if (remaining.size() == 1) {
      selected.push_back(remaining.front());
      remaining.clear();
      break;
    }
    const std::vector<double> scores =
        krum_scores_from_distances(distance2_, count, remaining, f);
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(scores.begin(), scores.end(), nan_last_less) - scores.begin());
    selected.push_back(remaining[best]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
  }

  // Stage 2: per-coordinate, average the selection_size - 2f values closest
  // to the coordinate median (trimmed mean around the median). Coordinates
  // are independent, so the loop partitions over the kernel pool; each range
  // sorts into its own column buffer.
  std::size_t beta = (selected.size() > 2 * f) ? selected.size() - 2 * f : 1;
  out.parameters.resize(dim);
  std::vector<const float*> rows(selected.size());
  for (std::size_t k = 0; k < selected.size(); ++k) rows[k] = updates.psi(selected[k]).data();
  const auto trimmed_coordinates = [&](std::size_t begin, std::size_t end) {
    std::vector<float> column(selected.size());
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t k = 0; k < selected.size(); ++k) {
        column[k] = rows[k][i];
      }
      std::sort(column.begin(), column.end());
      const float median_value = column[column.size() / 2];
      // Sort by distance to the median and average the closest beta.
      std::partial_sort(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(beta),
                        column.end(), [median_value](float a, float b) {
                          return std::abs(a - median_value) < std::abs(b - median_value);
                        });
      double total = 0.0;
      for (std::size_t k = 0; k < beta; ++k) total += column[k];
      out.parameters[i] = static_cast<float>(total / static_cast<double>(beta));
    }
  };
  const parallel::KernelConfig kernel_cfg = parallel::kernel_config();
  if (parallel::should_parallelize(dim * selected.size(),
                                   kernel_cfg.distance_min_elements)) {
    parallel::kernel_parallel_ranges(dim, 1024, trimmed_coordinates);
  } else {
    trimmed_coordinates(0, dim);
  }

  for (std::size_t k = 0; k < count; ++k) {
    if (std::find(selected.begin(), selected.end(), k) != selected.end()) {
      out.accepted_clients.push_back(updates.meta(k).client_id);
    } else {
      out.rejected_clients.push_back(updates.meta(k).client_id);
    }
  }
}

}  // namespace fedguard::defenses
