#include "defenses/krum.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {

namespace {

using tensor::kernels::DistanceTile;

/// Adds tiles covering every pair among rows [a, a + n), n <= kDistanceTileRows:
/// the first half against the second, then each half on its own.
void add_block_tiles(std::size_t a, std::size_t n, std::vector<DistanceTile>& tiles) {
  if (n < 2) return;
  const std::size_t half = n / 2;
  tiles.push_back({a, a + half, half, n - half});
  add_block_tiles(a, half, tiles);
  add_block_tiles(a + half, n - half, tiles);
}

/// Cuts the strict upper triangle of a count x count matrix into tiles, each
/// pair in exactly one: for every block of kDistanceTileRows rows, the pairs
/// inside the block, then the block against the rows after it,
/// kDistanceTileCols at a time. first_pair[t] counts the pairs before tile t.
void plan_distance_tiles(std::size_t count, std::vector<DistanceTile>& tiles,
                         std::vector<std::size_t>& first_pair) {
  constexpr std::size_t kRows = tensor::kernels::kDistanceTileRows;
  constexpr std::size_t kCols = tensor::kernels::kDistanceTileCols;
  static_assert(kRows <= 2 * kCols, "each half of a row block must fit a tile");
  for (std::size_t a = 0; a < count; a += kRows) {
    const std::size_t rows = std::min(kRows, count - a);
    add_block_tiles(a, rows, tiles);
    for (std::size_t b = a + rows; b < count; b += kCols) {
      tiles.push_back({a, b, rows, std::min(kCols, count - b)});
    }
  }
  first_pair.resize(tiles.size());
  std::size_t pairs = 0;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    first_pair[t] = pairs;
    pairs += tiles[t].rows * tiles[t].cols;
  }
}

}  // namespace

void pairwise_squared_distances(const PointsView& points, std::vector<double>& distance2) {
  const std::size_t count = points.count();
  const std::size_t dim = points.dim();
  if (count == 0 || dim == 0) {
    throw std::invalid_argument{"pairwise_squared_distances: bad dimensions"};
  }
  // The O(n^2 * d) hot spot. The upper triangle is cut into tiles of up to
  // 4 rows x 2 rows, and the kernel pool gets contiguous runs of tiles that
  // hold equal numbers of pairs. The kernel advances all of a task's tiles
  // through one chunk of the dimension before the next, so each row chunk is
  // read from memory once per task, not once per pair. Every pair lies in one
  // tile, the diagonal stays 0, and each distance carries its tier's one-pair
  // arithmetic, so the matrix never depends on the thread count or the split.
  // The serial tier is bit-identical to util::squared_distance.
  distance2.assign(count * count, 0.0);
  std::vector<const float*> rows(count);
  for (std::size_t k = 0; k < count; ++k) rows[k] = points.row(k).data();
  std::vector<DistanceTile> tiles;
  std::vector<std::size_t> first_pair;
  plan_distance_tiles(count, tiles, first_pair);
  const auto squared_distance_tiles = tensor::kernels::kernel_table().squared_distance_tiles;
  // Runs the tiles whose first pair falls in [begin, end).
  const auto run_pairs = [&](std::size_t begin, std::size_t end) {
    const auto first = std::lower_bound(first_pair.begin(), first_pair.end(), begin);
    const auto last = std::lower_bound(first, first_pair.end(), end);
    squared_distance_tiles(rows.data(), dim, tiles.data() + (first - first_pair.begin()),
                           static_cast<std::size_t>(last - first), distance2.data(), count);
  };
  const std::size_t pairs = count * (count - 1) / 2;
  const parallel::KernelConfig config = parallel::kernel_config();
  if (parallel::should_parallelize(count * dim, config.distance_min_elements)) {
    parallel::kernel_parallel_ranges(pairs, 1, run_pairs);
  } else {
    run_pairs(0, pairs);
  }
}

std::vector<double> krum_scores_from_distances(std::span<const double> distance2,
                                               std::size_t stride,
                                               std::span<const std::size_t> rows,
                                               std::size_t byzantine_count) {
  const std::size_t count = rows.size();
  if (count == 0 || stride == 0 || distance2.size() != stride * stride) {
    throw std::invalid_argument{"krum_scores_from_distances: bad dimensions"};
  }
  for (const std::size_t r : rows) {
    if (r >= stride) {
      throw std::invalid_argument{"krum_scores_from_distances: row index out of range"};
    }
  }
  // Clamp f so each update has at least one neighbour in its score.
  std::size_t f = byzantine_count;
  if (count < 3) f = 0;
  else if (f + 2 >= count) f = count - 3;
  const std::size_t neighbours = count - f - 2 > 0 ? count - f - 2 : 1;

  // Per-update neighbour sums over the precomputed matrix. Candidate order
  // (and therefore the summation order after the partial sort) matches a
  // fresh krum_scores call over the materialized subset exactly.
  std::vector<double> scores(count, 0.0);
  const auto score_rows = [&](std::size_t begin, std::size_t end) {
    std::vector<double> row;
    for (std::size_t a = begin; a < end; ++a) {
      row.clear();
      for (std::size_t b = 0; b < count; ++b) {
        if (b != a) row.push_back(distance2[rows[a] * stride + rows[b]]);
      }
      const std::size_t k = std::min(neighbours, row.size());
      std::partial_sort(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(k), row.end(),
                        nan_last_less);
      scores[a] =
          std::accumulate(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(k), 0.0);
    }
  };
  const parallel::KernelConfig config = parallel::kernel_config();
  if (parallel::should_parallelize(count * count, config.distance_min_elements)) {
    parallel::kernel_parallel_ranges(count, 1, score_rows);
  } else {
    score_rows(0, count);
  }
  return scores;
}

std::vector<double> krum_scores(const PointsView& points, std::size_t byzantine_count) {
  const std::size_t count = points.count();
  const std::size_t dim = points.dim();
  if (count == 0 || dim == 0) {
    throw std::invalid_argument{"krum_scores: bad dimensions"};
  }
  for (std::size_t k = 0; k < count; ++k) {
    FEDGUARD_CHECK_FINITE(points.row(k), "krum_scores: non-finite input point");
  }
  // These spans also fire when Bulyan reuses Krum's scorer; they stay in the
  // agg.krum category and nest under the caller's agg.<strategy> parent.
  std::vector<double> distance2;
  {
    FEDGUARD_TRACE_SPAN("agg.krum", "pairwise");
    pairwise_squared_distances(points, distance2);
  }
  FEDGUARD_TRACE_SPAN("agg.krum", "score");
  std::vector<std::size_t> rows(count);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return krum_scores_from_distances(distance2, count, rows, byzantine_count);
}

std::vector<double> krum_scores(std::span<const float> points, std::size_t count,
                                std::size_t dim, std::size_t byzantine_count) {
  if (count == 0 || dim == 0 || points.size() != count * dim) {
    throw std::invalid_argument{"krum_scores: bad dimensions"};
  }
  return krum_scores(PointsView{points, count, dim}, byzantine_count);
}

void KrumAggregator::do_aggregate(const AggregationContext& /*context*/,
                                  const UpdateView& updates, AggregationResult& out) {
  const std::size_t count = updates.count();
  const auto byzantine_count =
      static_cast<std::size_t>(byzantine_fraction_ * static_cast<double>(count));
  scores_ = krum_scores(updates.points(), byzantine_count);

  FEDGUARD_TRACE_SPAN("agg.krum", "pick");
  order_.resize(count);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    return nan_last_less(scores_[a], scores_[b]);
  });

  const std::size_t keep = std::min(std::max<std::size_t>(multi_k_, 1), count);
  selected_.assign(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(keep));
  mean_of_into(updates, selected_, accumulator_, out.parameters);
  for (std::size_t k = 0; k < count; ++k) {
    if (std::find(selected_.begin(), selected_.end(), k) != selected_.end()) {
      out.accepted_clients.push_back(updates.meta(k).client_id);
    } else {
      out.rejected_clients.push_back(updates.meta(k).client_id);
    }
  }
}

void KrumAggregator::do_partial_aggregate(const AggregationContext& context,
                                          const UpdateView& updates, ShardPartial& out) {
  AggregationStrategy::do_partial_aggregate(context, updates, out);
  out.selection_scores = scores_;  // do_aggregate just filled the scratch
}

}  // namespace fedguard::defenses
