#pragma once
// Krum and Multi-Krum (Blanchard et al. 2017). Each update is scored by the
// sum of squared distances to its n - f - 2 nearest neighbours; Krum selects
// the single best-scored update as the global model, Multi-Krum averages the
// k best.

#include <cmath>

#include "defenses/aggregation.hpp"

namespace fedguard::defenses {

class KrumAggregator final : public AggregationStrategy {
 public:
  /// `byzantine_estimate_fraction` is the assumed fraction f/n of malicious
  /// updates; f is clamped so that n - f - 2 >= 1. `multi_k` = 1 gives plain
  /// Krum; larger values average the multi_k best-scored updates.
  explicit KrumAggregator(double byzantine_estimate_fraction = 0.25, std::size_t multi_k = 1)
      : byzantine_fraction_{byzantine_estimate_fraction}, multi_k_{multi_k} {}

  [[nodiscard]] std::string name() const override {
    return multi_k_ > 1 ? "multi_krum" : "krum";
  }

 private:
  /// The shard runs Krum on its own cohort (so its f budget applies per
  /// shard, not globally — the robustness cost docs/SHARDING.md quantifies);
  /// the per-slot Krum scores travel upward as the decision record.
  Selection do_partial_aggregate(const AggregationContext& context, const UpdateView& updates,
                                 ShardPartial& out) override;

  double byzantine_fraction_;
  std::size_t multi_k_;
  // Round-persistent scratch.
  std::vector<double> scores_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> selected_;
  std::vector<double> accumulator_;
};

/// The order Krum's distances and scores are ranked by: `<` on numbers, with
/// NaN after every number. With the asserts off a non-finite update reaches
/// the sorts, where a plain `<` breaks the ordering; this one ranks its NaN
/// distances and score last instead.
[[nodiscard]] inline bool nan_last_less(double a, double b) noexcept {
  return std::isnan(b) ? !std::isnan(a) : a < b;
}

/// Krum scores for a point set given the byzantine count f (clamped
/// internally). Rows are read through the view's index indirection without
/// materializing a sub-matrix.
[[nodiscard]] std::vector<double> krum_scores(const PointsView& points,
                                              std::size_t byzantine_count);

/// Fills `distance2` with the [count, count] pairwise squared-distance matrix
/// of the point set; each pair is computed exactly once (upper triangle,
/// mirrored). The O(n^2 d) part of Krum scoring, split out so iterated
/// selection (Bulyan stage 1) pays it once instead of per elimination round.
void pairwise_squared_distances(const PointsView& points, std::vector<double>& distance2);

/// Krum scores for the subset `rows` of a point set whose pairwise distances
/// were precomputed with pairwise_squared_distances (`stride` = the full point
/// count the matrix was built over). Looks distances up instead of recomputing
/// them; bit-identical to krum_scores over the materialized subset.
[[nodiscard]] std::vector<double> krum_scores_from_distances(
    std::span<const double> distance2, std::size_t stride,
    std::span<const std::size_t> rows, std::size_t byzantine_count);

}  // namespace fedguard::defenses
