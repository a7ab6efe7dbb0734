#include "defenses/fedcpa.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.hpp"

namespace fedguard::defenses {

double FedCpaAggregator::critical_similarity(std::span<const std::uint32_t> top_a,
                                             std::span<const float> values_a,
                                             std::span<const std::uint32_t> top_b,
                                             std::span<const float> values_b) {
  // Sparse cosine over C_a ∪ C_b: the dot product accumulates only on the
  // intersection (a coordinate critical for one update but not the other
  // contributes nothing), while the norms cover each full critical set — so
  // disjoint sets score 0 and opposed deltas (sign flip, covert mirror)
  // clamp to 0.
  std::size_t ia = 0;
  std::size_t ib = 0;
  double dot = 0.0;
  while (ia < top_a.size() && ib < top_b.size()) {
    if (top_a[ia] < top_b[ib]) {
      ++ia;
    } else if (top_b[ib] < top_a[ia]) {
      ++ib;
    } else {
      dot += static_cast<double>(values_a[ia]) * static_cast<double>(values_b[ib]);
      ++ia;
      ++ib;
    }
  }
  double norm_a = 0.0;
  for (const float v : values_a) norm_a += static_cast<double>(v) * static_cast<double>(v);
  double norm_b = 0.0;
  for (const float v : values_b) norm_b += static_cast<double>(v) * static_cast<double>(v);
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  const double cosine = dot / std::sqrt(norm_a * norm_b);
  return std::max(0.0, cosine);
}

Selection FedCpaAggregator::do_partial_aggregate(const AggregationContext& context,
                                                 const UpdateView& updates, ShardPartial& out) {
  const std::size_t count = updates.count();
  const std::size_t dim = updates.psi_dim();
  const std::span<const float> global = context.global_parameters;
  // Owned-update tests may aggregate without a matching global; deltas then
  // degrade to the raw parameters (ψ0 ≡ 0), which preserves every property
  // the similarity uses.
  const bool has_global = global.size() == dim;

  std::size_t top = static_cast<std::size_t>(
      config_.top_fraction * static_cast<double>(dim));
  top = std::clamp<std::size_t>(top, 1, dim);

  // Extract the sorted top-t critical index set and the aligned delta values
  // for an arbitrary delta(i) profile (per-client or the median consensus).
  const auto build_critical = [&](auto&& delta, std::vector<std::uint32_t>& set,
                                  std::vector<float>& values) {
    index_scratch_.resize(dim);
    std::iota(index_scratch_.begin(), index_scratch_.end(), std::uint32_t{0});
    std::nth_element(index_scratch_.begin(),
                     index_scratch_.begin() + static_cast<std::ptrdiff_t>(top - 1),
                     index_scratch_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const double da = std::fabs(delta(a));
                       const double db = std::fabs(delta(b));
                       // Index tiebreak keeps the set deterministic when
                       // magnitudes collide (e.g. the same-value attack).
                       if (da != db) return da > db;
                       return a < b;
                     });
    set.assign(index_scratch_.begin(),
               index_scratch_.begin() + static_cast<std::ptrdiff_t>(top));
    std::sort(set.begin(), set.end());
    values.resize(top);
    for (std::size_t i = 0; i < top; ++i) {
      values[i] = static_cast<float>(delta(set[i]));
    }
  };

  {
    FEDGUARD_TRACE_SPAN("agg.fedcpa", "critical");
    top_sets_.resize(count);
    top_values_.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      const std::span<const float> psi = updates.psi(k);
      build_critical(
          [&](std::uint32_t i) {
            const double base = has_global ? static_cast<double>(global[i]) : 0.0;
            return static_cast<double>(psi[i]) - base;
          },
          top_sets_[k], top_values_[k]);
    }
  }

  {
    FEDGUARD_TRACE_SPAN("agg.fedcpa", "similarity");
    // Consensus profile: coordinate-wise median delta across the cohort. A
    // minority clique of colluders cannot move it, so gating each score by
    // agreement with it keeps near-identical poisoned updates from crowning
    // each other through their mutual sim ≈ 1.
    median_delta_.resize(dim);
    coord_scratch_.resize(count);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t k = 0; k < count; ++k) {
        const float base = has_global ? global[i] : 0.0f;
        coord_scratch_[k] = updates.psi(k)[i] - base;
      }
      const std::size_t mid = count / 2;
      std::nth_element(coord_scratch_.begin(),
                       coord_scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                       coord_scratch_.end());
      float median = coord_scratch_[mid];
      if (count % 2 == 0 && count > 0) {
        const float lower = *std::max_element(
            coord_scratch_.begin(),
            coord_scratch_.begin() + static_cast<std::ptrdiff_t>(mid));
        median = 0.5f * (lower + median);
      }
      median_delta_[i] = median;
    }
    build_critical([&](std::uint32_t i) { return static_cast<double>(median_delta_[i]); },
                   median_set_, median_values_);

    scores_.assign(count, 0.0);
    for (std::size_t a = 0; a < count; ++a) {
      for (std::size_t b = a + 1; b < count; ++b) {
        const double sim = critical_similarity(top_sets_[a], top_values_[a],
                                               top_sets_[b], top_values_[b]);
        scores_[a] += sim;
        scores_[b] += sim;
      }
    }
    if (count > 1) {
      for (auto& score : scores_) score /= static_cast<double>(count - 1);
    }
    for (std::size_t k = 0; k < count; ++k) {
      scores_[k] *= critical_similarity(top_sets_[k], top_values_[k],
                                        median_set_, median_values_);
    }
  }

  FEDGUARD_TRACE_SPAN("agg.fedcpa", "select");
  order_.resize(count);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    if (scores_[a] != scores_[b]) return scores_[a] > scores_[b];
    return a < b;
  });
  const auto keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(config_.keep_fraction * static_cast<double>(count))),
      1, count);
  selected_.assign(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(keep));
  std::sort(selected_.begin(), selected_.end());

  mean_of_into(updates, selected_, accumulator_, out.parameters);
  return Selection{.kept = selected_, .scores = scores_};
}

}  // namespace fedguard::defenses
