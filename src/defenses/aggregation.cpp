#include "defenses/aggregation.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "parallel/kernel_config.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {

std::size_t validate_view(const UpdateView& updates) {
  if (updates.count() == 0) {
    throw std::invalid_argument{"aggregation: no updates"};
  }
  const std::size_t dim = updates.psi_dim();
  if (dim == 0) throw std::invalid_argument{"aggregation: empty parameter vector"};
  for (std::size_t k = 0; k < updates.count(); ++k) {
    // Every strategy entry funnels through here, so this is the single
    // boundary at which a NaN/Inf-poisoned upload is rejected before it can
    // reach an accumulator (FEDGUARD_ASSERTS builds only).
    FEDGUARD_CHECK_FINITE(updates.psi(k), "aggregation: non-finite psi from client " +
                                              std::to_string(updates.meta(k).client_id));
  }
  return dim;
}

void fold_exact_update(ShardPartial& partial, std::span<const float> psi,
                       const UpdateMeta& meta) {
  const std::size_t dim = psi.size();
  if (partial.psi_weighted_sum.size() != dim) {
    partial.psi_weighted_sum.assign(dim, 0.0);
    partial.psi_plain_sum.assign(dim, 0.0);
  }
  // Exactly weighted_mean_into's two accumulation branches, applied to one
  // row in one pass: w·ψ products are exact in double (24-bit float
  // significand times an integer weight), so the only inexactness anywhere
  // is the running addition — which each accumulator does in the same slot
  // order as the single-tier loop.
  const double w = static_cast<double>(meta.num_samples);
  double* weighted = partial.psi_weighted_sum.data();
  double* plain = partial.psi_plain_sum.data();
  for (std::size_t i = 0; i < dim; ++i) {
    const auto value = static_cast<double>(psi[i]);
    weighted[i] += w * value;
    plain[i] += value;
  }
  partial.weight_sum += w;
  partial.client_count += 1;
  if (meta.truly_malicious) partial.malicious_count += 1;
  partial.accepted_clients.push_back(meta.client_id);
  partial.exact = true;
}

void AggregationStrategy::partial_aggregate_into(const AggregationContext& context,
                                                 const UpdateView& updates,
                                                 std::size_t shard_id, ShardPartial& out) {
  // NVI choke point: every strategy's spans nest under one `agg.<name>`
  // parent here, so per-strategy sub-spans (FedGuard decode/score/select,
  // Krum pairwise/score/pick) decompose it in the trace for free.
  FEDGUARD_TRACE_SPAN(std::string{"agg."} + name(), "partial");
  (void)validate_view(updates);
  out.clear();
  out.shard_id = shard_id;
  const Selection selection = do_partial_aggregate(context, updates, out);
  if (out.exact) return;  // a fold keeps its own bookkeeping, row by row

  // A selector's split, ground-truth tallies and decision record, by slot.
  const std::size_t count = updates.count();
  kept_mask_.assign(count, selection.kept.empty() ? 1 : 0);
  for (const std::size_t slot : selection.kept) {
    if (slot >= count) throw std::logic_error{name() + ": kept slot out of range"};
    kept_mask_[slot] = 1;
  }
  out.client_count = count;
  for (std::size_t k = 0; k < count; ++k) {
    const UpdateMeta& meta = updates.meta(k);
    out.weight_sum += static_cast<double>(meta.num_samples);
    if (meta.truly_malicious) out.malicious_count += 1;
    if (kept_mask_[k] != 0) {
      out.accepted_clients.push_back(meta.client_id);
    } else {
      out.rejected_clients.push_back(meta.client_id);
      if (meta.truly_malicious) out.rejected_malicious_count += 1;
    }
  }
  FEDGUARD_CHECK(selection.scores.empty() || selection.scores.size() == count,
                 name() + ": selection scores are not one per slot");
  out.selection_scores.assign(selection.scores.begin(), selection.scores.end());
  out.selection_threshold = selection.threshold;
}

Selection select_by_mean(std::span<const double> scores, KeepSide side,
                         std::vector<std::size_t>& kept) {
  const double threshold = util::mean(scores);
  kept.clear();
  for (std::size_t k = 0; k < scores.size(); ++k) {
    if (side == KeepSide::AtOrAbove ? scores[k] >= threshold : scores[k] <= threshold) {
      kept.push_back(k);
    }
  }
  if (kept.empty()) {
    // Equal scores can round their mean past every one of them, and a NaN
    // compares false: keep the whole cohort rather than aggregate nothing.
    kept.resize(scores.size());
    std::iota(kept.begin(), kept.end(), std::size_t{0});
  }
  return Selection{.kept = kept, .scores = scores, .threshold = threshold};
}

void AggregationStrategy::merge_partials_into(const AggregationContext& /*context*/,
                                              std::span<const ShardPartial> partials,
                                              AggregationResult& out) {
  FEDGUARD_TRACE_SPAN(std::string{"agg."} + name(), "merge");
  out.clear();
  // Split the live partials by path. A single round never mixes paths (all
  // partials come from one strategy), but a degraded shard may contribute an
  // empty partial on either — those are skipped.
  std::size_t dim = 0;
  bool any_exact = false;
  bool any_metadata = false;
  for (const ShardPartial& partial : partials) {
    if (partial.client_count == 0) continue;
    if (partial.exact) {
      any_exact = true;
      dim = partial.psi_weighted_sum.size();
    } else {
      any_metadata = true;
      dim = partial.parameters.size();
    }
  }
  if ((!any_exact && !any_metadata) || dim == 0) {
    throw std::invalid_argument{"merge_partials: no mergeable shard partials"};
  }
  if (any_exact && any_metadata) {
    throw std::invalid_argument{"merge_partials: mixed exact/metadata partials"};
  }

  // One pass over coordinate ranges: each coordinate starts at 0.0 and adds
  // the live partials in shard order, so how the range is split changes no
  // bit of the result.
  out.parameters.resize(dim);
  float* merged = out.parameters.data();
  if (any_exact) {
    // Sum the shard accumulators then divide once: with one live shard this
    // is bit-identical to weighted_mean_into (adding a sum to 0.0 reproduces
    // it); with several, the divisor (an exact integer in double) matches
    // and only the numerator bracketing differs.
    double total_weight = 0.0;
    std::size_t total_count = 0;
    for (const ShardPartial& partial : partials) {
      if (partial.client_count == 0) continue;
      total_weight += partial.weight_sum;
      total_count += partial.client_count;
    }
    const bool plain = total_weight == 0.0;
    if (plain) total_weight = static_cast<double>(total_count);
    std::vector<const double*> sums;
    for (const ShardPartial& partial : partials) {
      if (partial.client_count == 0) continue;
      const std::vector<double>& sum = plain ? partial.psi_plain_sum : partial.psi_weighted_sum;
      if (sum.size() != dim) {
        throw std::invalid_argument{"merge_partials: shard parameter dimension mismatch"};
      }
      sums.push_back(sum.data());
    }
    parallel::elementwise_ranges(dim, parallel::kElementwiseGrain, dim * sums.size(),
                                 [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double total = 0.0;
        for (const double* sum : sums) total += sum[i];
        merged[i] = static_cast<float>(total / total_weight);
      }
    });
  } else {
    // Metadata routing: each shard already selected locally; the root trusts
    // the shard-local aggregates and combines them weighted by how many
    // clients each one accepted (a shard that rejected its whole cohort
    // still weighs 1 so its aggregate — by contract a usable fallback — is
    // not silently discarded).
    std::vector<const float*> aggregates;
    std::vector<double> weights;
    double total_weight = 0.0;
    for (const ShardPartial& partial : partials) {
      if (partial.client_count == 0) continue;
      if (partial.parameters.size() != dim) {
        throw std::invalid_argument{"merge_partials: shard parameter dimension mismatch"};
      }
      const double w = static_cast<double>(
          partial.accepted_clients.empty() ? 1 : partial.accepted_clients.size());
      total_weight += w;
      aggregates.push_back(partial.parameters.data());
      weights.push_back(w);
    }
    parallel::elementwise_ranges(dim, parallel::kElementwiseGrain, dim * aggregates.size(),
                                 [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double total = 0.0;
        for (std::size_t s = 0; s < aggregates.size(); ++s) {
          total += weights[s] * static_cast<double>(aggregates[s][i]);
        }
        merged[i] = static_cast<float>(total / total_weight);
      }
    });
  }
  for (const ShardPartial& partial : partials) {
    if (partial.client_count == 0) continue;
    out.accepted_clients.insert(out.accepted_clients.end(), partial.accepted_clients.begin(),
                                partial.accepted_clients.end());
    out.rejected_clients.insert(out.rejected_clients.end(), partial.rejected_clients.begin(),
                                partial.rejected_clients.end());
  }
}

void weighted_mean_into(const UpdateView& updates, std::vector<double>& accumulator,
                        std::vector<float>& out) {
  if (updates.count() == 0) throw std::invalid_argument{"aggregation: no updates"};
  const std::size_t dim = updates.psi_dim();
  const std::size_t count = updates.count();
  double total_weight = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    total_weight += static_cast<double>(updates.meta(k).num_samples);
  }
  accumulator.assign(dim, 0.0);
  if (total_weight == 0.0) {
    for (std::size_t k = 0; k < count; ++k) {
      const std::span<const float> psi = updates.psi(k);
      for (std::size_t i = 0; i < dim; ++i) accumulator[i] += psi[i];
    }
    total_weight = static_cast<double>(count);
  } else {
    for (std::size_t k = 0; k < count; ++k) {
      const double w = static_cast<double>(updates.meta(k).num_samples);
      const std::span<const float> psi = updates.psi(k);
      for (std::size_t i = 0; i < dim; ++i) accumulator[i] += w * psi[i];
    }
  }
  out.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    out[i] = static_cast<float>(accumulator[i] / total_weight);
  }
}

void mean_of_into(const UpdateView& updates, std::span<const std::size_t> selected,
                  std::vector<double>& accumulator, std::vector<float>& out) {
  if (selected.empty()) throw std::invalid_argument{"mean_of: empty selection"};
  const std::size_t dim = updates.psi_dim();
  accumulator.assign(dim, 0.0);
  for (const std::size_t k : selected) {
    const std::span<const float> psi = updates.psi(k);
    for (std::size_t i = 0; i < dim; ++i) accumulator[i] += psi[i];
  }
  out.resize(dim);
  const double inv = 1.0 / static_cast<double>(selected.size());
  for (std::size_t i = 0; i < dim; ++i) out[i] = static_cast<float>(accumulator[i] * inv);
}

}  // namespace fedguard::defenses
