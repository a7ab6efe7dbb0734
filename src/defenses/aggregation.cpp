#include "defenses/aggregation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace fedguard::defenses {

namespace {

bool contains_id(const std::vector<int>& ids, int id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

std::size_t validate_updates(std::span<const ClientUpdate> updates) {
  if (updates.empty()) {
    throw std::invalid_argument{"aggregation: no updates"};
  }
  const std::size_t dim = updates.front().psi.size();
  if (dim == 0) throw std::invalid_argument{"aggregation: empty parameter vector"};
  for (const auto& update : updates) {
    if (update.psi.size() != dim) {
      throw std::invalid_argument{"aggregation: parameter dimension mismatch"};
    }
    FEDGUARD_CHECK_FINITE(update.psi, "aggregation: non-finite psi from client " +
                                          std::to_string(update.client_id));
  }
  return dim;
}

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

void fill_update_matrix(UpdateMatrix& arena, std::span<const ClientUpdate> updates) {
  const std::size_t dim = updates.empty() ? 0 : updates.front().psi.size();
  std::size_t theta_dim = 0;
  for (const auto& update : updates) theta_dim = std::max(theta_dim, update.theta.size());
  arena.reset(updates.size(), dim, theta_dim);
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const ClientUpdate& update = updates[k];
    UpdateRow row = arena.row(k);
    std::copy(update.psi.begin(), update.psi.end(), row.psi.begin());
    std::copy(update.theta.begin(), update.theta.end(), row.theta.begin());
    row.meta->client_id = update.client_id;
    row.meta->num_samples = update.num_samples;
    row.meta->truly_malicious = update.truly_malicious;
    row.meta->theta_count = update.theta.size();
  }
}

void AggregationStrategy::aggregate_into(const AggregationContext& context,
                                         const UpdateView& updates, AggregationResult& out) {
  // NVI choke point: every strategy's spans nest under one `agg.<name>`
  // parent here, so per-strategy sub-spans (FedGuard decode/score/select,
  // Krum pairwise/score/pick) decompose it in the trace for free.
  FEDGUARD_TRACE_SPAN(std::string{"agg."} + name(), "aggregate");
  {
    FEDGUARD_TRACE_SPAN(std::string{"agg."} + name(), "validate");
    (void)validate_view(updates);
  }
  out.clear();
  do_aggregate(context, updates, out);
}

AggregationResult AggregationStrategy::aggregate(const AggregationContext& context,
                                                 const UpdateView& updates) {
  AggregationResult out;
  aggregate_into(context, updates, out);
  return out;
}

void fold_exact_update(ShardPartial& partial, std::span<const float> psi,
                       const UpdateMeta& meta) {
  const std::size_t dim = psi.size();
  if (partial.psi_weighted_sum.size() != dim) {
    partial.psi_weighted_sum.assign(dim, 0.0);
    partial.psi_plain_sum.assign(dim, 0.0);
  }
  // Exactly weighted_mean_into's two accumulation branches, applied to one
  // row: w·ψ products are exact in double (24-bit float significand times an
  // integer weight), so the only inexactness anywhere is the running
  // addition — which happens in the same slot order as the single-tier loop.
  const double w = static_cast<double>(meta.num_samples);
  for (std::size_t i = 0; i < dim; ++i) {
    partial.psi_weighted_sum[i] += w * static_cast<double>(psi[i]);
  }
  for (std::size_t i = 0; i < dim; ++i) {
    partial.psi_plain_sum[i] += static_cast<double>(psi[i]);
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
  FEDGUARD_TRACE_SPAN(std::string{"agg."} + name(), "partial");
  (void)validate_view(updates);
  out.clear();
  out.shard_id = shard_id;
  do_partial_aggregate(context, updates, out);
  for (std::size_t k = 0; k < updates.count(); ++k) {
    const UpdateMeta& meta = updates.meta(k);
    if (meta.truly_malicious && contains_id(out.rejected_clients, meta.client_id)) {
      out.rejected_malicious_count += 1;
    }
  }
}

void AggregationStrategy::merge_partials_into(const AggregationContext& context,
                                              std::span<const ShardPartial> partials,
                                              AggregationResult& out) {
  FEDGUARD_TRACE_SPAN(std::string{"agg."} + name(), "merge");
  out.clear();
  do_merge_partials(context, partials, out);
}

void AggregationStrategy::do_partial_aggregate(const AggregationContext& context,
                                               const UpdateView& updates, ShardPartial& out) {
  partial_scratch_.clear();
  do_aggregate(context, updates, partial_scratch_);
  out.client_count = updates.count();
  for (std::size_t k = 0; k < updates.count(); ++k) {
    out.weight_sum += static_cast<double>(updates.meta(k).num_samples);
    if (updates.meta(k).truly_malicious) out.malicious_count += 1;
  }
  out.parameters = std::move(partial_scratch_.parameters);
  out.accepted_clients = std::move(partial_scratch_.accepted_clients);
  out.rejected_clients = std::move(partial_scratch_.rejected_clients);
}

void AggregationStrategy::do_merge_partials(const AggregationContext& /*context*/,
                                            std::span<const ShardPartial> partials,
                                            AggregationResult& out) {
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

  merge_accumulator_.assign(dim, 0.0);
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
    if (total_weight == 0.0) {
      for (const ShardPartial& partial : partials) {
        if (partial.client_count == 0) continue;
        for (std::size_t i = 0; i < dim; ++i) {
          merge_accumulator_[i] += partial.psi_plain_sum[i];
        }
      }
      total_weight = static_cast<double>(total_count);
    } else {
      for (const ShardPartial& partial : partials) {
        if (partial.client_count == 0) continue;
        for (std::size_t i = 0; i < dim; ++i) {
          merge_accumulator_[i] += partial.psi_weighted_sum[i];
        }
      }
    }
    out.parameters.resize(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      out.parameters[i] = static_cast<float>(merge_accumulator_[i] / total_weight);
    }
  } else {
    // Metadata routing: each shard already selected locally; the root trusts
    // the shard-local aggregates and combines them weighted by how many
    // clients each one accepted (a shard that rejected its whole cohort
    // still weighs 1 so its aggregate — by contract a usable fallback — is
    // not silently discarded).
    double total_weight = 0.0;
    for (const ShardPartial& partial : partials) {
      if (partial.client_count == 0) continue;
      if (partial.parameters.size() != dim) {
        throw std::invalid_argument{"merge_partials: shard parameter dimension mismatch"};
      }
      const double w = static_cast<double>(
          partial.accepted_clients.empty() ? 1 : partial.accepted_clients.size());
      total_weight += w;
      for (std::size_t i = 0; i < dim; ++i) {
        merge_accumulator_[i] += w * static_cast<double>(partial.parameters[i]);
      }
    }
    out.parameters.resize(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      out.parameters[i] = static_cast<float>(merge_accumulator_[i] / total_weight);
    }
  }
  for (const ShardPartial& partial : partials) {
    if (partial.client_count == 0) continue;
    out.accepted_clients.insert(out.accepted_clients.end(), partial.accepted_clients.begin(),
                                partial.accepted_clients.end());
    out.rejected_clients.insert(out.rejected_clients.end(), partial.rejected_clients.begin(),
                                partial.rejected_clients.end());
  }
}

AggregationResult AggregationStrategy::aggregate(const AggregationContext& context,
                                                 std::span<const ClientUpdate> updates) {
  (void)validate_updates(updates);  // ragged dims must throw before the copy below
  fill_update_matrix(compat_arena_, updates);
  AggregationResult out;
  aggregate_into(context, UpdateView{compat_arena_}, out);
  return out;
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

std::vector<float> weighted_mean(const UpdateView& updates) {
  std::vector<double> accumulator;
  std::vector<float> out;
  weighted_mean_into(updates, accumulator, out);
  return out;
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

std::vector<float> mean_of(const UpdateView& updates, std::span<const std::size_t> selected) {
  std::vector<double> accumulator;
  std::vector<float> out;
  mean_of_into(updates, selected, accumulator, out);
  return out;
}

namespace {

template <typename RejectedFn>
DetectionStats tally_detection(std::size_t count, RejectedFn&& info) {
  DetectionStats stats;
  for (std::size_t k = 0; k < count; ++k) {
    const auto [malicious, was_rejected] = info(k);
    if (malicious && was_rejected) ++stats.true_positives;
    else if (malicious) ++stats.false_negatives;
    else if (was_rejected) ++stats.false_positives;
    else ++stats.true_negatives;
  }
  return stats;
}

}  // namespace

DetectionStats compute_detection_stats(std::span<const ClientUpdate> updates,
                                       const AggregationResult& result) {
  return tally_detection(updates.size(), [&](std::size_t k) {
    return std::pair{updates[k].truly_malicious,
                     contains_id(result.rejected_clients, updates[k].client_id)};
  });
}

DetectionStats compute_detection_stats(const UpdateView& updates,
                                       const AggregationResult& result) {
  return tally_detection(updates.count(), [&](std::size_t k) {
    const UpdateMeta& meta = updates.meta(k);
    return std::pair{meta.truly_malicious, contains_id(result.rejected_clients, meta.client_id)};
  });
}

}  // namespace fedguard::defenses
