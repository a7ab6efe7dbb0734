#pragma once
// Test-only driver that runs an AggregationStrategy the way a federated round
// does: the uploads fill one UpdateMatrix arena, each shard partial-aggregates
// its cohort (partial_aggregate_into), and the root merges the partials
// (merge_partials_into). With one shard this is a single-tier round, so
// strategy unit tests exercise exactly the calls fl::RoundEngine makes.

#include <algorithm>
#include <span>
#include <vector>

#include "defenses/aggregation.hpp"

namespace fedguard::strategy_path {

/// One client's upload as a test writes it down; `fill_arena` copies it into
/// an arena row.
struct Upload {
  int client_id = -1;
  std::vector<float> psi;
  std::vector<float> theta;
  std::size_t num_samples = 0;
  bool truly_malicious = false;
};

/// Resets `arena` to one row per upload. Every ψ must have the first one's
/// length; the θ plane fits the longest θ, and each row's theta_count records
/// its own θ length (as the producers do).
inline void fill_arena(defenses::UpdateMatrix& arena, std::span<const Upload> uploads) {
  const std::size_t dim = uploads.empty() ? 0 : uploads.front().psi.size();
  std::size_t theta_dim = 0;
  for (const Upload& upload : uploads) theta_dim = std::max(theta_dim, upload.theta.size());
  arena.reset(uploads.size(), dim, theta_dim);
  for (std::size_t k = 0; k < uploads.size(); ++k) {
    const Upload& upload = uploads[k];
    const defenses::UpdateRow row = arena.row(k);
    std::copy(upload.psi.begin(), upload.psi.end(), row.psi.begin());
    std::copy(upload.theta.begin(), upload.theta.end(), row.theta.begin());
    row.meta->client_id = upload.client_id;
    row.meta->num_samples = upload.num_samples;
    row.meta->truly_malicious = upload.truly_malicious;
    row.meta->theta_count = upload.theta.size();
  }
}

/// The round's aggregation over `matrix` with S shards: slot s goes to shard
/// floor(s * S / count) (fl::Server's contiguous owner partition), one
/// partial per cohort (a cohort holding the whole arena reads it as the
/// identity view, as fl::Server does), then the root merge. `partials`
/// receives the shard partials.
inline void two_tier_aggregate(defenses::AggregationStrategy& strategy,
                               const defenses::AggregationContext& context,
                               const defenses::UpdateMatrix& matrix, std::size_t shards,
                               std::vector<defenses::ShardPartial>& partials,
                               defenses::AggregationResult& out) {
  std::vector<std::vector<std::size_t>> cohorts(shards);
  for (std::size_t slot = 0; slot < matrix.count(); ++slot) {
    cohorts[slot * shards / matrix.count()].push_back(slot);
  }
  partials.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    if (cohorts[s].empty()) {
      partials[s].clear();  // merged as a skipped (empty) shard
      continue;
    }
    const defenses::UpdateView view = cohorts[s].size() == matrix.count()
                                          ? defenses::UpdateView{matrix}
                                          : defenses::UpdateView{matrix, cohorts[s]};
    strategy.partial_aggregate_into(context, view, s, partials[s]);
  }
  strategy.merge_partials_into(context, partials, out);
}

inline void two_tier_aggregate(defenses::AggregationStrategy& strategy,
                               const defenses::AggregationContext& context,
                               const defenses::UpdateMatrix& matrix, std::size_t shards,
                               defenses::AggregationResult& out) {
  std::vector<defenses::ShardPartial> partials;
  two_tier_aggregate(strategy, context, matrix, shards, partials, out);
}

/// A single-tier round over `uploads`: one shard (S = 1), then the merge.
/// `partial`, when given, receives that shard's partial.
inline defenses::AggregationResult aggregate(defenses::AggregationStrategy& strategy,
                                             const defenses::AggregationContext& context,
                                             std::span<const Upload> uploads,
                                             defenses::ShardPartial* partial = nullptr) {
  defenses::UpdateMatrix arena;
  fill_arena(arena, uploads);
  std::vector<defenses::ShardPartial> partials;
  defenses::AggregationResult out;
  two_tier_aggregate(strategy, context, arena, 1, partials, out);
  if (partial != nullptr) *partial = partials.front();
  return out;
}

}  // namespace fedguard::strategy_path
