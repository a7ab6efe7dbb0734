#pragma once
// In-process federated server: the round engine's transport over a pool of
// fl::Client objects. Each sampled client runs its work item concurrently on
// the pool (one process per client on the paper's testbed), writing its
// update straight into the round's UpdateMatrix arena; the partials are
// partial_aggregate_into over per-shard cohorts of that arena.
//
// Traffic accounting (Table V): every round the server uploads ψ0 to each
// responding client and downloads their ψ (plus θ when the strategy requests
// decoders), charged at serialized wire size.

#include <functional>
#include <memory>
#include <vector>

#include "fl/client.hpp"
#include "fl/round_engine.hpp"
#include "obs/metrics.hpp"

namespace fedguard::fl {

struct ServerConfig : RoundConfig {
  /// Probability that a sampled client fails to respond in a round
  /// (straggler / dropout simulation). Its traffic is not charged.
  double straggler_probability = 0.0;
  /// Deterministic straggler test hook: when set, (client_index, round) ->
  /// "fails this round" replaces the probabilistic draw — and consumes no
  /// server rng — so a remote fault plan can be replayed in-process with
  /// identical sampling sequences and responder sets.
  std::function<bool(std::size_t, std::size_t)> straggler_predicate;
};

class Server final : public RoundEngine {
 public:
  /// `clients`, `strategy` and `test_set` must outlive the server.
  Server(ServerConfig config, std::vector<std::unique_ptr<Client>>& clients,
         defenses::AggregationStrategy& strategy, const data::Dataset& test_set,
         models::ClassifierArch arch, models::ImageGeometry geometry);

 private:
  void collect(std::size_t round, std::span<const std::size_t> sampled,
               std::span<const float> psi0, Collection& out) override;
  std::span<const defenses::ShardPartial> partials(std::size_t round,
                                                   std::span<const float> psi0) override;

  ServerConfig config_;
  std::vector<std::unique_ptr<Client>>& clients_;
  // Round-persistent scratch: the arena and index buffers keep their
  // capacity across rounds, so a steady-state round allocates nothing here.
  defenses::UpdateMatrix arena_;
  std::vector<std::size_t> responders_;                // arena row k = client responders_[k]
  std::vector<std::vector<std::size_t>> cohort_rows_;  // arena rows per shard
  std::vector<defenses::ShardPartial> partials_;
  obs::Gauge arena_capacity_bytes_;
};

}  // namespace fedguard::fl
