#pragma once
// In-process federated server: the round engine's transport over a pool of
// fl::Client objects. Each sampled client runs its work item concurrently on
// the pool (one process per client on the paper's testbed), writing its
// update straight into the round's UpdateMatrix arena; the partials are
// partial_aggregate_into over per-shard cohorts of that arena, cohort s
// through the engine's strategy instance s, as socket shard s does.
//
// Faults: the server plays the seeded FaultPlan the way socket clients act
// it out (net::run_remote_client) and files each failure as a shard would
// see it, so one plan gives the same round records on both transports
// (docs/ROBUSTNESS.md). The plan is a pure function of (seed, client,
// round), so it draws nothing from the round rng.
//
// Traffic accounting (Table V): every round the server uploads ψ0 to each
// responding client and downloads their ψ (plus θ when the strategy requests
// decoders), charged at serialized wire size.

#include <memory>
#include <vector>

#include "fl/client.hpp"
#include "fl/fault_plan.hpp"
#include "fl/round_engine.hpp"
#include "obs/metrics.hpp"

namespace fedguard::fl {

struct ServerConfig : RoundConfig {
  /// Seeded faults for the sampled clients (default: none).
  FaultPlan fault_plan;
};

class Server final : public RoundEngine {
 public:
  /// `clients` and `test_set` must outlive the server; `strategy_factory` is
  /// called once per shard, here.
  Server(ServerConfig config, std::vector<std::unique_ptr<Client>>& clients,
         const defenses::StrategyFactory& strategy_factory, const data::Dataset& test_set,
         models::ClassifierArch arch, models::ImageGeometry geometry);

 private:
  void collect(std::size_t round, std::span<const std::size_t> sampled,
               std::span<const float> psi0, Collection& out) override;
  std::span<const defenses::ShardPartial> partials(std::size_t round,
                                                   std::span<const float> psi0) override;

  RoundConfig config_;
  std::vector<std::unique_ptr<Client>>& clients_;
  FaultInjector faults_;
  // Round-persistent scratch: the arena and index buffers keep their
  // capacity across rounds, so a steady-state round allocates nothing here.
  defenses::UpdateMatrix arena_;
  std::vector<std::size_t> trainers_;    // arena row k = client trainers_[k]
  std::vector<std::size_t> responders_;  // arena rows whose reply arrives intact
  std::vector<std::vector<std::size_t>> cohort_rows_;  // responder rows per shard
  std::vector<defenses::ShardPartial> partials_;
  obs::Gauge arena_capacity_bytes_;
};

}  // namespace fedguard::fl
