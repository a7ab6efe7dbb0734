#include "fl/server.hpp"

#include "nn/parameter_vector.hpp"
#include "parallel/thread_pool.hpp"

namespace fedguard::fl {

Server::Server(ServerConfig config, std::vector<std::unique_ptr<Client>>& clients,
               const defenses::StrategyFactory& strategy_factory,
               const data::Dataset& test_set, models::ClassifierArch arch,
               models::ImageGeometry geometry)
    : RoundEngine{config, strategy_factory, clients.size(), test_set, arch, geometry},
      config_{config},
      clients_{clients},
      faults_{config.fault_plan},
      arena_capacity_bytes_{obs::Registry::global().gauge("obs_arena_capacity_bytes")} {
  // Never-connectors sit the federation out; everyone else joins at once.
  std::vector<std::size_t> joined;
  for (std::size_t id = 0; id < clients_.size(); ++id) {
    if (!faults_.never_connects(clients_[id]->id())) joined.push_back(id);
  }
  admit(std::move(joined));
}

void Server::collect(std::size_t round, std::span<const std::size_t> sampled,
                     std::span<const float> psi0, Collection& out) {
  // Each sampled client meets its planned fault as a socket client would:
  // a drop never trains; a spoiled reply is trained first, then lost.
  trainers_.clear();
  responders_.clear();
  for (const std::size_t id : sampled) {
    switch (faults_.decide(clients_[id]->id(), round)) {
      case FaultKind::Drop:
        out.failures.push_back({id, FailureKind::Timeout});
        continue;
      case FaultKind::Truncate:
      case FaultKind::BitFlip:
        out.failures.push_back({id, FailureKind::Corrupt});
        break;
      case FaultKind::Disconnect:
        out.failures.push_back({id, FailureKind::Dropout});
        break;
      case FaultKind::None:
      case FaultKind::Delay:  // still makes the deadline
      case FaultKind::NeverConnect:  // never sampled: not in the universe
        responders_.push_back(trainers_.size());
        break;
    }
    trainers_.push_back(id);
  }
  if (trainers_.empty()) return;

  // Client work items run concurrently on the pool, each writing its
  // assigned arena row in place.
  arena_.reset(trainers_.size(), psi0.size(), theta_dim());
  arena_capacity_bytes_.set(static_cast<std::int64_t>(arena_.capacity_bytes()));
  parallel::parallel_for(parallel::global_pool(), 0, trainers_.size(), [&](std::size_t k) {
    const defenses::UpdateRow row = arena_.row(k);
    clients_[trainers_[k]]->run_round_into(psi0, round, row);
    // Simulate the lossy ψ upload: the roundtrip helper shares its
    // arithmetic with write_q8_span / read_q8_into, so the aggregation sees
    // bit-identical updates to the socket deployment's. Fp32 is a no-op.
    util::quantize_roundtrip(config_.psi_codec, row.psi, config_.psi_chunk);
  });

  // The ψ0 broadcast always travels fp32; the ψ uploads are charged at
  // their codec's wire size.
  out.upload_bytes = responders_.size() * nn::parameter_wire_bytes(psi0.size());
  out.download_bytes = responders_.size() * util::codec_span_wire_size(config_.psi_codec,
                                                                       psi0.size(),
                                                                       config_.psi_chunk);
  if (wants_decoders()) {
    for (const std::size_t k : responders_) {
      out.download_bytes += nn::parameter_wire_bytes(arena_.meta(k).theta_count);
    }
  }
}

std::span<const defenses::ShardPartial> Server::partials(std::size_t round,
                                                         std::span<const float> psi0) {
  // Cohorts by owner shard (floor(c*S/N), net::HierarchicalServer's
  // partition), keeping sample order within each cohort.
  cohort_rows_.resize(config_.shards);
  for (auto& cohort : cohort_rows_) cohort.clear();
  for (const std::size_t k : responders_) cohort_rows_[shard_of(trainers_[k])].push_back(k);
  defenses::AggregationContext context;
  context.round = round;
  context.global_parameters = psi0;
  partials_.resize(config_.shards);
  for (std::size_t shard = 0; shard < config_.shards; ++shard) {
    const std::vector<std::size_t>& rows = cohort_rows_[shard];
    if (rows.empty()) {
      partials_[shard].clear();  // merged as a skipped (empty) shard
      continue;
    }
    // A cohort holding the whole arena reads it as the identity view.
    const defenses::UpdateView cohort = rows.size() == arena_.count()
                                            ? defenses::UpdateView{arena_}
                                            : defenses::UpdateView{arena_, rows};
    shard_strategy(shard).partial_aggregate_into(context, cohort, shard, partials_[shard]);
  }
  return partials_;
}

}  // namespace fedguard::fl
