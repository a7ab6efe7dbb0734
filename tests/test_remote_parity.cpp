// Parity between the in-process simulator and the TCP deployment (a
// HierarchicalServer with S shards, single-tier being S = 1): with the same
// strategy, data, shard count and fault plan, both paths produce the same
// round records and the same model (the socket layer must not change the
// science).

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <utility>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/auxiliary_audit.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedcpa.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/krum.hpp"
#include "defenses/spectral.hpp"
#include "fl/fault_plan.hpp"
#include "fl/server.hpp"
#include "net/remote.hpp"
#include "net/shard.hpp"
#include "util/logging.hpp"

namespace fedguard {
namespace {

struct ParityFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(320, 801);
    test = data::generate_synthetic_mnist(100, 802);
    auxiliary = data::generate_synthetic_mnist(200, 804);
  }

  fl::ClientConfig client_config(bool with_cvae) const {
    fl::ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = with_cvae;
    config.cvae_epochs = 2;
    return config;
  }

  models::CvaeSpec cvae_spec() const {
    models::CvaeSpec spec;
    spec.hidden = 32;
    spec.latent = 2;
    return spec;
  }

  std::vector<std::unique_ptr<fl::Client>> make_clients(std::uint64_t seed_base,
                                                        std::size_t count = 4,
                                                        bool with_cvae = false) const {
    const data::Partition partition = data::iid_partition(train.size(), count, 803);
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < count; ++i) {
      clients.push_back(std::make_unique<fl::Client>(
          static_cast<int>(i), train, partition[i], client_config(with_cvae),
          models::ClassifierArch::Mlp, geometry, cvae_spec(), seed_base + i));
    }
    return clients;
  }

  /// A single-tier FedAvg socket server; clients connect to port().
  std::unique_ptr<net::HierarchicalServer> make_remote(
      const net::HierarchicalServerConfig& config) const {
    return std::make_unique<net::HierarchicalServer>(
        config, [] { return std::make_unique<defenses::FedAvgAggregator>(); }, test,
        models::ClassifierArch::Mlp, geometry);
  }

  /// One federation run on both transports from `clients` identically built
  /// clients and round.shards shards: in process with `plan` in
  /// fl::ServerConfig, and over loopback with every socket client dialing its
  /// owner shard and acting `plan` out.
  struct Twin {
    fl::RunHistory local;
    fl::RunHistory remote;
    std::vector<float> local_params;
    std::vector<float> remote_params;
    std::array<std::size_t, fl::kFaultKindCount> injected{};
  };
  Twin run_twin(const fl::RoundConfig& round, std::uint64_t client_seed,
                const fl::FaultPlan& plan = {},
                const defenses::StrategyFactory& factory =
                    [] { return std::make_unique<defenses::FedAvgAggregator>(); },
                std::size_t clients = 4) const {
    Twin out;
    const bool with_cvae = factory()->wants_decoders();
    auto local_clients = make_clients(client_seed, clients, with_cvae);
    fl::ServerConfig local_config;
    static_cast<fl::RoundConfig&>(local_config) = round;
    local_config.fault_plan = plan;
    fl::Server local_server{local_config, local_clients, factory, test,
                            models::ClassifierArch::Mlp, geometry};
    out.local = local_server.run();
    out.local_params.assign(local_server.global_parameters().begin(),
                            local_server.global_parameters().end());

    auto remote_clients = make_clients(client_seed, clients, with_cvae);
    net::HierarchicalServerConfig remote_config;
    static_cast<fl::RoundConfig&>(remote_config) = round;
    remote_config.expected_clients = clients;
    remote_config.round_timeout_ms = 1500;  // what a drop costs
    remote_config.accept_timeout_ms = plan.never_connect_probability > 0.0 ? 500 : 10000;
    net::HierarchicalServer remote_server{remote_config, factory, test,
                                          models::ClassifierArch::Mlp, geometry};
    fl::FaultInjector injector{plan};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < clients; ++i) {
      const std::uint16_t port = remote_server.shard_port(remote_server.shard_of(i));
      threads.emplace_back([&, i, port] {
        net::RemoteClientOptions options;
        options.faults = &injector;
        options.reconnect_attempts = 6;  // repeated truncate/disconnect rejoins
        options.backoff_ms = 10;
        (void)net::run_remote_client("127.0.0.1", port, *remote_clients[i], options);
      });
    }
    out.remote = remote_server.run();
    for (auto& thread : threads) thread.join();
    out.remote_params.assign(remote_server.global_parameters().begin(),
                             remote_server.global_parameters().end());
    for (std::size_t k = 0; k < fl::kFaultKindCount; ++k) {
      out.injected[k] = injector.injected(static_cast<fl::FaultKind>(k));
    }
    return out;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  data::Dataset auxiliary;
};

/// Every RoundRecord field but the byte counts and round_seconds is equal
/// across the transports, every failure has a class, and the final models
/// are bitwise equal.
void expect_same_run(const ParityFixture::Twin& twin) {
  ASSERT_EQ(twin.local.rounds.size(), twin.remote.rounds.size());
  for (std::size_t r = 0; r < twin.local.rounds.size(); ++r) {
    const fl::RoundRecord& x = twin.local.rounds[r];
    const fl::RoundRecord& y = twin.remote.rounds[r];
    for (const fl::RoundRecord* record : {&x, &y}) {
      EXPECT_EQ(record->stragglers,
                record->dropouts + record->timeouts + record->corrupt_frames)
          << "round " << r;
    }
    EXPECT_EQ(x.round, y.round) << "round " << r;
    EXPECT_EQ(x.test_accuracy, y.test_accuracy) << "round " << r;
    EXPECT_EQ(x.per_class_accuracy, y.per_class_accuracy) << "round " << r;
    EXPECT_EQ(x.sampled_clients, y.sampled_clients) << "round " << r;
    EXPECT_EQ(x.sampled_malicious, y.sampled_malicious) << "round " << r;
    EXPECT_EQ(x.stragglers, y.stragglers) << "round " << r;
    EXPECT_EQ(x.dropouts, y.dropouts) << "round " << r;
    EXPECT_EQ(x.timeouts, y.timeouts) << "round " << r;
    EXPECT_EQ(x.corrupt_frames, y.corrupt_frames) << "round " << r;
    EXPECT_EQ(x.ejected_clients, y.ejected_clients) << "round " << r;
    EXPECT_EQ(x.rejected_clients, y.rejected_clients) << "round " << r;
    EXPECT_EQ(x.rejected_malicious, y.rejected_malicious) << "round " << r;
    EXPECT_EQ(x.rejected_benign, y.rejected_benign) << "round " << r;
  }
  ASSERT_EQ(twin.local_params.size(), twin.remote_params.size());
  for (std::size_t i = 0; i < twin.local_params.size(); ++i) {
    ASSERT_EQ(twin.local_params[i], twin.remote_params[i]) << "parameter " << i;
  }
}

TEST_F(ParityFixture, FaultFreeRemoteMatchesLocalBitForBit) {
  // The socket layer must not change the science: with faults disabled, the
  // TCP path and the in-process path are the same computation, so every
  // round record and the final parameter vector agree exactly, not
  // approximately — whether m < N exercises the sampling path or m = N
  // takes every client every round.
  struct Case {
    std::size_t clients_per_round;
    std::size_t rounds;
    std::uint64_t client_seed;
    std::uint64_t server_seed;
  };
  for (const Case& c : {Case{2, 3, 830, 831}, Case{4, 4, 810, 811}}) {
    SCOPED_TRACE("m = " + std::to_string(c.clients_per_round));
    fl::RoundConfig round;
    round.clients_per_round = c.clients_per_round;
    round.rounds = c.rounds;
    round.seed = c.server_seed;
    const Twin twin = run_twin(round, c.client_seed);
    expect_same_run(twin);
    EXPECT_EQ(twin.remote.total_timeouts() + twin.remote.total_dropouts() +
                  twin.remote.total_corrupt_frames(),
              0u);
    EXPECT_GT(twin.remote.rounds.back().test_accuracy, 0.5);
  }
}

TEST_F(ParityFixture, FaultPlanGivesTheSameRecordsOnBothTransports) {
  // One seeded plan means the same thing on either transport: fl::Server
  // plays it the way socket clients act it out, so responders, failure
  // classes, ejections, accuracies and the final model all agree.
  struct PlanCase {
    const char* label;
    fl::FaultPlan plan;
    bool krum = false;
    std::size_t rounds = 3;
    std::size_t eject_after_failures = 0;
  };
  const auto plan = [](std::uint64_t seed) {
    fl::FaultPlan p;
    p.seed = seed;
    return p;
  };
  std::vector<PlanCase> cases;
  cases.push_back({"drop", plan(840)});
  cases.back().plan.drop_probability = 0.3;
  cases.push_back({"delay", plan(921)});
  cases.back().plan.delay_probability = 0.4;
  cases.back().plan.delay_ms = 30;
  cases.push_back({"truncate", plan(922)});
  cases.back().plan.truncate_probability = 0.3;
  cases.push_back({"bit-flip", plan(923)});
  cases.back().plan.bit_flip_probability = 0.3;
  cases.push_back({"disconnect", plan(924)});
  cases.back().plan.disconnect_probability = 0.3;
  cases.push_back({"never-connect", plan(915)});
  cases.back().plan.never_connect_probability = 0.45;
  fl::FaultPlan mixed = plan(950);
  mixed.drop_probability = 0.15;
  mixed.delay_probability = 0.1;
  mixed.truncate_probability = 0.15;
  mixed.bit_flip_probability = 0.15;
  mixed.disconnect_probability = 0.1;
  cases.push_back({"mixed fedavg", mixed, false, 4});
  cases.push_back({"mixed krum", mixed, true, 4});
  // Two consecutive drops eject: seed 2 ejects clients two rounds apart and
  // leaves two in the universe.
  cases.push_back({"drop, eject after 2", plan(2), false, 5, 2});
  cases.back().plan.drop_probability = 0.6;

  for (const PlanCase& c : cases) {
    SCOPED_TRACE(c.label);
    fl::RoundConfig round;
    round.clients_per_round = 3;
    round.rounds = c.rounds;
    round.seed = 842;
    round.min_clients = 1;
    round.eject_after_failures = c.eject_after_failures;
    const Twin twin =
        c.krum ? run_twin(round, 841, c.plan,
                          [] { return std::make_unique<defenses::KrumAggregator>(0.25, 2); })
               : run_twin(round, 841, c.plan);
    expect_same_run(twin);
    // Every plan must actually fire, or the case proves nothing.
    std::size_t injected = 0;
    for (std::size_t k = 1; k < fl::kFaultKindCount; ++k) injected += twin.injected[k];
    EXPECT_GT(injected, 0u);
    if (c.eject_after_failures > 0) {
      EXPECT_GT(twin.remote.total_ejected(), 0u) << "plan seed must eject someone";
    }
  }
}

TEST_F(ParityFixture, ShardedRemoteMatchesLocalForEveryStrategy) {
  // Shard s aggregates with the engine's instance s on both transports, so a
  // strategy that draws from its own rng on every call (FedGuard's D_syn)
  // makes the same draws at every S. N = m = 6 gives every cohort at least
  // two rows at S = 3: the mean cut keeps a lone row whatever its score.
  defenses::FedGuardConfig fedguard;
  fedguard.cvae_spec = cvae_spec();
  fedguard.total_samples = 40;
  defenses::SpectralConfig spectral;
  spectral.surrogate_dim = 512;
  spectral.pretrain_rounds = 2;
  spectral.pretrain_clients = 4;
  spectral.vae_epochs = 10;
  const std::vector<std::pair<std::string, defenses::StrategyFactory>> strategies = {
      {"fedavg", [] { return std::make_unique<defenses::FedAvgAggregator>(); }},
      {"krum", [] { return std::make_unique<defenses::KrumAggregator>(0.25, 1); }},
      {"fedcpa", [] { return std::make_unique<defenses::FedCpaAggregator>(); }},
      {"aux_audit",
       [&] {
         return std::make_unique<defenses::AuxiliaryAuditAggregator>(
             models::ClassifierArch::Mlp, geometry, auxiliary, 0);
       }},
      {"spectral",
       [&] {
         return std::make_unique<defenses::SpectralAggregator>(
             spectral, models::ClassifierArch::Mlp, geometry, auxiliary, 862);
       }},
      {"fedguard",
       [&] {
         return std::make_unique<defenses::FedGuardAggregator>(
             fedguard, models::ClassifierArch::Mlp, geometry, 863);
       }},
  };
  for (const auto& [name, factory] : strategies) {
    for (const std::size_t shards : {2u, 3u}) {
      SCOPED_TRACE(name + " at S = " + std::to_string(shards));
      fl::RoundConfig round;
      round.clients_per_round = 6;
      round.rounds = 3;
      round.seed = 864;
      round.shards = shards;
      expect_same_run(run_twin(round, 865, {}, factory, 6));
    }
  }
}

TEST_F(ParityFixture, EachTransportCallsTheFactoryOncePerShard) {
  std::size_t calls = 0;
  const defenses::StrategyFactory counting = [&calls] {
    ++calls;
    return std::make_unique<defenses::FedAvgAggregator>();
  };
  auto clients = make_clients(866);
  for (const std::size_t shards : {1u, 2u, 3u}) {
    SCOPED_TRACE("S = " + std::to_string(shards));
    fl::ServerConfig local_config;
    local_config.clients_per_round = 4;
    local_config.shards = shards;
    calls = 0;
    const fl::Server local{local_config, clients, counting, test, models::ClassifierArch::Mlp,
                           geometry};
    EXPECT_EQ(calls, shards);

    net::HierarchicalServerConfig remote_config;
    remote_config.expected_clients = 4;
    remote_config.clients_per_round = 4;
    remote_config.shards = shards;
    calls = 0;
    const net::HierarchicalServer remote{remote_config, counting, test,
                                         models::ClassifierArch::Mlp, geometry};
    EXPECT_EQ(calls, shards);
  }
  fl::ServerConfig config;
  config.clients_per_round = 4;
  EXPECT_THROW((fl::Server{config, clients,
                           [] { return std::unique_ptr<defenses::AggregationStrategy>{}; },
                           test, models::ClassifierArch::Mlp, geometry}),
               std::invalid_argument);
}

TEST_F(ParityFixture, RemoteUploadTrafficMatchesFrameArithmetic) {
  auto clients = make_clients(820);
  net::HierarchicalServerConfig config;
  config.expected_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 1;
  config.seed = 821;
  const auto server = make_remote(config);
  const std::uint16_t port = server->shard_port(0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { (void)net::run_remote_client("127.0.0.1", port, *clients[i]); });
  }
  const fl::RunHistory history = server->run();
  for (auto& thread : threads) thread.join();

  // Download = 2 clients x exact RoundReply frame size (ψ only, no θ).
  models::Classifier reference{models::ClassifierArch::Mlp, geometry, 822};
  const std::size_t expected =
      2 * net::client_update_frame_bytes(reference.parameter_count(), 0);
  EXPECT_EQ(history.rounds[0].server_download_bytes, expected);
}

}  // namespace
}  // namespace fedguard
