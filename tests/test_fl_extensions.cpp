// Tests of the FL simulator extensions: per-class accuracy tracking, the
// in-process fault plan, and FedProx wiring through the client config.

#include <gtest/gtest.h>

#include <numeric>

#include "core/config_file.hpp"
#include "core/runner.hpp"
#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "fl/server.hpp"
#include "util/logging.hpp"

namespace fedguard::fl {
namespace {

/// One FedAvg instance per shard.
defenses::StrategyFactory fedavg() {
  return [] { return std::make_unique<defenses::FedAvgAggregator>(); };
}

struct ExtensionFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(300, 501);
    test = data::generate_synthetic_mnist(120, 502);
    const data::Partition partition = data::iid_partition(train.size(), 6, 503);
    ClientConfig client_config;
    client_config.local_epochs = 1;
    client_config.batch_size = 16;
    client_config.train_cvae = false;
    models::CvaeSpec cvae;
    cvae.hidden = 32;
    cvae.latent = 2;
    for (std::size_t i = 0; i < 6; ++i) {
      clients.push_back(std::make_unique<Client>(
          static_cast<int>(i), train, partition[i], client_config,
          models::ClassifierArch::Mlp, geometry, cvae, 504 + i));
    }
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  std::vector<std::unique_ptr<Client>> clients;
};

TEST_F(ExtensionFixture, PerClassTrackingRecordsTenRecalls) {
  ServerConfig config;
  config.clients_per_round = 4;
  config.rounds = 2;
  config.seed = 505;
  config.track_per_class_accuracy = true;
  Server server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  const RoundRecord record = server.run_round(0);
  ASSERT_EQ(record.per_class_accuracy.size(), 10u);
  for (const double recall : record.per_class_accuracy) {
    EXPECT_GE(recall, 0.0);
    EXPECT_LE(recall, 1.0);
  }
  // Mean of per-class recalls should roughly track overall accuracy for a
  // near-balanced test set.
  double mean_recall = 0.0;
  for (const double recall : record.per_class_accuracy) mean_recall += recall / 10.0;
  EXPECT_NEAR(mean_recall, record.test_accuracy, 0.15);
}

TEST_F(ExtensionFixture, PerClassTrackingOffByDefault) {
  ServerConfig config;
  config.clients_per_round = 4;
  config.rounds = 1;
  config.seed = 506;
  Server server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  EXPECT_TRUE(server.run_round(0).per_class_accuracy.empty());
}

TEST_F(ExtensionFixture, DroppedClientsReduceTrafficAndParticipation) {
  ServerConfig config;
  config.clients_per_round = 6;
  config.rounds = 1;
  config.seed = 507;
  config.fault_plan.drop_probability = 0.5;
  config.fault_plan.seed = 507;
  Server server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry};

  // Across several rounds, some drops must occur, each recorded as the
  // timeout a shard would see, and traffic must scale with responders only.
  std::size_t total_stragglers = 0;
  for (std::size_t round = 0; round < 6; ++round) {
    const RoundRecord record = server.run_round(round);
    total_stragglers += record.stragglers;
    EXPECT_EQ(record.timeouts, record.stragglers) << "round " << round;
    const std::size_t responders = record.sampled_clients - record.stragglers;
    if (responders > 0) {
      EXPECT_EQ(record.server_upload_bytes % responders, 0u);
      EXPECT_GT(record.server_upload_bytes, 0u);
    } else {
      EXPECT_EQ(record.server_upload_bytes, 0u);
    }
  }
  EXPECT_GT(total_stragglers, 0u);
}

TEST_F(ExtensionFixture, AllDroppedLeaveModelUnchanged) {
  ServerConfig config;
  config.clients_per_round = 4;
  config.rounds = 1;
  config.seed = 508;
  config.fault_plan.drop_probability = 1.0;
  Server server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  const std::vector<float> before{server.global_parameters().begin(),
                                  server.global_parameters().end()};
  const RoundRecord record = server.run_round(0);
  EXPECT_EQ(record.stragglers, 4u);
  EXPECT_EQ(record.timeouts, 4u);
  const std::vector<float> after{server.global_parameters().begin(),
                                 server.global_parameters().end()};
  EXPECT_EQ(before, after);
  EXPECT_EQ(record.server_download_bytes, 0u);
}

TEST_F(ExtensionFixture, NeverConnectPlanFollowsTheAcceptRule) {
  ServerConfig config;
  config.clients_per_round = 6;
  config.rounds = 1;
  config.seed = 509;
  config.fault_plan.never_connect_probability = 0.5;
  config.fault_plan.seed = 509;
  const FaultInjector probe{config.fault_plan};
  std::size_t joined = 0;
  for (const auto& client : clients) {
    if (!probe.never_connects(client->id())) ++joined;
  }
  ASSERT_GT(joined, 0u) << "plan seed must leave someone connected";
  ASSERT_LT(joined, clients.size()) << "plan seed must keep someone away";

  // min_clients = 0 asks for all N, as a socket accept deadline would.
  EXPECT_THROW((Server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry}),
               std::runtime_error);
  config.min_clients = joined + 1;
  EXPECT_THROW((Server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry}),
               std::runtime_error);

  // Enough joined: rounds sample only from them.
  config.min_clients = joined;
  Server server{config, clients, fedavg(), test, models::ClassifierArch::Mlp, geometry};
  const RoundRecord record = server.run_round(0);
  EXPECT_EQ(record.sampled_clients, joined);
  EXPECT_EQ(record.stragglers, 0u);
}

}  // namespace
}  // namespace fedguard::fl

namespace fedguard::core {
namespace {

TEST(RunnerExtensions, FedProxThroughConfigConverges) {
  util::set_log_level(util::LogLevel::Warn);
  ExperimentConfig config = ExperimentConfig::small_scale();
  config.train_samples = 600;
  config.test_samples = 150;
  config.num_clients = 6;
  config.clients_per_round = 4;
  config.rounds = 5;
  config.strategy = StrategyKind::FedAvg;
  config.client.proximal_mu = 0.1f;
  const fl::RunHistory history = run_experiment(config);
  EXPECT_GT(history.rounds.back().test_accuracy, 0.6);
}

TEST(RunnerExtensions, DescriptorFaultPlanReachesTheServer) {
  util::set_log_level(util::LogLevel::Error);
  ExperimentConfig config = ExperimentConfig::small_scale();
  apply_config_values(config, {{"train_samples", "400"},
                               {"test_samples", "100"},
                               {"num_clients", "6"},
                               {"clients_per_round", "4"},
                               {"rounds", "3"},
                               {"strategy", "fedavg"},
                               {"fault_seed", "5"},
                               {"fault_drop_probability", "0.9"}});
  Federation federation = build_federation(config);
  const fl::RunHistory history = federation.run();
  ASSERT_EQ(history.rounds.size(), 3u);
  EXPECT_GT(history.total_timeouts(), 0u);
  for (const auto& round : history.rounds) {
    EXPECT_EQ(round.stragglers, round.timeouts) << "round " << round.round;
  }
}

TEST(RunnerExtensions, BulyanAndAuxAuditRunEndToEnd) {
  util::set_log_level(util::LogLevel::Warn);
  for (const auto kind : {StrategyKind::Bulyan, StrategyKind::AuxAudit}) {
    ExperimentConfig config = ExperimentConfig::small_scale();
    config.train_samples = 600;
    config.test_samples = 150;
    config.num_clients = 8;
    config.clients_per_round = 6;
    config.rounds = 5;
    config.strategy = kind;
    config.attack = attacks::AttackType::SameValue;
    config.malicious_fraction = 0.25;
    const fl::RunHistory history = run_experiment(config);
    EXPECT_GT(history.rounds.back().test_accuracy, 0.55) << to_string(kind);
  }
}

TEST(RunnerExtensions, FedGuardDefendsScalingAttack) {
  util::set_log_level(util::LogLevel::Warn);
  ExperimentConfig config = ExperimentConfig::small_scale();
  config.train_samples = 800;
  config.test_samples = 150;
  config.num_clients = 8;
  config.clients_per_round = 6;
  config.rounds = 6;
  config.strategy = StrategyKind::FedGuard;
  config.attack = attacks::AttackType::Scaling;
  config.scaling_boost = 10.0f;
  config.malicious_fraction = 0.25;
  const fl::RunHistory history = run_experiment(config);
  EXPECT_GT(history.trailing_accuracy(3).mean, 0.7);
  EXPECT_GT(history.true_positive_rate(), 0.5);
}

TEST(RunnerExtensions, FedAvgCollapsesUnderRandomUpdateAttack) {
  util::set_log_level(util::LogLevel::Warn);
  ExperimentConfig config = ExperimentConfig::small_scale();
  config.train_samples = 600;
  config.test_samples = 150;
  config.num_clients = 8;
  config.clients_per_round = 6;
  config.rounds = 5;
  config.strategy = StrategyKind::FedAvg;
  config.attack = attacks::AttackType::RandomUpdate;
  config.malicious_fraction = 0.5;
  const fl::RunHistory history = run_experiment(config);
  EXPECT_LT(history.trailing_accuracy(3).mean, 0.6);
}

TEST(RunnerExtensions, BalancedScoreMetricRuns) {
  util::set_log_level(util::LogLevel::Warn);
  ExperimentConfig config = ExperimentConfig::small_scale();
  config.train_samples = 800;
  config.test_samples = 150;
  config.num_clients = 8;
  config.clients_per_round = 6;
  config.rounds = 5;
  config.strategy = StrategyKind::FedGuard;
  config.fedguard_score_metric = defenses::FedGuardConfig::ScoreMetric::Balanced;
  config.attack = attacks::AttackType::LabelFlip;
  config.malicious_fraction = 0.3;
  const fl::RunHistory history = run_experiment(config);
  EXPECT_GT(history.trailing_accuracy(3).mean, 0.6);
}

TEST(RunnerExtensions, AuxAuditDefendsMajoritySameValue) {
  // The idealized PDGAN-style audit on real auxiliary data should match
  // FedGuard's behaviour on this attack (it is FedGuard's upper bound).
  util::set_log_level(util::LogLevel::Warn);
  ExperimentConfig config = ExperimentConfig::small_scale();
  config.train_samples = 800;
  config.test_samples = 150;
  config.num_clients = 8;
  config.clients_per_round = 6;
  config.rounds = 6;
  config.strategy = StrategyKind::AuxAudit;
  config.attack = attacks::AttackType::SameValue;
  config.malicious_fraction = 0.5;
  const fl::RunHistory history = run_experiment(config);
  EXPECT_GT(history.trailing_accuracy(3).mean, 0.7);
  EXPECT_GT(history.true_positive_rate(), 0.9);
}

}  // namespace
}  // namespace fedguard::core
