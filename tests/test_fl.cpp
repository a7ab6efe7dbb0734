#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <fstream>
#include <cstdio>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "fl/client.hpp"
#include "fl/metrics.hpp"
#include "fl/server.hpp"
#include "attacks/label_flip.hpp"
#include "nn/parameter_vector.hpp"

namespace fedguard::fl {
namespace {

models::CvaeSpec small_cvae() {
  models::CvaeSpec spec;
  spec.hidden = 48;
  spec.latent = 6;
  return spec;
}

ClientConfig fast_client_config(bool train_cvae) {
  ClientConfig config;
  config.local_epochs = 1;
  config.batch_size = 16;
  config.learning_rate = 0.05f;
  config.cvae_epochs = 2;
  config.cvae_batch_size = 16;
  config.train_cvae = train_cvae;
  return config;
}

/// One round of `client` the way fl::Server runs it: into an arena row whose
/// θ plane fits the CVAE decoder.
defenses::UpdateMatrix client_round(Client& client, std::span<const float> global,
                                    std::size_t round) {
  defenses::UpdateMatrix arena;
  arena.reset(1, global.size(), models::CvaeDecoder{small_cvae(), 0}.parameter_count());
  client.run_round_into(global, round, arena.row(0));
  return arena;
}

std::vector<float> to_vector(std::span<const float> values) {
  return {values.begin(), values.end()};
}

struct FlFixture : ::testing::Test {
  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    dataset = data::generate_synthetic_mnist(200, 81);
    indices.resize(60);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
  }

  models::ImageGeometry geometry;
  data::Dataset dataset;
  std::vector<std::size_t> indices;
};

TEST_F(FlFixture, ClientUpdateHasExpectedShape) {
  Client client{0, dataset, indices, fast_client_config(true),
                models::ClassifierArch::Mlp, geometry, small_cvae(), 82};
  models::Classifier reference{models::ClassifierArch::Mlp, geometry, 83};
  const std::vector<float> global = reference.parameters_flat();

  const defenses::UpdateMatrix update = client_round(client, global, 0);
  EXPECT_EQ(update.meta(0).client_id, 0);
  EXPECT_EQ(update.meta(0).num_samples, 60u);
  EXPECT_FALSE(update.meta(0).truly_malicious);
  EXPECT_EQ(update.meta(0).theta_count, update.theta_dim());
  EXPECT_EQ(to_vector(update.theta(0)), to_vector(client.decoder_parameters()));
  EXPECT_TRUE(client.cvae_trained());
  // Local training must actually move the parameters.
  EXPECT_NE(to_vector(update.psi(0)), global);
}

TEST_F(FlFixture, CvaeTrainedOnlyOnce) {
  Client client{0, dataset, indices, fast_client_config(true),
                models::ClassifierArch::Mlp, geometry, small_cvae(), 84};
  models::Classifier reference{models::ClassifierArch::Mlp, geometry, 85};
  const std::vector<float> global = reference.parameters_flat();
  const defenses::UpdateMatrix first = client_round(client, global, 0);
  const defenses::UpdateMatrix second = client_round(client, global, 1);
  // Static partition -> same decoder parameters both rounds (footnote 5).
  EXPECT_EQ(to_vector(first.theta(0)), to_vector(second.theta(0)));
}

TEST_F(FlFixture, CvaeSkippedWhenDisabled) {
  Client client{0, dataset, indices, fast_client_config(false),
                models::ClassifierArch::Mlp, geometry, small_cvae(), 86};
  models::Classifier reference{models::ClassifierArch::Mlp, geometry, 87};
  const defenses::UpdateMatrix update = client_round(client, reference.parameters_flat(), 0);
  EXPECT_EQ(update.meta(0).theta_count, 0u);
  EXPECT_FALSE(client.cvae_trained());
}

TEST_F(FlFixture, ModelAttackAppliedToUpload) {
  Client client{0, dataset, indices, fast_client_config(false),
                models::ClassifierArch::Mlp, geometry, small_cvae(), 88};
  const attacks::SameValueAttack attack{1.0f};
  client.corrupt_with_model_attack(&attack);
  EXPECT_TRUE(client.malicious());

  models::Classifier reference{models::ClassifierArch::Mlp, geometry, 89};
  const defenses::UpdateMatrix update = client_round(client, reference.parameters_flat(), 0);
  EXPECT_TRUE(update.meta(0).truly_malicious);
  for (const float v : update.psi(0)) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST_F(FlFixture, LabelFlipCorruptsLocalData) {
  Client client{0, dataset, indices, fast_client_config(false),
                models::ClassifierArch::Mlp, geometry, small_cvae(), 90};
  const auto before = client.local_data().class_histogram();
  client.corrupt_with_label_flip(attacks::default_flip_pairs());
  EXPECT_TRUE(client.malicious());
  const auto after = client.local_data().class_histogram();
  EXPECT_EQ(after[5], before[7]);
  EXPECT_EQ(after[7], before[5]);
  EXPECT_EQ(after[4], before[2]);
  EXPECT_EQ(after[2], before[4]);
}

// ---- Server ------------------------------------------------------------------

struct ServerFixture : ::testing::Test {
  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(300, 91);
    test = data::generate_synthetic_mnist(100, 92);
    const data::Partition partition = data::iid_partition(train.size(), 6, 93);
    for (std::size_t i = 0; i < 6; ++i) {
      clients.push_back(std::make_unique<Client>(
          static_cast<int>(i), train, partition[i], fast_client_config(false),
          models::ClassifierArch::Mlp, geometry, small_cvae(), 94 + i));
    }
  }

  ServerConfig server_config(std::size_t m, std::size_t rounds, float lr = 1.0f) const {
    ServerConfig config;
    config.clients_per_round = m;
    config.rounds = rounds;
    config.server_learning_rate = lr;
    config.seed = 95;
    return config;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  std::vector<std::unique_ptr<Client>> clients;
};

TEST_F(ServerFixture, RoundRecordsTrafficAndSampling) {
  defenses::FedAvgAggregator strategy;
  Server server{server_config(4, 1), clients, strategy, test,
                models::ClassifierArch::Mlp, geometry};
  const RoundRecord record = server.run_round(0);
  EXPECT_EQ(record.sampled_clients, 4u);
  const std::size_t psi_wire =
      nn::parameter_wire_bytes(server.global_parameters().size());
  EXPECT_EQ(record.server_upload_bytes, 4 * psi_wire);
  // FedAvg never requests decoders: symmetric traffic.
  EXPECT_EQ(record.server_download_bytes, record.server_upload_bytes);
  EXPECT_GE(record.test_accuracy, 0.0);
  EXPECT_LE(record.test_accuracy, 1.0);
  EXPECT_GT(record.round_seconds, 0.0);
}

TEST_F(ServerFixture, TrainingImprovesAccuracy) {
  defenses::FedAvgAggregator strategy;
  Server server{server_config(6, 8), clients, strategy, test,
                models::ClassifierArch::Mlp, geometry};
  const double before = server.evaluate_global();
  const RunHistory history = server.run();
  EXPECT_EQ(history.rounds.size(), 8u);
  EXPECT_GT(history.rounds.back().test_accuracy, before + 0.3)
      << "federated training should lift accuracy well above the random init";
}

TEST_F(ServerFixture, ServerLearningRateDampensUpdate) {
  // η = 0: the global model must not move.
  defenses::FedAvgAggregator strategy;
  Server server{server_config(4, 1, 0.0f), clients, strategy, test,
                models::ClassifierArch::Mlp, geometry};
  const std::vector<float> before{server.global_parameters().begin(),
                                  server.global_parameters().end()};
  (void)server.run_round(0);
  const std::vector<float> after{server.global_parameters().begin(),
                                 server.global_parameters().end()};
  EXPECT_EQ(before, after);
}

TEST_F(ServerFixture, PartialServerLearningRateInterpolates) {
  defenses::FedAvgAggregator strategy_full;
  defenses::FedAvgAggregator strategy_half;
  Server full{server_config(4, 1, 1.0f), clients, strategy_full, test,
              models::ClassifierArch::Mlp, geometry};
  Server half{server_config(4, 1, 0.5f), clients, strategy_half, test,
              models::ClassifierArch::Mlp, geometry};
  const std::vector<float> init{full.global_parameters().begin(),
                                full.global_parameters().end()};
  (void)full.run_round(0);
  (void)half.run_round(0);
  // Same seed -> same sampled clients; with stochastic local shuffles the
  // updates differ slightly, so compare displacement magnitudes instead.
  double full_move = 0.0, half_move = 0.0;
  for (std::size_t i = 0; i < init.size(); ++i) {
    full_move += std::abs(full.global_parameters()[i] - init[i]);
    half_move += std::abs(half.global_parameters()[i] - init[i]);
  }
  EXPECT_LT(half_move, full_move);
  EXPECT_GT(half_move, 0.0);
}

TEST_F(ServerFixture, InvalidConfigRejected) {
  defenses::FedAvgAggregator strategy;
  EXPECT_THROW((Server{server_config(0, 1), clients, strategy, test,
                       models::ClassifierArch::Mlp, geometry}),
               std::invalid_argument);
  EXPECT_THROW((Server{server_config(7, 1), clients, strategy, test,
                       models::ClassifierArch::Mlp, geometry}),
               std::invalid_argument);
}

// ---- Metrics -------------------------------------------------------------------

TEST(RunHistory, SeriesAndRates) {
  RunHistory history;
  history.strategy = "fedavg";
  for (int r = 0; r < 5; ++r) {
    RoundRecord record;
    record.round = static_cast<std::size_t>(r);
    record.test_accuracy = 0.2 * (r + 1);
    record.sampled_clients = 10;
    record.sampled_malicious = 4;
    record.rejected_malicious = 3;
    record.rejected_benign = 1;
    record.rejected_clients = 4;
    history.rounds.push_back(record);
  }
  EXPECT_EQ(history.accuracy_series().size(), 5u);
  EXPECT_NEAR(history.trailing_accuracy(2).mean, 0.9, 1e-9);
  EXPECT_NEAR(history.true_positive_rate(), 15.0 / 20.0, 1e-9);
  EXPECT_NEAR(history.false_positive_rate(), 5.0 / 30.0, 1e-9);
}

TEST(RunHistory, CsvRoundTripHasHeaderAndRows) {
  RunHistory history;
  history.strategy = "fedavg";
  history.attack = "none";
  RoundRecord record;
  record.round = 0;
  record.test_accuracy = 0.5;
  history.rounds.push_back(record);
  const std::string path = "/tmp/fedguard_history_test.csv";
  history.write_csv(path);
  std::ifstream file{path};
  std::string line;
  std::size_t lines = 0;
  while (std::getline(file, line)) ++lines;
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedguard::fl
