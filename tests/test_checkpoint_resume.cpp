// Server checkpoint/resume tests.

#include <gtest/gtest.h>

#include <cstdio>

#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "defenses/fedavg.hpp"
#include "fl/server.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace fedguard::fl {
namespace {

/// One FedAvg instance per shard.
defenses::StrategyFactory fedavg() {
  return [] { return std::make_unique<defenses::FedAvgAggregator>(); };
}

struct ResumeFixture : ::testing::Test {
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }

  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    train = data::generate_synthetic_mnist(240, 701);
    test = data::generate_synthetic_mnist(80, 702);
    const data::Partition partition = data::iid_partition(train.size(), 4, 703);
    ClientConfig config;
    config.local_epochs = 1;
    config.batch_size = 16;
    config.train_cvae = false;
    models::CvaeSpec cvae;
    cvae.hidden = 32;
    cvae.latent = 2;
    for (std::size_t i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<Client>(
          static_cast<int>(i), train, partition[i], config, models::ClassifierArch::Mlp,
          geometry, cvae, 704 + i));
    }
  }

  ServerConfig server_config() const {
    ServerConfig config;
    config.clients_per_round = 4;
    config.rounds = 2;
    config.seed = 705;
    return config;
  }

  models::ImageGeometry geometry;
  data::Dataset train;
  data::Dataset test;
  std::vector<std::unique_ptr<Client>> clients;
};

TEST_F(ResumeFixture, SaveLoadGlobalRoundTrip) {
  const std::string path = "/tmp/fedguard_global_test.bin";
  Server trained{server_config(), clients, fedavg(), test, models::ClassifierArch::Mlp,
                 geometry};
  (void)trained.run_round(0);
  (void)trained.run_round(1);
  const double trained_accuracy = trained.evaluate_global();
  trained.save_global(path);

  // A fresh server (different init) restores the trained state exactly.
  ServerConfig fresh_config = server_config();
  fresh_config.seed = 999;
  Server resumed{fresh_config, clients, fedavg(), test, models::ClassifierArch::Mlp,
                 geometry};
  EXPECT_NE(resumed.evaluate_global(), trained_accuracy);
  resumed.load_global(path);
  EXPECT_DOUBLE_EQ(resumed.evaluate_global(), trained_accuracy);
  const std::vector<float> a{trained.global_parameters().begin(),
                             trained.global_parameters().end()};
  const std::vector<float> b{resumed.global_parameters().begin(),
                             resumed.global_parameters().end()};
  EXPECT_EQ(a, b);
  std::remove(path.c_str());
}

TEST_F(ResumeFixture, LoadGlobalValidatesDimension) {
  const std::string path = "/tmp/fedguard_global_bad.bin";
  const std::vector<float> wrong(10, 0.0f);
  util::save_f32_vector(path, wrong);
  Server server{server_config(), clients, fedavg(), test, models::ClassifierArch::Mlp,
                geometry};
  EXPECT_THROW(server.load_global(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedguard::fl
