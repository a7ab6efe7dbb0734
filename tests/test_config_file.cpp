#include "core/config_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/runner.hpp"

namespace fedguard::core {
namespace {

class ConfigFileTest : public ::testing::Test {
 protected:
  std::string write_file(const std::string& contents) {
    path_ = "/tmp/fedguard_config_test.conf";
    std::ofstream file{path_};
    file << contents;
    return path_;
  }

  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
};

TEST_F(ConfigFileTest, ParsesKeyValuesCommentsAndBlankLines) {
  const auto values = parse_config_file(write_file(
      "# full-line comment\n"
      "strategy = fedguard\n"
      "\n"
      "rounds = 20   # trailing comment\n"
      "  malicious_fraction=0.5  \n"));
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ(values.at("strategy"), "fedguard");
  EXPECT_EQ(values.at("rounds"), "20");
  EXPECT_EQ(values.at("malicious_fraction"), "0.5");
}

TEST_F(ConfigFileTest, MalformedLineThrows) {
  EXPECT_THROW((void)parse_config_file(write_file("this is not a key value pair\n")),
               std::runtime_error);
}

TEST_F(ConfigFileTest, MissingFileThrows) {
  EXPECT_THROW((void)parse_config_file("/no/such/file.conf"), std::runtime_error);
}

TEST_F(ConfigFileTest, AppliesEveryFieldKind) {
  const ExperimentConfig config = load_experiment_config(write_file(
      "scale = small\n"
      "strategy = geomed\n"
      "attack = label_flip\n"
      "malicious_fraction = 0.3\n"
      "rounds = 7\n"
      "num_clients = 18\n"
      "clients_per_round = 9\n"
      "server_learning_rate = 0.3\n"
      "local_epochs = 4\n"
      "learning_rate = 0.02\n"
      "proximal_mu = 0.1\n"
      "cvae_epochs = 25\n"
      "cvae_latent = 4\n"
      "arch = tiny_cnn\n"
      "fedguard_internal_operator = geomed\n"
      "track_per_class_accuracy = true\n"
      "seed = 99\n"));
  EXPECT_EQ(config.strategy, StrategyKind::GeoMed);
  EXPECT_EQ(config.attack, attacks::AttackType::LabelFlip);
  EXPECT_DOUBLE_EQ(config.malicious_fraction, 0.3);
  EXPECT_EQ(config.rounds, 7u);
  EXPECT_EQ(config.num_clients, 18u);
  EXPECT_EQ(config.clients_per_round, 9u);
  EXPECT_FLOAT_EQ(config.server_learning_rate, 0.3f);
  EXPECT_EQ(config.client.local_epochs, 4u);
  EXPECT_FLOAT_EQ(config.client.learning_rate, 0.02f);
  EXPECT_FLOAT_EQ(config.client.proximal_mu, 0.1f);
  EXPECT_EQ(config.client.cvae_epochs, 25u);
  EXPECT_EQ(config.cvae.latent, 4u);
  EXPECT_EQ(config.arch, models::ClassifierArch::TinyCnn);
  EXPECT_EQ(config.fedguard_internal_operator, defenses::InternalOperator::GeoMed);
  EXPECT_TRUE(config.track_per_class_accuracy);
  EXPECT_EQ(config.seed, 99u);
}

TEST_F(ConfigFileTest, PaperScaleSelectable) {
  const ExperimentConfig config =
      load_experiment_config(write_file("scale = paper\nrounds = 5\n"));
  EXPECT_EQ(config.num_clients, 100u);              // from the paper preset
  EXPECT_EQ(config.rounds, 5u);                     // overridden
  EXPECT_EQ(config.arch, models::ClassifierArch::PaperCnn);
}

TEST_F(ConfigFileTest, KernelKeysApply) {
  const ExperimentConfig config = load_experiment_config(
      write_file("kernel_threads = 2\n"
                 "kernel_gemm_min_flops = 4096\n"
                 "kernel_elementwise_min = 8192\n"
                 "kernel_distance_min = 512\n"));
  EXPECT_EQ(config.kernel.threads, 2u);
  EXPECT_EQ(config.kernel.gemm_min_flops, 4096u);
  EXPECT_EQ(config.kernel.elementwise_min_size, 8192u);
  EXPECT_EQ(config.kernel.distance_min_elements, 512u);
  EXPECT_THROW((void)load_experiment_config(write_file("kernel_threads = -1\n")),
               std::invalid_argument);
}

TEST_F(ConfigFileTest, RemoteAndFaultKeysApply) {
  const ExperimentConfig config = load_experiment_config(
      write_file("remote_accept_timeout_ms = 1500\n"
                 "remote_round_timeout_ms = 2500\n"
                 "min_clients = 3\n"
                 "eject_after_failures = 5\n"
                 "fault_seed = 77\n"
                 "fault_drop_probability = 0.25\n"
                 "fault_delay_probability = 0.1\n"
                 "fault_delay_ms = 40\n"
                 "fault_truncate_probability = 0.05\n"
                 "fault_bit_flip_probability = 0.02\n"
                 "fault_disconnect_probability = 0.03\n"
                 "fault_never_connect_probability = 0.01\n"));
  EXPECT_EQ(config.remote_accept_timeout_ms, 1500u);
  EXPECT_EQ(config.remote_round_timeout_ms, 2500u);
  EXPECT_EQ(config.min_clients, 3u);
  EXPECT_EQ(config.eject_after_failures, 5u);
  EXPECT_EQ(config.fault_plan.seed, 77u);
  EXPECT_DOUBLE_EQ(config.fault_plan.drop_probability, 0.25);
  EXPECT_DOUBLE_EQ(config.fault_plan.delay_probability, 0.1);
  EXPECT_EQ(config.fault_plan.delay_ms, 40u);
  EXPECT_DOUBLE_EQ(config.fault_plan.truncate_probability, 0.05);
  EXPECT_DOUBLE_EQ(config.fault_plan.bit_flip_probability, 0.02);
  EXPECT_DOUBLE_EQ(config.fault_plan.disconnect_probability, 0.03);
  EXPECT_DOUBLE_EQ(config.fault_plan.never_connect_probability, 0.01);
  EXPECT_TRUE(config.fault_plan.any());
  EXPECT_FALSE(ExperimentConfig{}.fault_plan.any());
}

TEST_F(ConfigFileTest, HierarchicalServerConfigMapsFromExperiment) {
  ExperimentConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.rounds = 9;
  config.seed = 11;
  config.shards = 2;
  config.server_learning_rate = 0.5f;
  config.wire_codec = util::WireCodec::Q8;
  config.wire_chunk_size = 128;
  config.remote_accept_timeout_ms = 750;
  config.remote_round_timeout_ms = 1234;
  config.min_clients = 2;
  config.eject_after_failures = 4;
  const net::HierarchicalServerConfig hier = hierarchical_server_config(config);
  EXPECT_EQ(hier.port, 0);  // shards bind ephemeral ports
  EXPECT_EQ(hier.expected_clients, 6u);
  EXPECT_EQ(hier.clients_per_round, 3u);
  EXPECT_EQ(hier.rounds, 9u);
  EXPECT_EQ(hier.shards, 2u);
  EXPECT_EQ(hier.server_learning_rate, 0.5f);
  EXPECT_EQ(hier.psi_codec, util::WireCodec::Q8);
  EXPECT_EQ(hier.psi_chunk, 128u);
  EXPECT_EQ(hier.accept_timeout_ms, 750u);
  EXPECT_EQ(hier.round_timeout_ms, 1234u);
  EXPECT_EQ(hier.min_clients, 2u);
  EXPECT_EQ(hier.eject_after_failures, 4u);
  // One seed derivation and one fault policy for both transports: a socket
  // run and an in-process run of one descriptor draw identical client
  // samples and eject alike.
  EXPECT_EQ(hier.seed, 11u ^ 0x5e12e5ULL);
  EXPECT_EQ(round_config(config).seed, hier.seed);
  EXPECT_EQ(round_config(config).eject_after_failures, 4u);
  EXPECT_EQ(round_config(config).min_clients, 2u);
}

TEST_F(ConfigFileTest, UnknownKeyRejected) {
  EXPECT_THROW((void)load_experiment_config(write_file("no_such_knob = 1\n")),
               std::invalid_argument);
}

TEST_F(ConfigFileTest, BadValuesRejected) {
  EXPECT_THROW((void)load_experiment_config(write_file("rounds = banana\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_experiment_config(write_file("track_per_class_accuracy = maybe\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_experiment_config(write_file("scale = huge\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_experiment_config(write_file("strategy = winning\n")),
               std::invalid_argument);
  // A zero batch size would never advance a training loop.
  EXPECT_THROW((void)load_experiment_config(write_file("batch_size = 0\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_experiment_config(write_file("cvae_batch_size = 0\n")),
               std::invalid_argument);
  // Numbers are parsed whole: a trailing suffix is a typo, not a number.
  for (const char* text : {"rounds = 12abc\n", "malicious_fraction = 0.5x\n",
                           "num_clients = 4.5\n", "fault_drop_probability = 0.1%\n",
                           "rounds = \n"}) {
    EXPECT_THROW((void)load_experiment_config(write_file(text)), std::invalid_argument)
        << text;
  }
}

TEST_F(ConfigFileTest, RepositoryDescriptorsLoad) {
  // Every checked-in descriptor must stay valid.
  const std::filesystem::path configs =
      std::filesystem::path{FEDGUARD_SOURCE_DIR} / "configs";
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator{configs}) {
    if (entry.path().extension() != ".conf") continue;
    EXPECT_NO_THROW((void)load_experiment_config(entry.path().string())) << entry.path();
    ++loaded;
  }
  EXPECT_GE(loaded, 4u) << configs;
}

}  // namespace
}  // namespace fedguard::core
