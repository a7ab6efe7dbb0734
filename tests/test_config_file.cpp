#include "core/config_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/runner.hpp"

namespace fedguard::core {
namespace {

/// experiment_config over `flags` (argv without the program name).
ExperimentConfig from_flags(const std::vector<std::string>& flags,
                            const std::function<void(ExperimentConfig&)>& defaults = {},
                            const std::string& descriptor = "") {
  std::vector<const char*> argv{"prog"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return experiment_config(CliOptions::parse(static_cast<int>(argv.size()), argv.data()),
                           defaults, descriptor);
}

/// A descriptor file alone, the way run_config reads one.
ExperimentConfig load_descriptor(const std::string& path) { return from_flags({}, {}, path); }

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
  const ExperimentConfig config = load_descriptor(write_file(
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
      load_descriptor(write_file("scale = paper\nrounds = 5\n"));
  EXPECT_EQ(config.num_clients, 100u);              // from the paper preset
  EXPECT_EQ(config.rounds, 5u);                     // overridden
  EXPECT_EQ(config.arch, models::ClassifierArch::PaperCnn);
}

TEST_F(ConfigFileTest, KernelKeysApply) {
  const ExperimentConfig config =
      load_descriptor(write_file("kernel_threads = 2\n"));
  EXPECT_EQ(config.kernel.threads, 2u);
  EXPECT_THROW((void)load_descriptor(write_file("kernel_threads = -1\n")),
               std::invalid_argument);
}

TEST_F(ConfigFileTest, RemoteAndFaultKeysApply) {
  const ExperimentConfig config = load_descriptor(
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
  config.obs.http_port = 9464;
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
  EXPECT_EQ(hier.http_port, 9464);  // a socket root serves the descriptor's port
  // One seed derivation and one fault policy for both transports: a socket
  // run and an in-process run of one descriptor draw identical client
  // samples and eject alike.
  EXPECT_EQ(hier.seed, 11u ^ 0x5e12e5ULL);
  EXPECT_EQ(round_config(config).seed, hier.seed);
  EXPECT_EQ(round_config(config).eject_after_failures, 4u);
  EXPECT_EQ(round_config(config).min_clients, 2u);
}

TEST_F(ConfigFileTest, UnknownKeyRejected) {
  EXPECT_THROW((void)load_descriptor(write_file("no_such_knob = 1\n")),
               std::invalid_argument);
}

TEST_F(ConfigFileTest, BadValuesRejected) {
  EXPECT_THROW((void)load_descriptor(write_file("rounds = banana\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_descriptor(write_file("track_per_class_accuracy = maybe\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_descriptor(write_file("scale = huge\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_descriptor(write_file("strategy = winning\n")),
               std::invalid_argument);
  // Zero rounds would report an empty run; a zero batch size would never
  // advance a training loop.
  EXPECT_THROW((void)load_descriptor(write_file("rounds = 0\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_descriptor(write_file("batch_size = 0\n")),
               std::invalid_argument);
  EXPECT_THROW((void)load_descriptor(write_file("cvae_batch_size = 0\n")),
               std::invalid_argument);
  // Numbers are parsed whole: a trailing suffix is a typo, not a number.
  for (const char* text : {"rounds = 12abc\n", "malicious_fraction = 0.5x\n",
                           "num_clients = 4.5\n", "fault_drop_probability = 0.1%\n",
                           "rounds = \n"}) {
    EXPECT_THROW((void)load_descriptor(write_file(text)), std::invalid_argument)
        << text;
  }
}

TEST_F(ConfigFileTest, FlagAndDescriptorLineAgreeForEveryKind) {
  struct Case {
    std::string key;
    std::string value;
    std::function<std::string(const ExperimentConfig&)> field;
  };
  const std::vector<Case> cases{
      {"num_clients", "18", [](const auto& c) { return std::to_string(c.num_clients); }},
      {"rounds", "7", [](const auto& c) { return std::to_string(c.rounds); }},
      {"malicious_fraction", "0.3",
       [](const auto& c) { return std::to_string(c.malicious_fraction); }},
      {"track_per_class_accuracy", "yes",
       [](const auto& c) { return std::to_string(c.track_per_class_accuracy); }},
      {"strategy", "geomed", [](const auto& c) { return std::string{to_string(c.strategy)}; }},
      {"obs_trace_path", "runs/trace one.json", [](const auto& c) { return c.obs.trace_path; }},
      {"obs_http_port", "9464", [](const auto& c) { return std::to_string(c.obs.http_port); }},
  };
  for (const Case& test : cases) {
    SCOPED_TRACE(test.key + " " + test.value);
    const ExperimentConfig from_line =
        load_descriptor(write_file(test.key + " = " + test.value + "\n"));
    EXPECT_NE(test.field(from_line), test.field(ExperimentConfig::small_scale()));
    EXPECT_EQ(test.field(from_flags({"--" + test.key, test.value})), test.field(from_line));
    EXPECT_EQ(test.field(from_flags({"--" + test.key + "=" + test.value})),
              test.field(from_line));
  }
}

TEST_F(ConfigFileTest, OrderIsPresetDefaultsFileFlags) {
  const auto defaults = [](ExperimentConfig& config) {
    config.rounds = 8;
    config.seed = 3;
  };
  const std::string file = write_file("rounds = 2\nnum_clients = 30\n");
  const ExperimentConfig config = from_flags({"--num_clients", "40"}, defaults, file);
  EXPECT_EQ(config.rounds, 2u);          // the file over the binary's default
  EXPECT_EQ(config.num_clients, 40u);    // the flag over the file
  EXPECT_EQ(config.seed, 3u);            // the binary's default over the preset
  EXPECT_EQ(from_flags({}, defaults).rounds, 8u);
  // The preset: a scale flag wins over the file's line, and defaults apply
  // on top of it.
  const ExperimentConfig paper =
      from_flags({"--scale", "paper"}, defaults, write_file("scale = small\n"));
  EXPECT_EQ(paper.num_clients, 100u);
  EXPECT_EQ(paper.rounds, 8u);
  EXPECT_EQ(from_flags({}, {}, write_file("scale = paper\n")).num_clients, 100u);
}

TEST_F(ConfigFileTest, BadFlagsAreRejectedNamingTheKey) {
  for (const auto& [flags, key] : std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"--rouns", "5"}, "rouns"},
           {{"--rounds", "0"}, "rounds"},
           {{"--rounds", "-1"}, "rounds"},
           {{"--rounds", "3x"}, "rounds"},
           {{"--obs_http_port", "70000"}, "obs_http_port"},
           {{"--strategy", "winning"}, "strategy"},
           {{"--scale", "huge"}, "scale"},
           {{"--num_clients", "4"}, "clients_per_round"},  // the preset samples 8
       }) {
    SCOPED_TRACE(flags[0] + " " + flags[1]);
    try {
      (void)from_flags(flags);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("config: ", 0), 0u) << message;
      EXPECT_NE(message.find(key), std::string::npos) << message;
    }
  }
}

TEST_F(ConfigFileTest, RepositoryDescriptorsLoad) {
  // Every checked-in descriptor must stay valid.
  const std::filesystem::path configs =
      std::filesystem::path{FEDGUARD_SOURCE_DIR} / "configs";
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator{configs}) {
    if (entry.path().extension() != ".conf") continue;
    EXPECT_NO_THROW((void)load_descriptor(entry.path().string())) << entry.path();
    ++loaded;
  }
  EXPECT_GE(loaded, 4u) << configs;
}

}  // namespace
}  // namespace fedguard::core
