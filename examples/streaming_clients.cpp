// Dynamic datasets — the paper's §VI-C future-work scenario: clients receive
// a stream of new data over time. This example refreshes every client's local
// dataset mid-run and compares FedGuard with a stale (train-once) CVAE
// against FedGuard with periodic CVAE retraining
// (ClientConfig::cvae_retrain_interval).
//
//   $ ./streaming_clients [--rounds N] [--cvae_retrain_interval K] [--KEY VALUE ...]
//
// The second run retrains every cvae_retrain_interval rounds (default 3).

#include <cstdio>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "data/partition.hpp"
#include "data/synthetic_mnist.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv);
  const core::ExperimentConfig base = core::parse_or_exit([&] {
    return core::experiment_config(options, [](core::ExperimentConfig& defaults) {
      defaults.num_clients = 12;
      defaults.clients_per_round = 6;
      defaults.train_samples = 1200;
      defaults.strategy = core::StrategyKind::FedGuard;
      defaults.attack = attacks::AttackType::SignFlip;
      defaults.malicious_fraction = 0.5;
      defaults.client.cvae_retrain_interval = 3;
    });
  });
  util::set_log_level(util::LogLevel::Warn);

  for (const std::size_t retrain_interval :
       {std::size_t{0}, base.client.cvae_retrain_interval}) {
    core::ExperimentConfig config = base;
    config.client.cvae_retrain_interval = retrain_interval;

    core::Federation federation = core::build_federation(config);

    // A second wave of data arrives halfway through the run: every client's
    // partition is replaced with fresh samples (drawn with a new seed, so
    // the distribution drifts slightly through generator randomness).
    const data::Dataset second_wave =
        data::generate_synthetic_mnist(config.train_samples, config.seed ^ 0x5743ULL);
    const data::Partition new_partition = data::dirichlet_partition(
        second_wave, config.num_clients, config.dirichlet_alpha, config.seed ^ 0x99ULL);

    std::printf("--- FedGuard, CVAE retrain interval = %zu %s ---\n", retrain_interval,
                retrain_interval == 0 ? "(train once, paper default)" : "");
    fl::RunHistory history;
    history.strategy = "fedguard";
    for (std::size_t round = 0; round < config.rounds; ++round) {
      if (round == config.rounds / 2) {
        std::printf("  [data stream: all clients receive new local datasets]\n");
        for (std::size_t c = 0; c < federation.clients.size(); ++c) {
          federation.clients[c]->refresh_data(second_wave, new_partition[c]);
        }
      }
      const fl::RoundRecord record = federation.server->run_round(round);
      std::printf("  round %2zu: accuracy %5.1f%% (rejected malicious %zu/%zu)\n",
                  record.round, record.test_accuracy * 100.0, record.rejected_malicious,
                  record.sampled_malicious);
      history.rounds.push_back(record);
    }
    std::printf("  => detection TPR %.2f over the whole stream\n\n",
                history.true_positive_rate());
  }
  std::printf("With interval 0 the server keeps validating on decoders trained on the\n"
              "first data wave; periodic retraining keeps the synthetic validation\n"
              "data aligned with the stream at extra client compute cost.\n");
  return 0;
}
