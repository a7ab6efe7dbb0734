// Quickstart: run a small federation twice — undefended FedAvg and FedGuard —
// under a 50% sign-flipping attack, and print what happens.
//
//   $ ./quickstart [--rounds N] [--num_clients N] [--seed S] [--KEY VALUE ...]
//
// Any descriptor key (docs/CONFIG_REFERENCE.md) is a flag; the defaults below
// are this example's own.
//
// This is the minimal end-to-end use of the public API:
//   ExperimentConfig -> run_experiment -> RunHistory.

#include <cstdio>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv);
  // The reduced-scale preset with the attack scenario applied.
  core::ExperimentConfig config = core::parse_or_exit([&] {
    return core::experiment_config(options, [](core::ExperimentConfig& defaults) {
      defaults.num_clients = 12;
      defaults.clients_per_round = 6;
      defaults.rounds = 10;
      defaults.train_samples = 1200;
      defaults.seed = 7;
      defaults.attack = attacks::AttackType::SignFlip;
      defaults.malicious_fraction = 0.5;
    });
  });
  util::set_log_level(util::LogLevel::Warn);

  std::printf("Federation: %zu clients (%zu sampled/round), %zu rounds, "
              "%.0f%% of clients run the %s attack.\n\n",
              config.num_clients, config.clients_per_round, config.rounds,
              config.malicious_fraction * 100.0, attacks::to_string(config.attack));

  for (const auto strategy : {core::StrategyKind::FedAvg, core::StrategyKind::FedGuard}) {
    config.strategy = strategy;
    std::printf("--- %s ---\n", core::to_string(strategy));
    const fl::RunHistory history = core::run_experiment(config);
    for (const auto& round : history.rounds) {
      std::printf("  round %2zu: accuracy %5.1f%%  (rejected %zu/%zu updates)\n",
                  round.round, round.test_accuracy * 100.0, round.rejected_clients,
                  round.sampled_clients);
    }
    std::printf("  => final accuracy %.1f%%, malicious detection rate %.0f%%\n\n",
                history.rounds.back().test_accuracy * 100.0,
                history.true_positive_rate() * 100.0);
  }
  std::printf("FedAvg averages the poisoned updates straight into the global model;\n"
              "FedGuard scores every update on CVAE-synthesized validation digits and\n"
              "aggregates only the ones that perform above the round average.\n");
  return 0;
}
