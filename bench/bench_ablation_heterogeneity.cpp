// Data-heterogeneity ablation — the paper's "Imbalanced datasets" future-work
// direction (§VI-C): how does FedGuard hold up as the Dirichlet concentration
// α shrinks (clients see fewer classes, their CVAEs synthesize narrower
// validation data)?
//
// Expected shape: robust near the paper's α = 10; degraded detection as
// α -> 0 because most decoders produce unusable samples for classes they
// never saw — the limiting factor the paper calls out in §VI-B.

#include <cstdio>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"quiet"});
  const core::ExperimentConfig base = core::parse_or_exit([&] {
    return core::experiment_config(options,
                                   [](core::ExperimentConfig& config) { config.rounds = 8; });
  });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);
  const std::size_t window = base.rounds * 2 / 3;

  const bench::Scenario label_flip{"Label Flipping 30%", attacks::AttackType::LabelFlip,
                                   0.3};
  std::printf("=== Heterogeneity ablation: FedGuard vs Dirichlet alpha (%s) ===\n\n",
              label_flip.name.c_str());
  std::printf("%-8s | %-12s | %-22s | %-10s | %-10s\n", "alpha", "strategy",
              "trailing accuracy", "TPR", "FPR");
  std::printf("%s\n", std::string(75, '-').c_str());
  for (const double alpha : {0.1, 1.0, 10.0, 100.0}) {
    for (const auto strategy : {core::StrategyKind::FedAvg, core::StrategyKind::FedGuard}) {
      core::ExperimentConfig config = base;
      config.dirichlet_alpha = alpha;
      const fl::RunHistory history = bench::run_cell(config, strategy, label_flip);
      const auto tail = history.trailing_accuracy(window);
      std::printf("%-8.1f | %-12s | %8.2f%% +- %6.2f%% | %-10.2f | %-10.2f\n", alpha,
                  core::to_string(strategy), tail.mean * 100.0, tail.stddev * 100.0,
                  history.true_positive_rate(), history.false_positive_rate());
    }
  }
  return 0;
}
