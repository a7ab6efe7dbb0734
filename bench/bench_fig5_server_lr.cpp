// Reproduces Fig. 5 of the paper: the impact of the server learning rate on
// FedGuard's stability at 40% label-flipping malicious peers.
//
// Expected shape (paper §V-A "Testing FedGuard limits"): with η = 1 the run
// occasionally destabilizes when a malicious-majority round slips through;
// with η = 0.3 convergence is slower but the dips are damped.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "core/report.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/svg_plot.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"csv", "svg", "quiet"});
  const core::ExperimentConfig base = core::parse_or_exit([&] {
    return core::experiment_config(options, [](core::ExperimentConfig& config) {
      // A longer horizon than the other figures, so the slow-η run has time
      // to converge.
      config.rounds = config.rounds * 3 / 2;
    });
  });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);

  const bench::Scenario scenario{"Label Flipping 40%", attacks::AttackType::LabelFlip, 0.4};
  std::printf("=== Fig. 5: FedGuard server learning rate ablation (%s, R=%zu) ===\n\n",
              scenario.name.c_str(), base.rounds);

  std::vector<fl::RunHistory> runs;
  for (const float eta : {1.0f, 0.3f}) {
    core::ExperimentConfig config = base;
    config.server_learning_rate = eta;
    fl::RunHistory history = bench::run_cell(config, core::StrategyKind::FedGuard, scenario);
    history.strategy = "fedguard-lr-" + std::to_string(eta).substr(0, 3);
    const std::string csv = options.get("csv", "");
    if (!csv.empty()) history.write_csv(csv + "_" + history.strategy + ".csv");
    runs.push_back(std::move(history));
  }
  core::print_accuracy_series(std::cout, runs);

  if (options.has("svg")) {
    util::LinePlot plot{"Fig. 5 — server learning rate (40% label flip)",
                        "federated round", "test accuracy"};
    plot.set_y_range(0.0, 1.0);
    for (const auto& run : runs) plot.add_series(run.strategy, run.accuracy_series());
    const std::string path = options.get("svg", "fig5") + ".svg";
    plot.save(path);
    std::printf("(figure written to %s)\n", path.c_str());
  }

  // Stability summary: worst round-over-round accuracy drop per run.
  std::printf("\nStability summary:\n");
  for (const auto& run : runs) {
    double worst_drop = 0.0;
    for (std::size_t r = 1; r < run.rounds.size(); ++r) {
      worst_drop = std::max(worst_drop, run.rounds[r - 1].test_accuracy -
                                            run.rounds[r].test_accuracy);
    }
    const util::TrailingStats tail = run.trailing_accuracy(run.rounds.size() * 2 / 3);
    std::printf("  %-16s trailing %.2f%% +- %.2f%%, worst round-to-round drop %.2f%%\n",
                run.strategy.c_str(), tail.mean * 100.0, tail.stddev * 100.0,
                worst_drop * 100.0);
  }
  return 0;
}
