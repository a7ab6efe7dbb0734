// Reproduces Table IV of the paper: mean accuracy +- standard deviation over
// the trailing window of rounds (the paper averages the last 40 of 50 rounds;
// at reduced scale we use the trailing 2/3 of the run), for every strategy x
// attack scenario.
//
// Expected shape (paper Table IV):
//   - FedGuard is the only strategy above 90% in ALL four attack columns;
//   - Spectral matches it on additive-noise and same-value but collapses on
//     sign-flip;
//   - FedAvg/GeoMed/Krum sit near random accuracy (~10%) under the
//     50%-malicious untargeted attacks while remaining competitive under the
//     targeted 30% label flip;
//   - every strategy matches the no-attack reference when no attack runs.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "core/report.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"window", "quiet"});
  const core::ExperimentConfig base =
      core::parse_or_exit([&] { return core::experiment_config(options); });
  const std::size_t window =
      core::parse_or_exit([&] { return options.get_size("window", base.rounds * 2 / 3); });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);

  std::printf("=== Table IV: trailing accuracy (scale=%s, N=%zu, m=%zu, R=%zu, window=%zu) ===\n\n",
              options.get("scale", "small").c_str(), base.num_clients,
              base.clients_per_round, base.rounds, window);

  const std::vector<bench::Scenario> scenarios = bench::paper_scenarios();
  std::vector<std::string> scenario_names;
  for (const auto& scenario : scenarios) scenario_names.push_back(scenario.name);

  std::vector<core::Table4Row> rows;
  std::vector<fl::RunHistory> fedguard_runs;
  for (const core::StrategyKind strategy : bench::paper_strategies()) {
    core::Table4Row row;
    row.strategy = core::to_string(strategy);
    for (const auto& scenario : scenarios) {
      const fl::RunHistory history = bench::run_cell(base, strategy, scenario);
      row.cells.push_back(history.trailing_accuracy(window));
      if (strategy == core::StrategyKind::FedGuard) fedguard_runs.push_back(history);
    }
    rows.push_back(std::move(row));
  }
  core::print_table4(std::cout, scenario_names, rows, window);

  std::printf("\nFedGuard detection rates per scenario (not in the paper's table,\n"
              "but the mechanism behind its row):\n");
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::printf("  %-20s TPR %.2f  FPR %.2f\n", scenarios[s].name.c_str(),
                fedguard_runs[s].true_positive_rate(),
                fedguard_runs[s].false_positive_rate());
  }
  return 0;
}
