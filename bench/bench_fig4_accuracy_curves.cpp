// Reproduces Fig. 4 of the paper: test-accuracy-vs-round curves for the five
// strategies (FedAvg, GeoMed, Krum, Spectral, FedGuard) under each attack
// scenario (additive noise 50%, label flip 30%, sign flip 50%, same value
// 50%) plus the no-attack reference.
//
// Expected shape (paper §V-A): FedGuard tracks the no-attack curve in every
// scenario; Spectral survives additive-noise and same-value but not
// sign-flip; FedAvg/GeoMed/Krum collapse under the 50%-malicious untargeted
// attacks.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "core/report.hpp"
#include "util/logging.hpp"
#include "util/svg_plot.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"csv", "svg", "quiet"});
  const core::ExperimentConfig base =
      core::parse_or_exit([&] { return core::experiment_config(options); });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);
  const std::string csv_prefix = options.get("csv", "");
  const std::string svg_prefix = options.get("svg", "");

  std::printf("=== Fig. 4: accuracy curves (scale=%s, N=%zu, m=%zu, R=%zu) ===\n",
              options.get("scale", "small").c_str(), base.num_clients,
              base.clients_per_round, base.rounds);

  for (const bench::Scenario& scenario : bench::paper_scenarios()) {
    std::printf("\n--- scenario: %s ---\n", scenario.name.c_str());
    std::vector<fl::RunHistory> runs;
    for (const core::StrategyKind strategy : bench::paper_strategies()) {
      fl::RunHistory history = bench::run_cell(base, strategy, scenario);
      if (!csv_prefix.empty()) {
        std::string path = csv_prefix + "_" + history.strategy + "_";
        for (const char c : scenario.name) path += (c == ' ' || c == '%') ? '_' : c;
        history.write_csv(path + ".csv");
      }
      runs.push_back(std::move(history));
    }
    core::print_accuracy_series(std::cout, runs);

    if (!svg_prefix.empty()) {
      util::LinePlot plot{"Fig. 4 — " + scenario.name, "federated round",
                          "test accuracy"};
      plot.set_y_range(0.0, 1.0);
      for (const auto& run : runs) plot.add_series(run.strategy, run.accuracy_series());
      std::string path = svg_prefix + "_";
      for (const char c : scenario.name) path += (c == ' ' || c == '%') ? '_' : c;
      plot.save(path + ".svg");
      std::printf("(figure written to %s.svg)\n", path.c_str());
    }
  }
  return 0;
}
