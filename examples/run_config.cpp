// Run an experiment from a descriptor file (configs/*.conf) — the repository
// equivalent of the paper's E2CLAB experiment descriptors (§IV-E).
//
//   $ ./run_config configs/signflip50_fedguard.conf [--csv out.csv]
//                  [--trace trace.json] [--metrics metrics.prom]
//                  [--metrics-port 9464]

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/cli.hpp"
#include "core/config_file.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  if (argc < 2 || std::string{argv[1]}.rfind("--", 0) == 0) {
    std::printf(
        "usage: run_config <descriptor.conf> [--csv PATH] [--trace PATH] "
        "[--metrics PATH] [--metrics-port PORT]\n");
    return 1;
  }
  const core::CliOptions options = core::CliOptions::parse(argc, argv);

  core::ExperimentConfig config;
  try {
    config = core::load_experiment_config(argv[1]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  // CLI flags override the descriptor's obs_* keys.
  const std::string trace = options.get("trace", "");
  if (!trace.empty()) config.obs.trace_path = trace;
  const std::string metrics = options.get("metrics", "");
  if (!metrics.empty()) config.obs.metrics_path = metrics;
  const std::string metrics_port = options.get("metrics-port", "");
  if (!metrics_port.empty()) {
    try {
      const unsigned long port = std::stoul(metrics_port);
      if (port > 65535) throw std::out_of_range{"port"};
      config.obs.http_port = static_cast<std::uint16_t>(port);
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: bad --metrics-port '%s'\n", metrics_port.c_str());
      return 1;
    }
  }

  std::printf("descriptor: %s\n  strategy=%s attack=%s malicious=%.0f%% N=%zu m=%zu R=%zu\n\n",
              argv[1], core::to_string(config.strategy), attacks::to_string(config.attack),
              config.malicious_fraction * 100.0, config.num_clients,
              config.clients_per_round, config.rounds);

  fl::RunHistory history = core::run_experiment(config);
  const auto tail = history.trailing_accuracy(config.rounds * 2 / 3);
  std::printf("\ntrailing accuracy: %.2f%% +- %.2f%%\n", tail.mean * 100.0,
              tail.stddev * 100.0);
  if (config.malicious_fraction > 0.0) {
    std::printf("detection: TPR %.2f, FPR %.2f\n", history.true_positive_rate(),
                history.false_positive_rate());
  }
  if (config.fault_plan.any()) {
    core::print_fault_summary(std::cout, history);
  }
  const std::string csv = options.get("csv", "");
  if (!csv.empty()) {
    history.write_csv(csv);
    std::printf("per-round series written to %s\n", csv.c_str());
  }
  if (!config.obs.trace_path.empty()) {
    std::printf("trace written to %s (open at ui.perfetto.dev)\n",
                config.obs.trace_path.c_str());
  }
  if (!config.obs.metrics_path.empty()) {
    std::printf("metrics written to %s (+ per-round snapshots at %s.jsonl)\n",
                config.obs.metrics_path.c_str(), config.obs.metrics_path.c_str());
  }
  return 0;
}
