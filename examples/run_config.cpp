// Run an experiment from a descriptor file (configs/*.conf) — the repository
// equivalent of the paper's E2CLAB experiment descriptors (§IV-E).
//
//   $ ./run_config [descriptor.conf] [--KEY VALUE ...] [--csv out.csv]
//
// Every descriptor key is also a flag, applied after the file:
//   $ ./run_config configs/signflip50_fedguard.conf --rounds 3
//       --obs_trace_path trace.json --obs_metrics_path metrics.prom
// Without a descriptor the run starts from the small preset:
//   $ ./run_config --attack label_flip --strategy geomed --malicious_fraction 0.3

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/cli.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"csv"});
  const std::string descriptor =
      options.positional().empty() ? "" : options.positional().front();
  const core::ExperimentConfig config = core::parse_or_exit([&] {
    if (options.positional().size() > 1) {
      throw std::invalid_argument{"usage: run_config [descriptor.conf] [--KEY VALUE ...] "
                                  "[--csv PATH]"};
    }
    return core::experiment_config(options, {}, descriptor);
  });

  std::printf("descriptor: %s\n  strategy=%s attack=%s malicious=%.0f%% N=%zu m=%zu R=%zu\n\n",
              descriptor.empty() ? "(none: small preset)" : descriptor.c_str(),
              core::to_string(config.strategy), attacks::to_string(config.attack),
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
