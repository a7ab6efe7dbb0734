#pragma once
// Shared machinery for the table/figure reproduction harnesses. Each one
// reads its run settings from flags named after the descriptor keys
// (core/cli.hpp): --scale small|paper, --rounds N, --num_clients N,
// --clients_per_round M, --seed S, ...; its own flags (--quiet, and --csv,
// --svg or --window where it writes or reads them) are the ones it names to
// core::CliOptions::parse.

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/runner.hpp"

namespace fedguard::bench {

/// One attack scenario column of Fig. 4 / Table IV.
struct Scenario {
  std::string name;
  attacks::AttackType attack;
  double malicious_fraction;
};

/// The paper's four attack scenarios plus the no-attack reference
/// (Section IV-B; Fig. 4 panels and Table IV columns).
inline std::vector<Scenario> paper_scenarios() {
  return {
      {"Additive Noise 50%", attacks::AttackType::AdditiveNoise, 0.5},
      {"Label Flipping 30%", attacks::AttackType::LabelFlip, 0.3},
      {"Sign Flipping 50%", attacks::AttackType::SignFlip, 0.5},
      {"Same Value 50%", attacks::AttackType::SameValue, 0.5},
      {"No Attack", attacks::AttackType::None, 0.0},
  };
}

/// The five strategies compared in the paper's evaluation (Section IV-C).
inline std::vector<core::StrategyKind> paper_strategies() {
  return {core::StrategyKind::FedAvg, core::StrategyKind::GeoMed,
          core::StrategyKind::Krum, core::StrategyKind::Spectral,
          core::StrategyKind::FedGuard};
}

/// Run one (strategy, scenario) cell.
inline fl::RunHistory run_cell(core::ExperimentConfig config, core::StrategyKind strategy,
                               const Scenario& scenario) {
  config.strategy = strategy;
  config.attack = scenario.attack;
  config.malicious_fraction = scenario.malicious_fraction;
  return core::run_experiment(config);
}

}  // namespace fedguard::bench
