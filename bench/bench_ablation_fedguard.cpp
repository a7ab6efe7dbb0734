// Ablations of FedGuard's design knobs (DESIGN.md experiment index):
//  (a) internal aggregation operator — FedAvg vs GeoMed vs coordinate median
//      over the surviving updates (paper §VI-C "Future works");
//  (b) validation-set size t — the "tuneable overhead" claim (§VI-A): more
//      synthetic samples cost more server compute but stabilize scoring;
//  (c) malicious-fraction sweep under label flipping — FedGuard's designed
//      50% limit (§V-A "Testing FedGuard limits").

#include <cstdio>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"quiet"});
  const core::ExperimentConfig base = core::parse_or_exit([&] {
    return core::experiment_config(options, [](core::ExperimentConfig& config) {
      config.rounds = 8;  // 12 FedGuard federations run below: keep each short
    });
  });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);
  const std::size_t window = base.rounds * 2 / 3;

  std::printf("=== FedGuard ablations (scale=%s, N=%zu, m=%zu, R=%zu) ===\n",
              options.get("scale", "small").c_str(), base.num_clients,
              base.clients_per_round, base.rounds);

  const bench::Scenario sign_flip{"Sign Flipping 50%", attacks::AttackType::SignFlip, 0.5};

  std::printf("\n(a) internal aggregation operator under %s:\n", sign_flip.name.c_str());
  for (const auto op : {defenses::InternalOperator::FedAvg,
                        defenses::InternalOperator::GeoMed,
                        defenses::InternalOperator::Median}) {
    core::ExperimentConfig config = base;
    config.fedguard_internal_operator = op;
    const fl::RunHistory history =
        bench::run_cell(config, core::StrategyKind::FedGuard, sign_flip);
    const auto tail = history.trailing_accuracy(window);
    std::printf("  internal=%-8s trailing acc %.2f%% +- %.2f%%  TPR %.2f\n",
                defenses::to_string(op), tail.mean * 100.0, tail.stddev * 100.0,
                history.true_positive_rate());
  }

  std::printf("\n(b) validation-set size t (tuneable overhead) under %s:\n",
              sign_flip.name.c_str());
  for (const std::size_t t : {20ul, 50ul, 100ul, 200ul}) {
    core::ExperimentConfig config = base;
    config.fedguard_total_samples = t;
    const util::Stopwatch stopwatch;
    const fl::RunHistory history =
        bench::run_cell(config, core::StrategyKind::FedGuard, sign_flip);
    const auto tail = history.trailing_accuracy(window);
    std::printf("  t=%-4zu trailing acc %.2f%% +- %.2f%%  TPR %.2f  run %.1fs\n", t,
                tail.mean * 100.0, tail.stddev * 100.0, history.true_positive_rate(),
                stopwatch.seconds());
  }

  std::printf("\n(c) malicious-fraction sweep, label flipping (50%% design limit):\n");
  for (const double fraction : {0.2, 0.3, 0.4, 0.5, 0.6}) {
    const bench::Scenario scenario{"Label Flipping", attacks::AttackType::LabelFlip,
                                   fraction};
    const fl::RunHistory history =
        bench::run_cell(base, core::StrategyKind::FedGuard, scenario);
    const auto tail = history.trailing_accuracy(window);
    std::printf("  malicious=%.0f%%  trailing acc %.2f%% +- %.2f%%  TPR %.2f  FPR %.2f\n",
                fraction * 100.0, tail.mean * 100.0, tail.stddev * 100.0,
                history.true_positive_rate(), history.false_positive_rate());
  }

  std::printf("\n(d) scoring metric under Label Flipping 40%% (targeted detection):\n");
  for (const auto metric : {defenses::FedGuardConfig::ScoreMetric::Accuracy,
                            defenses::FedGuardConfig::ScoreMetric::Balanced}) {
    core::ExperimentConfig config = base;
    config.fedguard_score_metric = metric;
    const bench::Scenario scenario{"Label Flipping 40%", attacks::AttackType::LabelFlip,
                                   0.4};
    const fl::RunHistory history =
        bench::run_cell(config, core::StrategyKind::FedGuard, scenario);
    const auto tail = history.trailing_accuracy(window);
    std::printf("  metric=%-9s trailing acc %.2f%% +- %.2f%%  TPR %.2f  FPR %.2f\n",
                metric == defenses::FedGuardConfig::ScoreMetric::Balanced ? "balanced"
                                                                          : "accuracy",
                tail.mean * 100.0, tail.stddev * 100.0, history.true_positive_rate(),
                history.false_positive_rate());
  }

  std::printf("\n(e) extension attacks (scaling / random update), 40%% malicious:\n");
  for (const auto attack : {attacks::AttackType::Scaling, attacks::AttackType::RandomUpdate}) {
    for (const auto strategy :
         {core::StrategyKind::FedAvg, core::StrategyKind::NormThreshold,
          core::StrategyKind::FedGuard}) {
      const bench::Scenario scenario{attacks::to_string(attack), attack, 0.4};
      const fl::RunHistory history = bench::run_cell(base, strategy, scenario);
      const auto tail = history.trailing_accuracy(window);
      std::printf("  %-14s vs %-14s trailing acc %.2f%% +- %.2f%%\n",
                  attacks::to_string(attack), core::to_string(strategy),
                  tail.mean * 100.0, tail.stddev * 100.0);
    }
  }
  return 0;
}
