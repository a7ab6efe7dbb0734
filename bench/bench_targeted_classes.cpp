// Per-class damage analysis of the targeted label-flipping attack (paper
// §IV-B: "a targeted attack which aims at making the model misclassify a
// subset of classes. The overall performance of the resulting model is less
// affected than in untargeted attack scenarios").
//
// Runs the 30% label-flip scenario with per-class accuracy tracking and
// reports trailing recall on the flipped classes (5, 7, 4, 2) against the
// untouched classes for each strategy. Expected shape: undefended strategies
// keep a high overall accuracy but bleed recall on exactly the flipped
// classes; FedGuard preserves both.

#include <cstdio>

#include "bench_common.hpp"
#include "core/cli.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv, {"quiet"});
  const core::ExperimentConfig base = core::parse_or_exit([&] {
    return core::experiment_config(options, [](core::ExperimentConfig& config) {
      config.track_per_class_accuracy = true;
    });
  });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);
  const std::size_t window = base.rounds * 2 / 3;

  const bench::Scenario scenario{"Label Flipping 30%", attacks::AttackType::LabelFlip, 0.3};
  const std::vector<std::size_t> flipped_classes{5, 7, 4, 2};
  const std::vector<std::size_t> clean_classes{0, 1, 3, 6, 8, 9};

  std::printf("=== Targeted-attack per-class analysis (%s, N=%zu, m=%zu, R=%zu) ===\n\n",
              scenario.name.c_str(), base.num_clients, base.clients_per_round,
              base.rounds);
  std::printf("%-12s | %-10s | %-18s | %-18s | %-8s\n", "strategy", "overall",
              "flipped classes", "untouched classes", "gap");
  std::printf("%s\n", std::string(78, '-').c_str());

  for (const auto strategy : {core::StrategyKind::FedAvg, core::StrategyKind::GeoMed,
                              core::StrategyKind::FedGuard}) {
    const fl::RunHistory history = bench::run_cell(base, strategy, scenario);
    const double overall = history.trailing_accuracy(window).mean;
    auto mean_recall = [&](const std::vector<std::size_t>& classes) {
      double total = 0.0;
      for (const std::size_t c : classes) {
        total += history.trailing_class_accuracy(c, window);
      }
      return total / static_cast<double>(classes.size());
    };
    const double flipped = mean_recall(flipped_classes);
    const double clean = mean_recall(clean_classes);
    std::printf("%-12s | %8.2f%% | %16.2f%% | %16.2f%% | %6.1f pts\n",
                core::to_string(strategy), overall * 100.0, flipped * 100.0,
                clean * 100.0, (clean - flipped) * 100.0);
  }
  std::printf("\n(positive gap = recall lost specifically on the attacked class pairs\n"
              " 5<->7 and 4<->2; the attack is invisible in the overall column)\n");
  return 0;
}
