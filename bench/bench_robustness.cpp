// Robustness leaderboard harness: runs a scenario sweep matrix (attack ×
// defense × data regime × malicious fraction; see docs/ROBUSTNESS_SWEEP.md)
// and writes the BENCH_robustness.json leaderboard artifact that
// scripts/check_robustness.py gates against the committed baseline.
//
// Flags (core/cli.hpp): its own, plus any descriptor key as --key value.
//   --matrix smoke|default|full   matrix preset (default: smoke, seed 42)
//   --config PATH                 descriptor file: base-config keys plus the
//                                 scenario_* axis keys, applied on top of the
//                                 preset; flags apply after it
//   --cell ID[,ID...]             replay just these cells by id (e.g.
//                                 "covert+40/fedguard/iid") through
//                                 scenario::run_sweep, which runs each cell's
//                                 none+0 baseline too — the (matrix seed,
//                                 cell id) pair fully determines a cell's
//                                 run, so the emitted rows equal the full
//                                 sweep's and merge back in cleanly with
//                                 scripts/merge_robustness.py.
//   --out PATH                    leaderboard path (default BENCH_robustness.json)
//   --quiet                       suppress per-round logging (cell lines stay)
// Every other flag goes through scenario::apply_scenario_values like a
// --config line: --seed N sets the matrix seed, --rounds N the rounds per
// cell, --kernel_arch serial pins the bit-identical reproducibility contract,
// and --scenario_defenses krum,fedguard narrows an axis.

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/config_file.hpp"
#include "scenario/matrix.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options =
      core::CliOptions::parse(argc, argv, {"matrix", "config", "cell", "out", "quiet"});
  const std::string matrix_name = options.get("matrix", "smoke");
  const std::vector<std::string> cell_ids = scenario::split_list(options.get("cell", ""));
  const scenario::SweepMatrix matrix = core::parse_or_exit([&] {
    if (options.has("cell") && cell_ids.empty()) {
      throw std::invalid_argument{"config: cell names no cell id"};
    }
    constexpr std::uint64_t kSeed = 42;
    scenario::SweepMatrix preset;
    if (matrix_name == "smoke") preset = scenario::smoke_matrix(kSeed);
    else if (matrix_name == "default") preset = scenario::default_matrix(kSeed);
    else if (matrix_name == "full") preset = scenario::full_matrix(kSeed);
    else throw std::invalid_argument{"config: unknown matrix '" + matrix_name +
                                     "' (smoke|default|full)"};
    if (options.has("config")) {
      scenario::apply_scenario_values(preset, core::parse_config_file(options.get("config", "")));
    }
    scenario::apply_scenario_values(preset, options.settings());
    return preset;
  });
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);

  if (cell_ids.empty()) {
    std::printf("=== robustness sweep: matrix=%s, %zu cells, seed=%llu, R=%zu ===\n",
                matrix_name.c_str(), matrix.enumerate().size(),
                static_cast<unsigned long long>(matrix.base.seed), matrix.base.rounds);
  }
  scenario::Leaderboard board;
  try {
    board = scenario::run_sweep(matrix, matrix_name, cell_ids);
  } catch (const std::invalid_argument& error) {
    if (cell_ids.empty()) throw;  // not an unknown id: a cell run failed
    std::fprintf(stderr, "--cell %s\n", error.what());
    return 2;
  }
  if (!cell_ids.empty()) {
    std::printf("=== robustness replay: matrix=%s, %zu cell(s), seed=%llu ===\n",
                matrix_name.c_str(), board.cells.size(),
                static_cast<unsigned long long>(board.seed));
  }
  scenario::print_leaderboard(std::cout, board);

  const std::string out_path = options.get("out", "BENCH_robustness.json");
  scenario::write_json(board, out_path);
  std::printf("leaderboard -> %s (%zu cells)\n", out_path.c_str(), board.cells.size());
  return 0;
}
