// Robustness leaderboard harness: runs a scenario sweep matrix (attack ×
// defense × data regime × malicious fraction; see docs/ROBUSTNESS_SWEEP.md)
// and writes the BENCH_robustness.json leaderboard artifact that
// scripts/check_robustness.py gates against the committed baseline.
//
// Flags (core::CliOptions --key value):
//   --matrix smoke|default|full   matrix preset (default: smoke)
//   --config PATH                 descriptor file: base-config keys plus the
//                                 scenario_* axis overrides, applied on top
//                                 of the preset
//   --seed N                      matrix seed (default 42)
//   --rounds N                    rounds per cell override
//   --cell ID[,ID...]             replay just these cells by id (e.g.
//                                 "covert+40/fedguard/iid") through
//                                 scenario::run_sweep, which runs each cell's
//                                 none+0 baseline too — the (matrix seed,
//                                 cell id) pair fully determines a cell's
//                                 run, so the emitted rows equal the full
//                                 sweep's and merge back in cleanly with
//                                 scripts/merge_robustness.py.
//   --out PATH                    leaderboard path (default BENCH_robustness.json)
//   --kernel-arch TIER            auto|serial|avx2|avx512 — pin serial for the
//                                 bit-identical reproducibility contract
//   --quiet                       suppress per-round logging (cell lines stay)

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
#include "tensor/kernels/kernel_arch.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace fedguard;
  const core::CliOptions options = core::CliOptions::parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 42));
  const std::string matrix_name = options.get("matrix", "smoke");

  scenario::SweepMatrix matrix;
  if (matrix_name == "smoke") matrix = scenario::smoke_matrix(seed);
  else if (matrix_name == "default") matrix = scenario::default_matrix(seed);
  else if (matrix_name == "full") matrix = scenario::full_matrix(seed);
  else {
    std::fprintf(stderr, "unknown --matrix '%s' (smoke|default|full)\n",
                 matrix_name.c_str());
    return 2;
  }

  if (options.has("config")) {
    const auto values = core::parse_config_file(options.get("config", ""));
    std::map<std::string, std::string> base_values;
    for (const auto& [key, value] : values) {
      if (key.rfind("scenario_", 0) != 0) base_values[key] = value;
    }
    core::apply_config_values(matrix.base, base_values);
    scenario::apply_scenario_values(matrix, values);
    matrix.base.seed = seed;  // --seed stays authoritative for replay
  }
  if (options.has("rounds")) {
    matrix.base.rounds = static_cast<std::size_t>(options.get_int("rounds", 6));
  }
  if (options.has("kernel-arch")) {
    tensor::kernels::KernelArch arch{};
    const std::string tier = options.get("kernel-arch", "auto");
    if (!tensor::kernels::parse_kernel_arch(tier, arch)) {
      std::fprintf(stderr, "unknown --kernel-arch '%s' (auto|serial|avx2|avx512)\n",
                   tier.c_str());
      return 2;
    }
    matrix.base.kernel_arch = arch;
  }
  if (options.has("quiet")) util::set_log_level(util::LogLevel::Warn);

  const std::vector<std::string> cell_ids = scenario::split_list(options.get("cell", ""));
  if (options.has("cell") && cell_ids.empty()) {
    std::fprintf(stderr, "--cell names no cell id\n");
    return 2;
  }
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
