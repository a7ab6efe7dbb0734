#include "scenario/runner.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/runner.hpp"
#include "util/logging.hpp"

namespace fedguard::scenario {

const CellResult* Leaderboard::find(const std::string& cell_id) const {
  for (const CellResult& cell : cells) {
    if (cell.cell_id == cell_id) return &cell;
  }
  return nullptr;
}

CellResult run_cell(const SweepMatrix& matrix, const Cell& cell) {
  const core::ExperimentConfig config = matrix.cell_config(cell);
  const fl::RunHistory history = core::run_experiment(config);

  CellResult result;
  result.cell_id = cell.id();
  result.attack = attacks::to_string(cell.attack);
  result.malicious_pct =
      static_cast<long long>(cell.malicious_fraction * 100.0 + 0.5);
  result.defense = core::to_string(cell.defense);
  result.regime = cell.regime.label();
  result.shards = cell.shards;
  result.seed = config.seed;
  result.rounds = config.rounds;

  const std::size_t window = std::max<std::size_t>(1, (config.rounds + 2) / 3);
  result.final_accuracy = history.trailing_accuracy(window).mean;

  for (const fl::RoundRecord& record : history.rounds) {
    result.sampled_malicious += record.sampled_malicious;
    result.rejected_malicious += record.rejected_malicious;
    result.rejected_benign += record.rejected_benign;
  }
  const std::uint64_t rejected = result.rejected_malicious + result.rejected_benign;
  result.ejection_precision =
      rejected == 0 ? 1.0
                    : static_cast<double>(result.rejected_malicious) /
                          static_cast<double>(rejected);
  result.ejection_recall =
      result.sampled_malicious == 0
          ? 1.0
          : static_cast<double>(result.rejected_malicious) /
                static_cast<double>(result.sampled_malicious);
  return result;
}

Leaderboard run_sweep(const SweepMatrix& matrix, const std::string& matrix_name,
                      const std::vector<std::string>& cell_ids) {
  Leaderboard board;
  board.matrix_name = matrix_name;
  board.seed = matrix.base.seed;
  board.rounds = matrix.base.rounds;

  // enumerate() sorts by id and holds every cell's baseline, so the selected
  // cells keep the sweep's row order and find their baselines among them.
  std::vector<Cell> cells = matrix.enumerate();
  if (!cell_ids.empty()) {
    std::set<std::string> wanted;
    for (const std::string& id : cell_ids) {
      const auto it = std::find_if(cells.begin(), cells.end(),
                                   [&](const Cell& cell) { return cell.id() == id; });
      if (it == cells.end()) {
        throw std::invalid_argument{"'" + id + "' is not in matrix '" + matrix_name + "'"};
      }
      wanted.insert(id);
      wanted.insert(it->baseline().id());
    }
    std::erase_if(cells, [&](const Cell& cell) { return wanted.count(cell.id()) == 0; });
  }

  std::map<std::string, double> baselines;  // baseline cell id -> final accuracy
  board.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    CellResult result = run_cell(matrix, cell);
    util::log_info("scenario: [%zu/%zu] %s acc %.4f (TP %llu FP %llu of %llu mal)",
                   i + 1, cells.size(), result.cell_id.c_str(), result.final_accuracy,
                   static_cast<unsigned long long>(result.rejected_malicious),
                   static_cast<unsigned long long>(result.rejected_benign),
                   static_cast<unsigned long long>(result.sampled_malicious));
    if (cell.attack == attacks::AttackType::None) {
      baselines[result.cell_id] = result.final_accuracy;
    }
    board.cells.push_back(std::move(result));
  }

  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellResult& result = board.cells[i];
    const double baseline = baselines.at(cells[i].baseline().id());
    result.baseline_accuracy = baseline;
    if (cells[i].attack != attacks::AttackType::None && baseline > 0.0) {
      result.attack_success = std::max(0.0, (baseline - result.final_accuracy) / baseline);
    }
  }
  return board;
}

}  // namespace fedguard::scenario
