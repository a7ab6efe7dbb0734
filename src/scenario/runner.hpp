#pragma once
// Executes a SweepMatrix cell by cell: each cell is an independent seeded
// short federation. Accuracy and the attacker-ejection tallies both come
// from the cell's own run history: the tallies sum its RoundRecords, whose
// per-round values are the ones the round engine adds to the fl_* detection
// counters (docs/OBSERVABILITY.md).

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/matrix.hpp"

namespace fedguard::scenario {

/// One leaderboard row.
struct CellResult {
  std::string cell_id;
  std::string attack;
  long long malicious_pct = 0;
  std::string defense;
  std::string regime;
  std::size_t shards = 1;  // two-tier topology width (1 = single-tier)
  std::uint64_t seed = 0;  // the cell's derived experiment seed
  std::size_t rounds = 0;

  double final_accuracy = 0.0;     // trailing-window mean (last ⌈R/3⌉ rounds)
  /// final_accuracy of the cell's Cell::baseline().
  double baseline_accuracy = 0.0;
  /// max(0, (baseline − final) / baseline): 0 = the defense fully held, 1 =
  /// the attack drove accuracy to zero. 0 for baseline cells by construction.
  double attack_success = 0.0;

  // Detection tallies over the whole cell run (sums of its RoundRecords).
  std::uint64_t sampled_malicious = 0;
  std::uint64_t rejected_malicious = 0;  // true positives
  std::uint64_t rejected_benign = 0;     // false positives
  /// TP / (TP + FP); vacuously 1 when nothing was rejected.
  double ejection_precision = 1.0;
  /// TP / sampled_malicious; vacuously 1 when no malicious client responded.
  double ejection_recall = 1.0;
};

struct Leaderboard {
  std::string matrix_name;  // "smoke" / "default" / "full" / "custom"
  std::uint64_t seed = 0;   // the matrix seed every cell seed derives from
  std::size_t rounds = 0;
  std::vector<CellResult> cells;  // sorted by cell_id

  /// Row lookup by cell id; nullptr when absent.
  [[nodiscard]] const CellResult* find(const std::string& cell_id) const;
};

/// Run one cell (no baseline linkage: baseline_accuracy/attack_success stay 0).
[[nodiscard]] CellResult run_cell(const SweepMatrix& matrix, const Cell& cell);

/// Run the matrix's cells and link every row to its Cell::baseline(). With
/// `cell_ids` empty every cell runs; otherwise only the named cells and
/// their baselines do, and each row equals the full sweep's row (a cell
/// depends on (matrix seed, cell id) alone). Throws std::invalid_argument
/// naming the first id that is not a cell of the matrix, before any cell
/// runs. Logs one line per cell at info level.
[[nodiscard]] Leaderboard run_sweep(const SweepMatrix& matrix,
                                    const std::string& matrix_name,
                                    const std::vector<std::string>& cell_ids = {});

}  // namespace fedguard::scenario
