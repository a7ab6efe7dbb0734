#pragma once
// Declarative robustness sweep matrix (ROADMAP item 3, ByzFL-style —
// arXiv 2505.24802): {attack} × {defense} × {data regime} × {malicious
// fraction}, each cell a fully-specified short federation. Cells carry a
// stable human-readable id ("covert+40/krum/iid") and derive their
// experiment seed purely from (matrix seed, cell id), so any leaderboard row
// is replayable in isolation — a diff in BENCH_robustness.json is a science
// change, never run-order noise.
//
// One None-attack baseline cell per defense × regime × shards rides along in
// every enumeration (Cell::baseline() names it); the runner computes each
// cell's attack success rate against it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace fedguard::scenario {

/// One data-heterogeneity regime on the sweep's regime axis.
struct DataRegime {
  data::PartitionScheme scheme = data::PartitionScheme::Iid;
  double alpha = 10.0;  // Dirichlet / quantity-skew concentration
  /// Stable axis label: "iid", "dirichlet-a0.5", "shard",
  /// "quantity_skew-a1". Alpha is only part of the label for the schemes
  /// that read it.
  [[nodiscard]] std::string label() const;
};

/// Parse a regime label of the form "scheme" or "scheme:alpha"
/// (e.g. "dirichlet:0.5"); throws std::invalid_argument on bad input.
[[nodiscard]] DataRegime parse_regime(const std::string& text);

/// One fully-resolved sweep cell.
struct Cell {
  attacks::AttackType attack = attacks::AttackType::None;
  core::StrategyKind defense = core::StrategyKind::FedAvg;
  DataRegime regime;
  double malicious_fraction = 0.0;  // 0 for the None baseline cells
  /// Two-tier topology width (ExperimentConfig::shards). 1 = single-tier;
  /// >1 exercises the sharded selection path, whose robustness cost the
  /// leaderboard pins (docs/SHARDING.md).
  std::size_t shards = 1;

  /// "<attack>+<pct>/<defense>/<regime>", e.g. "covert+40/krum/iid"; sharded
  /// cells append "/s<shards>" ("covert+40/krum/iid/s2") so every
  /// single-tier id — and the committed baseline pinned to them — is stable.
  [[nodiscard]] std::string id() const;
  /// Experiment seed for this cell: a splitmix64 hash of the matrix seed and
  /// the cell id — nothing else. Replaying (seed, id) reproduces the cell.
  [[nodiscard]] std::uint64_t cell_seed(std::uint64_t matrix_seed) const;
  /// The cell this one's attack success is measured against: attack none,
  /// fraction 0, and the same defense, regime and shards. A baseline cell is
  /// its own baseline.
  [[nodiscard]] Cell baseline() const;
};

struct SweepMatrix {
  /// Per-cell base configuration; enumerate()'s cells override the attack,
  /// strategy, partition and seed fields on top of it.
  core::ExperimentConfig base;
  std::vector<attacks::AttackType> attack_axis;
  std::vector<core::StrategyKind> defense_axis;
  std::vector<DataRegime> regime_axis;
  std::vector<double> fraction_axis;
  /// Topology axis: every listed shard count gets its own cell (and its own
  /// None baseline per defense × regime). Empty is treated as {1}.
  std::vector<std::size_t> shards_axis{1};

  /// Cross product of the axes plus every such cell's baseline(), sorted by
  /// cell id. AttackType::None on the attack axis is ignored (the baselines
  /// already cover it).
  [[nodiscard]] std::vector<Cell> enumerate() const;
  /// The base config with one cell's coordinates applied.
  [[nodiscard]] core::ExperimentConfig cell_config(const Cell& cell) const;
};

/// Tiny 2-attack × 3-defense (+FedGuard) IID smoke matrix — seconds per cell;
/// the committed baseline in scripts/robustness_baseline.json is pinned to it.
[[nodiscard]] SweepMatrix smoke_matrix(std::uint64_t seed);
/// The paper's four attacks plus both adaptive attacks over the headline
/// defenses, IID + label-skew regimes.
[[nodiscard]] SweepMatrix default_matrix(std::uint64_t seed);
/// Every AttackType × every StrategyKind (attacks::kAllAttackTypes ×
/// core::kAllStrategyKinds) × three regimes × two fractions. Hours, not
/// seconds. fedguard_lint.py (rule sweep-roster) checks that both arrays
/// list every enumerator their to_string names, so a new attack or defense
/// cannot silently stay off the leaderboard.
[[nodiscard]] SweepMatrix full_matrix(std::uint64_t seed);

/// Split a comma-separated list, dropping blanks and empty items.
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

/// Apply descriptor lines (a --config file or bench_robustness's flags) to a
/// matrix: scenario_* keys set the axes (see docs/CONFIG_REFERENCE.md) and
/// every other key goes to the base config through core::apply_config_values.
/// An unknown key of either kind, or `scale`, throws std::invalid_argument.
void apply_scenario_values(SweepMatrix& matrix,
                           const std::map<std::string, std::string>& values);

}  // namespace fedguard::scenario
