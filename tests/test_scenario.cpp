// Scenario sweep harness: matrix enumeration, cell-id replay, roster
// coverage, and the reproducibility contract — the same matrix under
// serial kernels serializes to byte-identical JSON on every run, and the
// matrix seed is the only source of variation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "scenario/matrix.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/logging.hpp"

namespace fedguard::scenario {
namespace {

/// Two-cell micro matrix (FedAvg baseline + covert) small enough that a full
/// sweep takes a couple of seconds. Serial kernels + the default fp32 wire
/// path are the determinism contract pinned by docs/ROBUSTNESS_SWEEP.md.
SweepMatrix micro_matrix(std::uint64_t seed) {
  SweepMatrix matrix = smoke_matrix(seed);
  matrix.base.train_samples = 600;
  matrix.base.test_samples = 150;
  matrix.base.auxiliary_samples = 150;
  matrix.base.rounds = 3;
  matrix.base.kernel_arch = tensor::kernels::KernelArch::Serial;
  matrix.attack_axis = {attacks::AttackType::Covert};
  matrix.defense_axis = {core::StrategyKind::FedAvg};
  matrix.regime_axis = {DataRegime{data::PartitionScheme::Iid, 10.0}};
  matrix.fraction_axis = {0.4};
  matrix.shards_axis = {1};
  return matrix;
}

TEST(DataRegimeLabel, StableStrings) {
  EXPECT_EQ((DataRegime{data::PartitionScheme::Iid, 10.0}.label()), "iid");
  EXPECT_EQ((DataRegime{data::PartitionScheme::Shard, 10.0}.label()), "shard");
  EXPECT_EQ((DataRegime{data::PartitionScheme::Dirichlet, 0.5}.label()),
            "dirichlet-a0.5");
  EXPECT_EQ((DataRegime{data::PartitionScheme::QuantitySkew, 1.0}.label()),
            "quantity_skew-a1");
}

TEST(DataRegimeLabel, ParseSchemeAndAlpha) {
  EXPECT_EQ(parse_regime("iid").scheme, data::PartitionScheme::Iid);
  EXPECT_EQ(parse_regime("shard").scheme, data::PartitionScheme::Shard);
  const DataRegime dirichlet = parse_regime("dirichlet:0.5");
  EXPECT_EQ(dirichlet.scheme, data::PartitionScheme::Dirichlet);
  EXPECT_EQ(dirichlet.alpha, 0.5);
  const DataRegime skew = parse_regime("quantity_skew:1");
  EXPECT_EQ(skew.scheme, data::PartitionScheme::QuantitySkew);
  EXPECT_EQ(skew.alpha, 1.0);
  EXPECT_THROW((void)parse_regime("orbital"), std::invalid_argument);
  EXPECT_THROW((void)parse_regime("dirichlet:zero"), std::invalid_argument);
  EXPECT_THROW((void)parse_regime("dirichlet:-1"), std::invalid_argument);
}

TEST(CellId, FormatAndSeedAreStable) {
  Cell cell;
  cell.attack = attacks::AttackType::Covert;
  cell.defense = core::StrategyKind::Krum;
  cell.regime = DataRegime{data::PartitionScheme::Iid, 10.0};
  cell.malicious_fraction = 0.4;
  EXPECT_EQ(cell.id(), "covert+40/krum/iid");
  // The seed is a pure function of (matrix seed, id): same in, same out;
  // different matrix seed or different cell, different out.
  EXPECT_EQ(cell.cell_seed(42), cell.cell_seed(42));
  EXPECT_NE(cell.cell_seed(42), cell.cell_seed(43));
  Cell other = cell;
  other.defense = core::StrategyKind::Median;
  EXPECT_NE(other.cell_seed(42), cell.cell_seed(42));
}

TEST(SweepMatrixEnumerate, BaselinePerDefenseRegimeAndSorted) {
  SweepMatrix matrix = micro_matrix(7);
  matrix.defense_axis = {core::StrategyKind::FedAvg, core::StrategyKind::Krum};
  const auto cells = matrix.enumerate();
  // 2 defenses × (1 baseline + 1 attack×fraction) = 4 cells.
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end(),
                             [](const Cell& a, const Cell& b) { return a.id() < b.id(); }));
  std::size_t baselines = 0;
  for (const Cell& cell : cells) {
    if (cell.attack == attacks::AttackType::None) {
      ++baselines;
      EXPECT_EQ(cell.malicious_fraction, 0.0);
    }
  }
  EXPECT_EQ(baselines, 2u);
  std::set<std::string> ids;
  for (const Cell& cell : cells) ids.insert(cell.id());
  EXPECT_EQ(ids.size(), cells.size()) << "cell ids must be unique";

  // A shards axis multiplies the matrix; only the k > 1 cells carry the
  // /s<k> id suffix, so every single-tier id survives verbatim.
  matrix.shards_axis = {1, 2};
  const auto sharded = matrix.enumerate();
  ASSERT_EQ(sharded.size(), 8u);
  std::set<std::string> sharded_ids;
  for (const Cell& cell : sharded) {
    sharded_ids.insert(cell.id());
    EXPECT_EQ(cell.id().find("/s") != std::string::npos, cell.shards > 1)
        << cell.id();
  }
  EXPECT_EQ(sharded_ids.size(), sharded.size());
  for (const std::string& id : ids) EXPECT_TRUE(sharded_ids.count(id)) << id;
  // Every cell's baseline is the none+0 cell of its defense × regime ×
  // shards, and the enumeration holds it.
  for (const Cell& cell : sharded) {
    const Cell baseline = cell.baseline();
    EXPECT_EQ(baseline.attack, attacks::AttackType::None);
    EXPECT_EQ(baseline.shards, cell.shards);
    EXPECT_TRUE(sharded_ids.count(baseline.id())) << cell.id();
  }
}

TEST(SweepMatrixEnumerate, CellConfigAppliesCoordinates) {
  const SweepMatrix matrix = micro_matrix(11);
  Cell cell;
  cell.attack = attacks::AttackType::SignFlip;
  cell.defense = core::StrategyKind::Median;
  cell.regime = DataRegime{data::PartitionScheme::Dirichlet, 0.5};
  cell.malicious_fraction = 0.3;
  const core::ExperimentConfig config = matrix.cell_config(cell);
  EXPECT_EQ(config.attack, attacks::AttackType::SignFlip);
  EXPECT_EQ(config.strategy, core::StrategyKind::Median);
  EXPECT_EQ(config.partition_scheme, data::PartitionScheme::Dirichlet);
  EXPECT_EQ(config.dirichlet_alpha, 0.5);
  EXPECT_EQ(config.malicious_fraction, 0.3);
  EXPECT_EQ(config.seed, cell.cell_seed(matrix.base.seed));
}

TEST(SweepRosters, FullMatrixCoversEveryAttackAndStrategy) {
  // The lint rule (sweep-roster) checks that the kAll* arrays list every
  // enumerator; this checks that the full matrix reaches each of them: 12
  // defenses × 3 regimes × (none+0 + 8 attacks × 2 fractions) cells.
  const std::vector<Cell> cells = full_matrix(42).enumerate();
  EXPECT_EQ(cells.size(), 612u);
  for (const attacks::AttackType type : attacks::kAllAttackTypes) {
    EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                            [&](const Cell& cell) { return cell.attack == type; }))
        << "attack missing from the full matrix: " << attacks::to_string(type);
  }
  for (const core::StrategyKind kind : core::kAllStrategyKinds) {
    EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                            [&](const Cell& cell) { return cell.defense == kind; }))
        << "strategy missing from the full matrix: " << core::to_string(kind);
  }
}

TEST(ApplyScenarioValues, ParsesAxesAndRejectsUnknownKeys) {
  SweepMatrix matrix = micro_matrix(1);
  std::map<std::string, std::string> values{
      {"scenario_attacks", "sign_flip, covert"},
      {"scenario_defenses", "krum,fedcpa"},
      {"scenario_regimes", "iid,dirichlet:0.5"},
      {"scenario_fractions", "0.2,0.4"},
      {"scenario_rounds", "5"},
      {"train_samples", "999"},  // non-scenario keys are ignored here
  };
  apply_scenario_values(matrix, values);
  ASSERT_EQ(matrix.attack_axis.size(), 2u);
  EXPECT_EQ(matrix.attack_axis[1], attacks::AttackType::Covert);
  ASSERT_EQ(matrix.defense_axis.size(), 2u);
  EXPECT_EQ(matrix.defense_axis[1], core::StrategyKind::FedCPA);
  ASSERT_EQ(matrix.regime_axis.size(), 2u);
  EXPECT_EQ(matrix.regime_axis[1].scheme, data::PartitionScheme::Dirichlet);
  ASSERT_EQ(matrix.fraction_axis.size(), 2u);
  EXPECT_EQ(matrix.base.rounds, 5u);

  std::map<std::string, std::string> bad{{"scenario_planets", "mars"}};
  EXPECT_THROW(apply_scenario_values(matrix, bad), std::invalid_argument);
  std::map<std::string, std::string> bad_fraction{{"scenario_fractions", "1.5"}};
  EXPECT_THROW(apply_scenario_values(matrix, bad_fraction), std::invalid_argument);
}

TEST(ApplyScenarioValues, NumbersAreParsedWhole) {
  // A numeric prefix is not a number, and "-1" must not wrap to 2^64 - 1
  // rounds (a sweep that never ends).
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"scenario_rounds", "7x"},
           {"scenario_rounds", "-1"},
           {"scenario_rounds", "0"},
           {"scenario_fractions", "0.2,0.4x"},
           {"scenario_shards", "1,2x"},
           {"scenario_shards", "-2"},
           {"scenario_regimes", "dirichlet:0.5x"},
       }) {
    SCOPED_TRACE(key + " = " + value);
    SweepMatrix matrix = micro_matrix(1);
    EXPECT_THROW(apply_scenario_values(matrix, {{key, value}}), std::invalid_argument);
  }
}

TEST(SweepDeterminism, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  util::set_log_level(util::LogLevel::Warn);
  const SweepMatrix matrix = micro_matrix(42);
  const Leaderboard first = run_sweep(matrix, "micro");
  const Leaderboard second = run_sweep(matrix, "micro");
  const std::string json_first = to_json(first);
  const std::string json_second = to_json(second);
  EXPECT_EQ(json_first, json_second)
      << "same matrix + serial kernels must serialize byte-identically";

  const Leaderboard reseeded = run_sweep(micro_matrix(43), "micro");
  EXPECT_NE(to_json(reseeded), json_first)
      << "the matrix seed must actually reach the federations";
  util::set_log_level(util::LogLevel::Info);
}

TEST(SweepDeterminism, CellReplaysFromSeedAndIdAlone) {
  util::set_log_level(util::LogLevel::Warn);
  const SweepMatrix matrix = micro_matrix(42);
  const auto cells = matrix.enumerate();
  const auto covert = std::find_if(cells.begin(), cells.end(), [](const Cell& c) {
    return c.attack == attacks::AttackType::Covert;
  });
  ASSERT_NE(covert, cells.end());
  // A row replayed in isolation matches the same row inside the full sweep:
  // nothing about the run order or sibling cells leaks into a cell.
  const CellResult solo = run_cell(matrix, *covert);
  const Leaderboard board = run_sweep(matrix, "micro");
  const CellResult* swept = board.find(solo.cell_id);
  ASSERT_NE(swept, nullptr);
  EXPECT_EQ(solo.seed, swept->seed);
  EXPECT_EQ(solo.final_accuracy, swept->final_accuracy);
  EXPECT_EQ(solo.sampled_malicious, swept->sampled_malicious);
  EXPECT_EQ(solo.rejected_malicious, swept->rejected_malicious);
  EXPECT_EQ(solo.rejected_benign, swept->rejected_benign);
  util::set_log_level(util::LogLevel::Info);
}

TEST(SweepDeterminism, ReplayedRowsEqualSweptRows) {
  util::set_log_level(util::LogLevel::Warn);
  SweepMatrix matrix = micro_matrix(42);
  matrix.attack_axis = {attacks::AttackType::SignFlip, attacks::AttackType::Covert};
  matrix.shards_axis = {1, 2};
  const Leaderboard sweep = run_sweep(matrix, "micro");
  ASSERT_EQ(sweep.cells.size(), 6u);

  // Each requested cell brings its own baseline: the /s2 row links to the
  // /s2 none+0 row, not to the single-tier one.
  const Leaderboard replay =
      run_sweep(matrix, "micro", {"covert+40/fedavg/iid/s2", "covert+40/fedavg/iid"});
  ASSERT_EQ(replay.cells.size(), 4u);
  EXPECT_EQ(replay.matrix_name, sweep.matrix_name);
  EXPECT_EQ(replay.seed, sweep.seed);
  EXPECT_EQ(replay.rounds, sweep.rounds);
  for (const CellResult& row : replay.cells) {
    SCOPED_TRACE(row.cell_id);
    const CellResult* swept = sweep.find(row.cell_id);
    ASSERT_NE(swept, nullptr);
    EXPECT_EQ(row.attack, swept->attack);
    EXPECT_EQ(row.malicious_pct, swept->malicious_pct);
    EXPECT_EQ(row.defense, swept->defense);
    EXPECT_EQ(row.regime, swept->regime);
    EXPECT_EQ(row.shards, swept->shards);
    EXPECT_EQ(row.seed, swept->seed);
    EXPECT_EQ(row.rounds, swept->rounds);
    EXPECT_EQ(row.final_accuracy, swept->final_accuracy);
    EXPECT_EQ(row.baseline_accuracy, swept->baseline_accuracy);
    EXPECT_EQ(row.attack_success, swept->attack_success);
    EXPECT_EQ(row.sampled_malicious, swept->sampled_malicious);
    EXPECT_EQ(row.rejected_malicious, swept->rejected_malicious);
    EXPECT_EQ(row.rejected_benign, swept->rejected_benign);
    EXPECT_EQ(row.ejection_precision, swept->ejection_precision);
    EXPECT_EQ(row.ejection_recall, swept->ejection_recall);
  }
  const CellResult* sharded = replay.find("covert+40/fedavg/iid/s2");
  const CellResult* sharded_baseline = replay.find("none+0/fedavg/iid/s2");
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(sharded_baseline, nullptr);
  EXPECT_EQ(sharded->baseline_accuracy, sharded_baseline->final_accuracy);

  // An id outside the matrix fails before any cell runs.
  EXPECT_THROW((void)run_sweep(matrix, "micro", {"covert+40/fedavg/iid/s3"}),
               std::invalid_argument);
  util::set_log_level(util::LogLevel::Info);
}

TEST(LeaderboardJson, SchemaAndLookup) {
  Leaderboard board;
  board.matrix_name = "unit";
  board.seed = 9;
  board.rounds = 4;
  CellResult row;
  row.cell_id = "covert+40/krum/iid";
  row.attack = "covert";
  row.malicious_pct = 40;
  row.defense = "krum";
  row.regime = "iid";
  row.final_accuracy = 0.5;
  board.cells.push_back(row);
  const std::string json = to_json(board);
  EXPECT_NE(json.find("\"schema\": \"fedguard-robustness-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"cell\": \"covert+40/krum/iid\""), std::string::npos);
  EXPECT_NE(json.find("\"final_accuracy\": 0.500000"), std::string::npos);
  ASSERT_NE(board.find("covert+40/krum/iid"), nullptr);
  EXPECT_EQ(board.find("absent"), nullptr);
}

}  // namespace
}  // namespace fedguard::scenario
