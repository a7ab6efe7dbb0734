#include "scenario/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/config_file.hpp"
#include "util/rng.hpp"

namespace fedguard::scenario {

namespace {

std::string format_alpha(double alpha) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", alpha);
  return buffer;
}

/// Short federations tuned like tests/test_integration.cpp's tiny_config:
/// ~100 samples per client so per-client CVAEs stay trainable, six of ten
/// clients per round, and a Krum f-budget high enough for the sweep's
/// 40-50% adversary fractions.
core::ExperimentConfig sweep_base(std::uint64_t seed) {
  core::ExperimentConfig config = core::ExperimentConfig::small_scale();
  config.train_samples = 1000;
  config.test_samples = 200;
  config.auxiliary_samples = 250;
  config.num_clients = 10;
  config.clients_per_round = 6;
  config.rounds = 8;
  config.fedguard_total_samples = 100;
  config.krum_byzantine_fraction = 0.45;
  config.bulyan_byzantine_fraction = 0.2;
  config.spectral.pretrain_rounds = 3;
  config.spectral.pretrain_clients = 5;
  config.spectral.vae_epochs = 40;
  config.seed = seed;
  return config;
}

}  // namespace

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) items.push_back(current);
      current.clear();
    } else if (c != ' ' && c != '\t') {
      current += c;
    }
  }
  if (!current.empty()) items.push_back(current);
  return items;
}

std::string DataRegime::label() const {
  switch (scheme) {
    case data::PartitionScheme::Iid:
      return "iid";
    case data::PartitionScheme::Shard:
      return "shard";
    case data::PartitionScheme::Dirichlet:
      return "dirichlet-a" + format_alpha(alpha);
    case data::PartitionScheme::QuantitySkew:
      return "quantity_skew-a" + format_alpha(alpha);
  }
  return "unknown";
}

DataRegime parse_regime(const std::string& text) {
  DataRegime regime;
  const auto colon = text.find(':');
  const std::string scheme = text.substr(0, colon);
  regime.scheme = data::partition_scheme_from_string(scheme);
  if (colon != std::string::npos) {
    regime.alpha = core::to_double(text.substr(colon + 1), "scenario_regimes");
    if (regime.alpha <= 0.0) {
      throw std::invalid_argument{"parse_regime: alpha must be > 0 in '" + text + "'"};
    }
  }
  return regime;
}

std::string Cell::id() const {
  const auto pct = static_cast<long long>(std::llround(malicious_fraction * 100.0));
  std::string id = std::string{attacks::to_string(attack)} + "+" + std::to_string(pct) +
                   "/" + core::to_string(defense) + "/" + regime.label();
  // Single-tier ids stay exactly as before the shards axis existed, so the
  // committed leaderboard baseline keys remain valid.
  if (shards > 1) id += "/s" + std::to_string(shards);
  return id;
}

std::uint64_t Cell::cell_seed(std::uint64_t matrix_seed) const {
  // FNV-1a over the id, then two splitmix64 mixes with the matrix seed: the
  // cell seed is a pure function of (matrix seed, cell id) and nothing else.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : id()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  std::uint64_t state = hash ^ matrix_seed;
  (void)util::splitmix64(state);
  return util::splitmix64(state);
}

Cell Cell::baseline() const {
  Cell cell;
  cell.defense = defense;
  cell.regime = regime;
  cell.shards = shards;
  return cell;
}

std::vector<Cell> SweepMatrix::enumerate() const {
  std::vector<Cell> cells;
  const std::vector<std::size_t> shard_counts =
      shards_axis.empty() ? std::vector<std::size_t>{1} : shards_axis;
  for (const core::StrategyKind defense : defense_axis) {
    for (const DataRegime& regime : regime_axis) {
      for (const std::size_t shards : shard_counts) {
        Cell cell;
        cell.defense = defense;
        cell.regime = regime;
        cell.shards = shards;
        cells.push_back(cell.baseline());
        for (const attacks::AttackType attack : attack_axis) {
          if (attack == attacks::AttackType::None) continue;
          for (const double fraction : fraction_axis) {
            cell.attack = attack;
            cell.malicious_fraction = fraction;
            cells.push_back(cell);
          }
        }
      }
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.id() < b.id(); });
  return cells;
}

core::ExperimentConfig SweepMatrix::cell_config(const Cell& cell) const {
  core::ExperimentConfig config = base;
  config.attack = cell.attack;
  config.malicious_fraction = cell.malicious_fraction;
  config.strategy = cell.defense;
  config.partition_scheme = cell.regime.scheme;
  config.dirichlet_alpha = cell.regime.alpha;
  config.shards = cell.shards;
  config.seed = cell.cell_seed(base.seed);
  return config;
}

SweepMatrix smoke_matrix(std::uint64_t seed) {
  SweepMatrix matrix;
  matrix.base = sweep_base(seed);
  matrix.attack_axis = {attacks::AttackType::SignFlip, attacks::AttackType::Covert};
  matrix.defense_axis = {core::StrategyKind::FedAvg, core::StrategyKind::Krum,
                         core::StrategyKind::FedCPA, core::StrategyKind::FedGuard};
  matrix.regime_axis = {DataRegime{data::PartitionScheme::Iid, 10.0}};
  matrix.fraction_axis = {0.4};
  // Pin the two-tier robustness cost alongside the single-tier rows: /s2
  // cells run the same federations through the sharded selection path.
  matrix.shards_axis = {1, 2};
  return matrix;
}

SweepMatrix default_matrix(std::uint64_t seed) {
  SweepMatrix matrix;
  matrix.base = sweep_base(seed);
  matrix.attack_axis = {
      attacks::AttackType::SameValue, attacks::AttackType::SignFlip,
      attacks::AttackType::AdditiveNoise, attacks::AttackType::LabelFlip,
      attacks::AttackType::Covert, attacks::AttackType::KrumEvade,
  };
  matrix.defense_axis = {
      core::StrategyKind::FedAvg,        core::StrategyKind::Krum,
      core::StrategyKind::Median,        core::StrategyKind::TrimmedMean,
      core::StrategyKind::NormThreshold, core::StrategyKind::FedGuard,
      core::StrategyKind::FedCPA,
  };
  matrix.regime_axis = {
      DataRegime{data::PartitionScheme::Iid, 10.0},
      DataRegime{data::PartitionScheme::Dirichlet, 0.5},
  };
  matrix.fraction_axis = {0.4};
  return matrix;
}

SweepMatrix full_matrix(std::uint64_t seed) {
  SweepMatrix matrix;
  matrix.base = sweep_base(seed);
  matrix.attack_axis.assign(attacks::kAllAttackTypes.begin(),
                            attacks::kAllAttackTypes.end());
  matrix.defense_axis.assign(core::kAllStrategyKinds.begin(), core::kAllStrategyKinds.end());
  matrix.regime_axis = {
      DataRegime{data::PartitionScheme::Iid, 10.0},
      DataRegime{data::PartitionScheme::Dirichlet, 0.5},
      DataRegime{data::PartitionScheme::QuantitySkew, 0.5},
  };
  matrix.fraction_axis = {0.2, 0.4};
  return matrix;
}

void apply_scenario_values(SweepMatrix& matrix,
                           const std::map<std::string, std::string>& values) {
  for (const auto& [key, value] : values) {
    if (key.rfind("scenario_", 0) != 0) continue;  // base-config keys
    if (key == "scenario_attacks") {
      matrix.attack_axis.clear();
      for (const std::string& name : split_list(value)) {
        matrix.attack_axis.push_back(attacks::attack_type_from_string(name));
      }
    } else if (key == "scenario_defenses") {
      matrix.defense_axis.clear();
      for (const std::string& name : split_list(value)) {
        matrix.defense_axis.push_back(core::strategy_kind_from_string(name));
      }
    } else if (key == "scenario_regimes") {
      matrix.regime_axis.clear();
      for (const std::string& name : split_list(value)) {
        matrix.regime_axis.push_back(parse_regime(name));
      }
    } else if (key == "scenario_fractions") {
      matrix.fraction_axis.clear();
      for (const std::string& item : split_list(value)) {
        const double fraction = core::to_double(item, key);
        if (fraction < 0.0 || fraction >= 1.0) {
          throw std::invalid_argument{"scenario_fractions: '" + item +
                                      "' outside [0, 1)"};
        }
        matrix.fraction_axis.push_back(fraction);
      }
    } else if (key == "scenario_shards") {
      matrix.shards_axis.clear();
      for (const std::string& item : split_list(value)) {
        matrix.shards_axis.push_back(core::to_positive_size(item, key));
      }
    } else if (key == "scenario_rounds") {
      matrix.base.rounds = core::to_positive_size(value, key);
    } else {
      throw std::invalid_argument{"unknown scenario key '" + key + "'"};
    }
  }
}

}  // namespace fedguard::scenario
