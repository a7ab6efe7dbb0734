// Breakdown-point property sweeps: every robust aggregator is run against a
// crafted update set with a varying fraction of colluding outliers, checking
// that it resists below its theoretical breakdown point and (for the
// classical operators) breaks above it. This is the statistical core of the
// paper's §V-A discussion — "distance-based defenses are unable to defend in
// situations involving a majority of malicious peers".

#include <gtest/gtest.h>

#include <cmath>

#include "defenses/bulyan.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedcpa.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/trimmed_mean.hpp"
#include "scenario/matrix.hpp"
#include "scenario/runner.hpp"
#include "strategy_path.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {
namespace {

using strategy_path::aggregate;
using strategy_path::Upload;

constexpr std::size_t kCohort = 20;
constexpr std::size_t kDim = 16;
constexpr float kOutlierValue = 50.0f;

/// Cohort of kCohort updates: benign near 1.0 (small jitter), the first
/// `malicious` replaced by colluding outliers at kOutlierValue.
std::vector<Upload> make_cohort(std::size_t malicious, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Upload> updates(kCohort);
  for (std::size_t k = 0; k < kCohort; ++k) {
    updates[k].client_id = static_cast<int>(k);
    updates[k].num_samples = 100;
    updates[k].truly_malicious = k < malicious;
    updates[k].psi.resize(kDim);
    for (auto& v : updates[k].psi) {
      v = updates[k].truly_malicious ? kOutlierValue
                                     : 1.0f + rng.uniform_float(-0.05f, 0.05f);
    }
  }
  return updates;
}

/// Distance of the aggregate from the benign consensus at 1.0.
double aggregate_error(AggregationStrategy& strategy, std::size_t malicious,
                       std::uint64_t seed) {
  const auto updates = make_cohort(malicious, seed);
  const std::vector<float> global(kDim, 0.0f);
  AggregationContext context;
  context.global_parameters = global;
  const auto result = aggregate(strategy, context, updates);
  std::vector<float> benign(kDim, 1.0f);
  return util::l2_distance(result.parameters, benign) / std::sqrt(double(kDim));
}

class BreakdownSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BreakdownSweep, GeoMedResistsMinorityBreaksOnMajority) {
  const std::size_t malicious = GetParam();
  GeoMedAggregator geomed;
  const double error = aggregate_error(geomed, malicious, 42 + malicious);
  if (malicious < kCohort / 2) {
    EXPECT_LT(error, 1.0) << malicious << " outliers of " << kCohort;
  } else if (malicious > kCohort / 2) {
    // Majority of colluding identical outliers: GeoMed converges to them.
    EXPECT_GT(error, 10.0) << malicious << " outliers of " << kCohort;
  }
}

TEST_P(BreakdownSweep, CoordinateMedianSameBreakdown) {
  const std::size_t malicious = GetParam();
  CoordinateMedianAggregator median;
  const double error = aggregate_error(median, malicious, 43 + malicious);
  if (malicious < kCohort / 2) {
    EXPECT_LT(error, 1.0);
  } else if (malicious > kCohort / 2) {
    EXPECT_GT(error, 10.0);
  }
}

TEST_P(BreakdownSweep, FedAvgBreaksImmediately) {
  const std::size_t malicious = GetParam();
  if (malicious == 0) GTEST_SKIP();
  FedAvgAggregator fedavg;
  // Even a single gross outlier shifts the mean by (50-1)/20 ≈ 2.45.
  EXPECT_GT(aggregate_error(fedavg, malicious, 44 + malicious), 2.0);
}

TEST_P(BreakdownSweep, TrimmedMeanResistsUpToTrimFraction) {
  const std::size_t malicious = GetParam();
  TrimmedMeanAggregator trimmed{0.3};
  const double error = aggregate_error(trimmed, malicious, 45 + malicious);
  if (malicious <= 5) {  // 30% of 20 = 6 trimmed per side
    EXPECT_LT(error, 1.0) << malicious;
  }
}

TEST_P(BreakdownSweep, KrumResistsBelowItsAssumption) {
  const std::size_t malicious = GetParam();
  KrumAggregator krum{0.45, 1};
  const double error = aggregate_error(krum, malicious, 46 + malicious);
  if (malicious <= 8) {  // below the configured 45% assumption
    EXPECT_LT(error, 1.0) << malicious;
  }
}

TEST_P(BreakdownSweep, BulyanResistsBelowQuarter) {
  const std::size_t malicious = GetParam();
  BulyanAggregator bulyan{0.25};
  const double error = aggregate_error(bulyan, malicious, 47 + malicious);
  if (malicious <= kCohort / 4) {
    EXPECT_LT(error, 1.0) << malicious;
  }
}

INSTANTIATE_TEST_SUITE_P(MaliciousCounts, BreakdownSweep,
                         ::testing::Values(0u, 2u, 4u, 5u, 8u, 12u, 14u));

// The paper's headline property at the operator level: with EXACTLY 50%
// colluding attackers forming a cluster as tight as the benign one, every
// purely geometric operator is at the mercy of tie-breaking, while an
// accuracy-auditing filter (FedGuard; tested in test_fedguard_agg at the
// system level) still separates them.
TEST(BreakdownEdge, FiftyPercentIsGeometricallyAmbiguous) {
  GeoMedAggregator geomed;
  const auto updates = make_cohort(kCohort / 2, 99);
  const std::vector<float> global(kDim, 0.0f);
  AggregationContext context;
  context.global_parameters = global;
  const auto result = aggregate(geomed, context, updates);
  // The aggregate lands between the clusters — far from BOTH the benign
  // consensus and zero; the defense has no information to pick a side.
  const double to_benign =
      util::l2_distance(result.parameters, std::vector<float>(kDim, 1.0f));
  const double to_outliers =
      util::l2_distance(result.parameters, std::vector<float>(kDim, kOutlierValue));
  EXPECT_GT(to_benign + to_outliers,
            util::l2_distance(std::vector<float>(kDim, 1.0f),
                              std::vector<float>(kDim, kOutlierValue)) -
                1e-3);
}

// ---- Adaptive attacks: operator-level geometry ------------------------------

/// Covert cohort (arXiv 2101.11799 geometry): benign delta_k ~ N(1, 0.3) per
/// coordinate; each attacker submits the exact mirror −delta_k of its own
/// honest delta, so per-update norms are indistinguishable from benign.
std::vector<Upload> make_covert_cohort(std::size_t malicious, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Upload> updates(kCohort);
  for (std::size_t k = 0; k < kCohort; ++k) {
    updates[k].client_id = static_cast<int>(k);
    updates[k].num_samples = 100;
    updates[k].truly_malicious = k < malicious;
    updates[k].psi.resize(kDim);
    for (auto& v : updates[k].psi) {
      v = 1.0f + rng.uniform_float(-0.3f, 0.3f);
      if (updates[k].truly_malicious) v = -v;
    }
  }
  return updates;
}

TEST(CovertBreakdown, FedAvgDegradesLinearlyInAttackerFraction) {
  FedAvgAggregator fedavg;
  double previous = 0.0;
  for (const std::size_t malicious : {0u, 4u, 8u}) {
    const auto updates = make_covert_cohort(malicious, 100 + malicious);
    AggregationContext context;
    const std::vector<float> global(kDim, 0.0f);
    context.global_parameters = global;
    const auto result = aggregate(fedavg, context, updates);
    const double error = util::l2_distance(result.parameters,
                                           std::vector<float>(kDim, 1.0f)) /
                         std::sqrt(double(kDim));
    // Mean over the mirrored cohort is (1 − 2p)·benign: error ≈ 2p.
    EXPECT_NEAR(error, 2.0 * static_cast<double>(malicious) / kCohort, 0.15);
    EXPECT_GE(error, previous - 0.05);
    previous = error;
  }
}

TEST(CovertBreakdown, KrumAndFedCpaHoldBelowParity) {
  KrumAggregator krum{0.45, 1};
  // At kDim = 16 the default 5% critical fraction clamps to a single
  // coordinate and every similarity degenerates to 0; half the coordinates
  // is the regime the defense actually operates in on real models.
  FedCpaAggregator fedcpa{FedCpaConfig{0.5, 0.5}};
  for (const std::size_t malicious : {2u, 4u, 6u, 8u}) {
    const auto updates = make_covert_cohort(malicious, 200 + malicious);
    AggregationContext context;
    const std::vector<float> global(kDim, 0.0f);
    context.global_parameters = global;
    for (AggregationStrategy* strategy :
         std::initializer_list<AggregationStrategy*>{&krum, &fedcpa}) {
      const auto result = aggregate(*strategy, context, updates);
      const double error = util::l2_distance(result.parameters,
                                             std::vector<float>(kDim, 1.0f)) /
                           std::sqrt(double(kDim));
      EXPECT_LT(error, 1.0) << strategy->name() << " with " << malicious
                            << " covert attackers of " << kCohort;
    }
  }
}

TEST(CovertBreakdown, FedCpaEjectsTheMirroredClique) {
  FedCpaAggregator fedcpa{FedCpaConfig{0.5, 0.5}};
  const auto updates = make_covert_cohort(6, 321);
  AggregationContext context;
  const std::vector<float> global(kDim, 0.0f);
  context.global_parameters = global;
  ShardPartial partial;
  (void)aggregate(fedcpa, context, updates, &partial);
  // keep_fraction 0.5 rejects 10 of 20: all 6 mirrored attackers must be in
  // the rejected half (their consensus-gated similarity clamps to zero).
  EXPECT_EQ(partial.malicious_count, 6u);
  EXPECT_EQ(partial.rejected_malicious_count, 6u);
}

/// Krum-evading cohort: benign updates scatter widely around the consensus at
/// 1.0; colluders place themselves in an ε-tight cluster just off the global
/// model (0.0), closer to each other than any benign pair is.
std::vector<Upload> make_krum_evade_cohort(std::size_t malicious, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Upload> updates(kCohort);
  for (std::size_t k = 0; k < kCohort; ++k) {
    updates[k].client_id = static_cast<int>(k);
    updates[k].num_samples = 100;
    updates[k].truly_malicious = k < malicious;
    updates[k].psi.resize(kDim);
    for (auto& v : updates[k].psi) {
      v = updates[k].truly_malicious ? 0.05f + rng.uniform_float(-1e-4f, 1e-4f)
                                     : 1.0f + rng.uniform_float(-0.8f, 0.8f);
    }
  }
  return updates;
}

TEST(KrumEvadeBreakdown, TightColluderClusterDefeatsKrum) {
  KrumAggregator krum{0.45, 1};
  // Krum sums SQUARED distances over the n−f−2 nearest neighbours, so the
  // clique's free intra-cluster zeros only dominate once few cross-cluster
  // terms remain: at this geometry the crossover is m = 8 of 20 — exactly
  // the sweep's 40% adversary fraction. Below it Krum survives (and the
  // m ≤ 6 cases pass through KrumAndFedCpaHoldBelowParity's machinery).
  for (const std::size_t malicious : {8u, 10u}) {
    const double error = [&] {
      const auto updates = make_krum_evade_cohort(malicious, 400 + malicious);
      AggregationContext context;
      const std::vector<float> global(kDim, 0.0f);
      context.global_parameters = global;
      const auto result = aggregate(krum, context, updates);
      return util::l2_distance(result.parameters, std::vector<float>(kDim, 1.0f)) /
             std::sqrt(double(kDim));
    }();
    EXPECT_GT(error, 0.9) << malicious << " colluders of " << kCohort;
  }
}

TEST(KrumEvadeBreakdown, CoordinateMedianHolds) {
  CoordinateMedianAggregator median;
  const auto updates = make_krum_evade_cohort(6, 500);
  AggregationContext context;
  const std::vector<float> global(kDim, 0.0f);
  context.global_parameters = global;
  const auto result = aggregate(median, context, updates);
  const double error = util::l2_distance(result.parameters,
                                         std::vector<float>(kDim, 1.0f)) /
                       std::sqrt(double(kDim));
  EXPECT_LT(error, 0.5);
}

// ---- Adaptive attacks: federation-level breakdown ---------------------------
//
// Short seeded federations through the scenario harness; attacker-ejection
// precision/recall comes from the run's round records (the same path the
// BENCH_robustness.json leaderboard reports).

scenario::SweepMatrix federation_matrix() {
  scenario::SweepMatrix matrix = scenario::smoke_matrix(/*seed=*/42);
  // Serial kernels: identical trajectories on every host, so the accuracy
  // and precision/recall floors below hold everywhere.
  matrix.base.kernel_arch = tensor::kernels::KernelArch::Serial;
  return matrix;
}

scenario::CellResult run_federation_cell(attacks::AttackType attack,
                                         core::StrategyKind defense,
                                         double fraction) {
  const scenario::SweepMatrix matrix = federation_matrix();
  scenario::Cell cell;
  cell.attack = attack;
  cell.defense = defense;
  cell.regime = scenario::DataRegime{data::PartitionScheme::Iid, 10.0};
  cell.malicious_fraction = fraction;
  util::set_log_level(util::LogLevel::Warn);
  const scenario::CellResult result = scenario::run_cell(matrix, cell);
  util::set_log_level(util::LogLevel::Info);
  return result;
}

TEST(AdaptiveFederationBreakdown, CovertDegradesFedAvgButNotTheRobustTrio) {
  const auto fedavg =
      run_federation_cell(attacks::AttackType::Covert, core::StrategyKind::FedAvg, 0.4);
  const auto krum =
      run_federation_cell(attacks::AttackType::Covert, core::StrategyKind::Krum, 0.4);
  const auto fedcpa =
      run_federation_cell(attacks::AttackType::Covert, core::StrategyKind::FedCPA, 0.4);
  const auto fedguard =
      run_federation_cell(attacks::AttackType::Covert, core::StrategyKind::FedGuard, 0.4);

  // Averaging has no defense against the mirrored gradient-ascent updates:
  // the effective step shrinks to (1 − 2p) of honest progress.
  EXPECT_LT(fedavg.final_accuracy, 0.55);
  EXPECT_GT(krum.final_accuracy, fedavg.final_accuracy + 0.10);
  EXPECT_GT(fedcpa.final_accuracy, fedavg.final_accuracy + 0.25);
  EXPECT_GT(fedguard.final_accuracy, fedavg.final_accuracy + 0.25);

  // Ejection quality pinned from the round records: FedAvg never rejects
  // (recall 0 with sampled attackers), the filtering defenses actually catch
  // the mirrored updates.
  EXPECT_GT(fedavg.sampled_malicious, 0u);
  EXPECT_EQ(fedavg.rejected_malicious, 0u);
  EXPECT_EQ(fedavg.rejected_benign, 0u);
  EXPECT_DOUBLE_EQ(fedavg.ejection_recall, 0.0);
  EXPECT_GT(fedguard.ejection_precision, 0.8);
  EXPECT_GT(fedguard.ejection_recall, 0.85);
  EXPECT_GT(fedcpa.ejection_recall, 0.6);
}

TEST(AdaptiveFederationBreakdown, KrumEvadeDefeatsKrumButNotFedGuard) {
  const auto krum = run_federation_cell(attacks::AttackType::KrumEvade,
                                        core::StrategyKind::Krum, 0.4);
  const auto krum_baseline =
      run_federation_cell(attacks::AttackType::None, core::StrategyKind::Krum, 0.0);
  const auto fedguard = run_federation_cell(attacks::AttackType::KrumEvade,
                                            core::StrategyKind::FedGuard, 0.4);

  // The ε-tight colluding cluster wins the neighbour-sum score whenever
  // enough colluders are sampled; Krum then re-publishes a near-stale model.
  EXPECT_LT(krum.final_accuracy, krum_baseline.final_accuracy - 0.15);
  // FedGuard holds accuracy. Note it does NOT need high ejection recall
  // here: the evading updates sit ε from the current global, so the ones it
  // accepts merely dilute the round mean instead of poisoning it — the
  // attack is harmless against any defense it cannot steer.
  EXPECT_GT(fedguard.final_accuracy, krum.final_accuracy + 0.15);
}

}  // namespace
}  // namespace fedguard::defenses
