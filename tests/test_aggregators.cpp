#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "defenses/bulyan.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/norm_threshold.hpp"
#include "defenses/trimmed_mean.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {
namespace {

ClientUpdate make_update(int id, std::vector<float> psi, std::size_t samples = 1,
                         bool malicious = false) {
  ClientUpdate update;
  update.client_id = id;
  update.psi = std::move(psi);
  update.num_samples = samples;
  update.truly_malicious = malicious;
  return update;
}

AggregationContext context_for(std::span<const float> global) {
  AggregationContext context;
  context.global_parameters = global;
  return context;
}

const std::vector<float> kZeroGlobal3{0.0f, 0.0f, 0.0f};

TEST(FedAvg, UnweightedMeanWithEqualSamples) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, 2.0f}, 10));
  updates.push_back(make_update(1, {3.0f, 4.0f}, 10));
  FedAvgAggregator fedavg;
  const auto result = fedavg.aggregate(context_for({}), updates);
  EXPECT_FLOAT_EQ(result.parameters[0], 2.0f);
  EXPECT_FLOAT_EQ(result.parameters[1], 3.0f);
  EXPECT_EQ(result.accepted_clients.size(), 2u);
  EXPECT_TRUE(result.rejected_clients.empty());
}

TEST(FedAvg, SampleCountWeighting) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {0.0f}, 30));
  updates.push_back(make_update(1, {4.0f}, 10));
  FedAvgAggregator fedavg;
  const auto result = fedavg.aggregate(context_for({}), updates);
  EXPECT_FLOAT_EQ(result.parameters[0], 1.0f);  // (30*0 + 10*4)/40
}

TEST(FedAvg, ZeroWeightsFallBackToUnweighted) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {2.0f}, 0));
  updates.push_back(make_update(1, {4.0f}, 0));
  FedAvgAggregator fedavg;
  EXPECT_FLOAT_EQ(fedavg.aggregate(context_for({}), updates).parameters[0], 3.0f);
}

TEST(Aggregation, ValidationErrors) {
  FedAvgAggregator fedavg;
  std::vector<ClientUpdate> empty;
  EXPECT_THROW((void)fedavg.aggregate(context_for({}), empty), std::invalid_argument);
  std::vector<ClientUpdate> mismatched;
  mismatched.push_back(make_update(0, {1.0f, 2.0f}));
  mismatched.push_back(make_update(1, {1.0f}));
  EXPECT_THROW((void)fedavg.aggregate(context_for({}), mismatched), std::invalid_argument);
}

TEST(GeoMed, MatchesMedianInOneDimension) {
  // In 1-D the geometric median is the ordinary median.
  const std::vector<float> points{1.0f, 2.0f, 100.0f};
  const std::vector<float> result = geometric_median(points, 3, 1, 200, 1e-9);
  EXPECT_NEAR(result[0], 2.0f, 0.05f);
}

TEST(GeoMed, RobustToMinorityOutlier) {
  // 4 benign points near the origin, 1 gross outlier: the geometric median
  // stays near the benign cluster while the mean is dragged away.
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {0.1f, 0.0f}));
  updates.push_back(make_update(1, {-0.1f, 0.1f}));
  updates.push_back(make_update(2, {0.0f, -0.1f}));
  updates.push_back(make_update(3, {0.05f, 0.05f}));
  updates.push_back(make_update(4, {1000.0f, 1000.0f}, 1, true));
  GeoMedAggregator geomed;
  const auto result = geomed.aggregate(context_for({}), updates);
  EXPECT_LT(util::l2_norm(result.parameters), 1.0);
}

TEST(GeoMed, MinimizesDistanceSumBetterThanMean) {
  util::Rng rng{1};
  const std::size_t count = 9, dim = 5;
  std::vector<float> points(count * dim);
  for (auto& v : points) v = rng.uniform_float(-2.0f, 2.0f);
  const std::vector<float> median = geometric_median(points, count, dim);

  std::vector<float> mean(dim, 0.0f);
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t i = 0; i < dim; ++i) mean[i] += points[k * dim + i];
  }
  for (auto& v : mean) v /= static_cast<float>(count);

  auto distance_sum = [&](std::span<const float> center) {
    double total = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      total += util::l2_distance({points.data() + k * dim, dim}, center);
    }
    return total;
  };
  EXPECT_LE(distance_sum(median), distance_sum(mean) + 1e-6);
}

TEST(GeoMed, ExactAtSamplePoint) {
  // Majority of identical points: median is that point.
  std::vector<float> points{1.0f, 1.0f, 1.0f, 1.0f, 9.0f, 9.0f};  // 3x(1,?) ...
  const std::vector<float> result = geometric_median(points, 3, 2);
  EXPECT_NEAR(result[0], 1.0f, 0.2f);
}

TEST(Krum, ScoresFavorClusterCore) {
  // 5 points: 4 clustered, 1 far away; the outlier must get the worst score.
  std::vector<float> points{0.0f, 0.1f, -0.1f, 0.05f, 50.0f};
  const std::vector<double> scores = krum_scores(points, 5, 1, 1);
  const std::size_t worst =
      static_cast<std::size_t>(std::max_element(scores.begin(), scores.end()) -
                               scores.begin());
  EXPECT_EQ(worst, 4u);
}

TEST(Krum, SelectsBenignUpdateUnderMinorityAttack) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, 1.0f}));
  updates.push_back(make_update(1, {1.1f, 0.9f}));
  updates.push_back(make_update(2, {0.9f, 1.1f}));
  updates.push_back(make_update(3, {1.05f, 1.0f}));
  updates.push_back(make_update(4, {-30.0f, 40.0f}, 1, true));
  KrumAggregator krum{0.25, 1};
  const auto result = krum.aggregate(context_for({}), updates);
  // Selected vector is one of the benign cluster members.
  EXPECT_NEAR(result.parameters[0], 1.0f, 0.2f);
  EXPECT_NEAR(result.parameters[1], 1.0f, 0.2f);
  ASSERT_EQ(result.accepted_clients.size(), 1u);
  EXPECT_NE(result.accepted_clients[0], 4);
  EXPECT_EQ(result.rejected_clients.size(), 4u);
}

TEST(MultiKrum, AveragesKBest) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f}));
  updates.push_back(make_update(1, {1.2f}));
  updates.push_back(make_update(2, {0.8f}));
  updates.push_back(make_update(3, {100.0f}, 1, true));
  KrumAggregator multi_krum{0.25, 3};
  const auto result = multi_krum.aggregate(context_for({}), updates);
  EXPECT_NEAR(result.parameters[0], 1.0f, 0.15f);
  EXPECT_EQ(result.accepted_clients.size(), 3u);
}

TEST(Krum, HandlesTinyCohorts) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f}));
  updates.push_back(make_update(1, {2.0f}));
  KrumAggregator krum{0.5, 1};
  EXPECT_NO_THROW((void)krum.aggregate(context_for({}), updates));
}

TEST(CoordinateMedian, OddAndEvenCounts) {
  const std::vector<float> odd{1.0f, 10.0f, 2.0f, 20.0f, 3.0f, 30.0f};  // 3 points, dim 2
  const std::vector<float> result = coordinate_median(odd, 3, 2);
  EXPECT_FLOAT_EQ(result[0], 2.0f);
  EXPECT_FLOAT_EQ(result[1], 20.0f);

  const std::vector<float> even{1.0f, 2.0f, 3.0f, 4.0f};  // 4 points, dim 1
  EXPECT_FLOAT_EQ(coordinate_median(even, 4, 1)[0], 2.5f);
}

TEST(CoordinateMedian, RobustToMinorityExtremes) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {0.0f}));
  updates.push_back(make_update(1, {0.1f}));
  updates.push_back(make_update(2, {-0.1f}));
  updates.push_back(make_update(3, {1e6f}, 1, true));
  CoordinateMedianAggregator median;
  EXPECT_NEAR(median.aggregate(context_for({}), updates).parameters[0], 0.05f, 0.06f);
}

TEST(TrimmedMean, DropsExtremesSymmetrically) {
  const std::vector<float> points{-100.0f, 1.0f, 2.0f, 3.0f, 100.0f};
  EXPECT_FLOAT_EQ(trimmed_mean(points, 5, 1, 0.2)[0], 2.0f);
}

TEST(TrimmedMean, ZeroTrimIsMean) {
  const std::vector<float> points{1.0f, 2.0f, 3.0f};
  EXPECT_FLOAT_EQ(trimmed_mean(points, 3, 1, 0.0)[0], 2.0f);
}

TEST(TrimmedMean, InvalidFractionRejected) {
  EXPECT_THROW((void)TrimmedMeanAggregator(0.5), std::invalid_argument);
  EXPECT_THROW((void)TrimmedMeanAggregator(-0.1), std::invalid_argument);
}

TEST(NormThreshold, ClipsOversizedDeltas) {
  // Global at origin. 3 unit-norm benign deltas + 1 huge delta: the huge one
  // is scaled to the median norm, so the aggregate stays bounded.
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, 0.0f, 0.0f}));
  updates.push_back(make_update(1, {0.0f, 1.0f, 0.0f}));
  updates.push_back(make_update(2, {0.0f, 0.0f, 1.0f}));
  updates.push_back(make_update(3, {1000.0f, 0.0f, 0.0f}, 1, true));
  NormThresholdAggregator aggregator;
  const auto result = aggregator.aggregate(context_for(kZeroGlobal3), updates);
  EXPECT_LT(util::l2_norm(result.parameters), 1.0);
}

TEST(NormThreshold, SignFlipDefeatsIt) {
  // The paper's point: sign flips preserve norms, so the defense cannot
  // tell them apart and the poisoned mean survives.
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, 1.0f, 1.0f}));
  updates.push_back(make_update(1, {-1.0f, -1.0f, -1.0f}, 1, true));
  NormThresholdAggregator aggregator;
  const auto result = aggregator.aggregate(context_for(kZeroGlobal3), updates);
  EXPECT_NEAR(result.parameters[0], 0.0f, 1e-5f);  // attack cancelled the signal
}

TEST(DetectionStats, ConfusionMatrix) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f}, 1, true));    // rejected -> TP
  updates.push_back(make_update(1, {1.0f}, 1, true));    // accepted -> FN
  updates.push_back(make_update(2, {1.0f}, 1, false));   // rejected -> FP
  updates.push_back(make_update(3, {1.0f}, 1, false));   // accepted -> TN
  AggregationResult result;
  result.rejected_clients = {0, 2};
  result.accepted_clients = {1, 3};
  const DetectionStats stats = compute_detection_stats(updates, result);
  EXPECT_EQ(stats.true_positives, 1u);
  EXPECT_EQ(stats.false_negatives, 1u);
  EXPECT_EQ(stats.false_positives, 1u);
  EXPECT_EQ(stats.true_negatives, 1u);
}

// ---- Krum family against a textbook reference -------------------------------

using Points = std::vector<std::vector<float>>;

Points random_points(std::size_t count, std::size_t dim, util::Rng& rng) {
  Points points(count, std::vector<float>(dim));
  for (auto& row : points) {
    for (auto& v : row) v = rng.uniform_float(-1.0f, 1.0f);
  }
  return points;
}

/// Krum scores as Blanchard et al. state them, written naively: every
/// distance by util::squared_distance, a full sort, and the sum of the
/// n - f - 2 nearest, with f clamped as KrumAggregator documents so that at
/// least one neighbour counts.
std::vector<double> textbook_krum_scores(const Points& points, std::size_t f) {
  const std::size_t n = points.size();
  f = n < 3 ? 0 : std::min(f, n - 3);
  const std::size_t nearest = n < 2 ? 0 : std::max<std::size_t>(n - f - 2, 1);
  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> distances;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) distances.push_back(util::squared_distance(points[i], points[j]));
    }
    std::sort(distances.begin(), distances.end());
    for (std::size_t k = 0; k < nearest; ++k) scores[i] += distances[k];
  }
  return scores;
}

/// Bulyan's stage 1 as the paper states it: n - 2f rounds (at least one) of
/// Krum over the updates not yet chosen, each taking the best-scored one,
/// the lowest index among equal scores.
std::vector<std::size_t> textbook_bulyan_selection(const Points& points, std::size_t f) {
  const std::size_t n = points.size();
  const std::size_t rounds = n > 2 * f ? n - 2 * f : 1;
  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});
  std::vector<std::size_t> selected;
  while (selected.size() < rounds && !remaining.empty()) {
    Points subset;
    for (const std::size_t k : remaining) subset.push_back(points[k]);
    const std::vector<double> scores = textbook_krum_scores(subset, f);
    const auto best = std::min_element(scores.begin(), scores.end()) - scores.begin();
    selected.push_back(remaining[static_cast<std::size_t>(best)]);
    remaining.erase(remaining.begin() + best);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<ClientUpdate> updates_from(const Points& points) {
  std::vector<ClientUpdate> updates;
  for (std::size_t k = 0; k < points.size(); ++k) {
    updates.push_back(make_update(static_cast<int>(k), points[k]));
  }
  return updates;
}

std::vector<std::size_t> sorted_ids(const std::vector<int>& ids) {
  std::vector<std::size_t> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The textbook picks `keep` ids with the lowest scores; among exactly equal
/// scores any of them is a textbook answer. So: `keep` ids, and none of the
/// others scores lower than an accepted one.
void expect_textbook_picks(const std::vector<double>& scores, const AggregationResult& result,
                           std::size_t keep, const std::string& where) {
  ASSERT_EQ(result.accepted_clients.size(), keep) << where;
  double worst_accepted = -std::numeric_limits<double>::infinity();
  for (const int id : result.accepted_clients) {
    worst_accepted = std::max(worst_accepted, scores[static_cast<std::size_t>(id)]);
  }
  for (const int id : result.rejected_clients) {
    EXPECT_LE(worst_accepted, scores[static_cast<std::size_t>(id)])
        << where << ": rejected client " << id << " scores lower than an accepted one";
  }
}

struct KrumFamilyCase {
  std::string name;
  Points points;
  double fraction;
};

std::vector<KrumFamilyCase> krum_family_cases() {
  util::Rng rng{0x4b52554dull};
  std::vector<KrumFamilyCase> cases;
  cases.push_back({"random 50 x 1003", random_points(50, 1003, rng), 0.2});
  // Exact ties: rows 3 and 7 repeat row 0, row 9 repeats row 5.
  Points ties = random_points(12, 1003, rng);
  ties[3] = ties[0];
  ties[7] = ties[0];
  ties[9] = ties[5];
  cases.push_back({"duplicated rows", ties, 0.25});
  // f = floor(0.625 * 8) = 5 = m - 3: one neighbour per score, no clamp.
  cases.push_back({"m = f + 3", random_points(8, 1003, rng), 0.625});
  for (const std::size_t m : {1u, 2u, 3u}) {
    cases.push_back({"m = " + std::to_string(m), random_points(m, 1003, rng), 0.25});
  }
  return cases;
}

struct KrumFamilyReference : ::testing::Test {
  void TearDown() override { tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto); }
};

TEST_F(KrumFamilyReference, MatchesTheTextbookOnEveryTier) {
  // Serial tier: every score equals the textbook's bit for bit. Every tier:
  // Krum, Multi-Krum and Bulyan accept the textbook's clients.
  namespace kernels = tensor::kernels;
  std::vector<kernels::KernelArch> tiers{kernels::KernelArch::Serial};
  for (const auto arch : {kernels::KernelArch::Avx2, kernels::KernelArch::Avx512}) {
    if (kernels::kernel_arch_available(arch)) tiers.push_back(arch);
  }
  for (const KrumFamilyCase& c : krum_family_cases()) {
    const std::size_t count = c.points.size();
    const std::size_t dim = c.points.front().size();
    const auto f = static_cast<std::size_t>(c.fraction * static_cast<double>(count));
    const std::vector<double> expect_scores = textbook_krum_scores(c.points, f);
    const std::vector<std::size_t> expect_bulyan = textbook_bulyan_selection(c.points, f);
    std::vector<float> flat;
    for (const auto& row : c.points) flat.insert(flat.end(), row.begin(), row.end());
    const std::vector<ClientUpdate> updates = updates_from(c.points);
    const std::vector<float> global(dim, 0.0f);
    for (const kernels::KernelArch arch : tiers) {
      kernels::set_kernel_arch(arch);
      const std::string where = c.name + " on " + std::string{kernels::to_string(arch)};
      if (arch == kernels::KernelArch::Serial) {
        const std::vector<double> scores = krum_scores(flat, count, dim, f);
        ASSERT_EQ(scores.size(), count) << where;
        EXPECT_EQ(std::memcmp(scores.data(), expect_scores.data(), count * sizeof(double)), 0)
            << where;
      }
      KrumAggregator krum{c.fraction, 1};
      expect_textbook_picks(expect_scores, krum.aggregate(context_for(global), updates), 1,
                            "krum " + where);
      KrumAggregator multi_krum{c.fraction, 3};
      expect_textbook_picks(expect_scores, multi_krum.aggregate(context_for(global), updates),
                            std::min<std::size_t>(3, count), "multi_krum " + where);
      BulyanAggregator bulyan{c.fraction};
      EXPECT_EQ(sorted_ids(bulyan.aggregate(context_for(global), updates).accepted_clients),
                expect_bulyan)
          << "bulyan " + where;
    }
  }
}

TEST(Krum, NanDistancesRankAfterEveryNumber) {
  // With the asserts off, a non-finite update has NaN distances to every
  // other row. Each other row must leave it out of its nearest neighbours and
  // score as over the finite rows alone; the NaN row's own score is NaN.
  constexpr std::size_t kCount = 10;
  constexpr std::size_t kByzantine = 2;  // 6 nearest of 8 finite neighbours
  util::Rng rng{0x4e614eull};
  const Points points = random_points(kCount, 64, rng);
  std::vector<double> finite(kCount * kCount, 0.0);
  for (std::size_t a = 0; a < kCount; ++a) {
    for (std::size_t b = 0; b < kCount; ++b) {
      if (a != b) finite[a * kCount + b] = util::squared_distance(points[a], points[b]);
    }
  }
  std::vector<std::size_t> rows(kCount);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t nan_row = 0; nan_row < kCount; ++nan_row) {
    std::vector<double> distance2 = finite;
    for (std::size_t k = 0; k < kCount; ++k) {
      if (k == nan_row) continue;
      distance2[nan_row * kCount + k] = nan;
      distance2[k * kCount + nan_row] = nan;
    }
    const std::vector<double> scores =
        krum_scores_from_distances(distance2, kCount, rows, kByzantine);
    EXPECT_TRUE(std::isnan(scores[nan_row])) << "NaN row " << nan_row;
    for (std::size_t a = 0; a < kCount; ++a) {
      if (a == nan_row) continue;
      std::vector<double> neighbours;
      for (std::size_t b = 0; b < kCount; ++b) {
        if (b != a && b != nan_row) neighbours.push_back(finite[a * kCount + b]);
      }
      std::sort(neighbours.begin(), neighbours.end());
      double expect = 0.0;
      for (std::size_t k = 0; k < kCount - kByzantine - 2; ++k) expect += neighbours[k];
      EXPECT_EQ(scores[a], expect) << "row " << a << ", NaN row " << nan_row;
    }
  }
}

TEST(KrumFamily, NanUpdateIsNeverPicked) {
  // The Release regime: validate_view checks finiteness only with the
  // asserts on, so a NaN coordinate reaches the selection. Krum, Multi-Krum
  // and Bulyan must rank that update last and return a finite model.
  if (util::asserts_enabled()) {
    GTEST_SKIP() << "validate_view rejects the non-finite update before selection";
  }
  util::Rng rng{0x4e614f};
  const Points base = random_points(10, 64, rng);
  const std::vector<float> global(64, 0.0f);
  for (std::size_t nan_row = 0; nan_row < base.size(); ++nan_row) {
    Points points = base;
    points[nan_row][17] = std::numeric_limits<float>::quiet_NaN();
    const std::vector<ClientUpdate> updates = updates_from(points);
    KrumAggregator krum{0.25, 1};
    KrumAggregator multi_krum{0.25, 3};
    BulyanAggregator bulyan{0.25};
    for (AggregationStrategy* strategy :
         std::initializer_list<AggregationStrategy*>{&krum, &multi_krum, &bulyan}) {
      const AggregationResult result = strategy->aggregate(context_for(global), updates);
      const std::string where = strategy->name() + ", NaN row " + std::to_string(nan_row);
      EXPECT_EQ(std::count(result.accepted_clients.begin(), result.accepted_clients.end(),
                           static_cast<int>(nan_row)),
                0)
          << where;
      EXPECT_TRUE(std::all_of(result.parameters.begin(), result.parameters.end(),
                              [](float v) { return std::isfinite(v); }))
          << where;
    }
  }
}

// ---- Property sweeps: invariances every aggregation operator must satisfy ----

enum class Op { FedAvg, GeoMed, Krum, Median, TrimmedMean };

std::unique_ptr<AggregationStrategy> make_op(Op op) {
  switch (op) {
    case Op::FedAvg: return std::make_unique<FedAvgAggregator>();
    case Op::GeoMed: return std::make_unique<GeoMedAggregator>();
    case Op::Krum: return std::make_unique<KrumAggregator>(0.25, 1);
    case Op::Median: return std::make_unique<CoordinateMedianAggregator>();
    case Op::TrimmedMean: return std::make_unique<TrimmedMeanAggregator>(0.2);
  }
  return nullptr;
}

class AggregatorProperties : public ::testing::TestWithParam<Op> {};

TEST_P(AggregatorProperties, PermutationInvariant) {
  util::Rng rng{77};
  std::vector<ClientUpdate> updates;
  for (int k = 0; k < 7; ++k) {
    std::vector<float> psi(6);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
    updates.push_back(make_update(k, std::move(psi)));
  }
  auto strategy = make_op(GetParam());
  const std::vector<float> global(6, 0.0f);
  const auto forward = strategy->aggregate(context_for(global), updates);
  std::reverse(updates.begin(), updates.end());
  const auto reversed = strategy->aggregate(context_for(global), updates);
  for (std::size_t i = 0; i < forward.parameters.size(); ++i) {
    EXPECT_NEAR(forward.parameters[i], reversed.parameters[i], 1e-4f);
  }
}

TEST_P(AggregatorProperties, IdenticalUpdatesReturnThatUpdate) {
  std::vector<ClientUpdate> updates;
  const std::vector<float> psi{0.5f, -1.5f, 2.0f};
  for (int k = 0; k < 5; ++k) updates.push_back(make_update(k, psi));
  auto strategy = make_op(GetParam());
  const std::vector<float> global(3, 0.0f);
  const auto result = strategy->aggregate(context_for(global), updates);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    EXPECT_NEAR(result.parameters[i], psi[i], 1e-4f);
  }
}

TEST_P(AggregatorProperties, TranslationEquivariant) {
  util::Rng rng{78};
  std::vector<ClientUpdate> updates;
  for (int k = 0; k < 6; ++k) {
    std::vector<float> psi(4);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
    updates.push_back(make_update(k, std::move(psi)));
  }
  auto strategy = make_op(GetParam());
  const std::vector<float> global(4, 0.0f);
  const auto base = strategy->aggregate(context_for(global), updates);

  const float shift = 2.5f;
  for (auto& update : updates) {
    for (auto& v : update.psi) v += shift;
  }
  const auto shifted = strategy->aggregate(context_for(global), updates);
  for (std::size_t i = 0; i < base.parameters.size(); ++i) {
    EXPECT_NEAR(shifted.parameters[i], base.parameters[i] + shift, 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, AggregatorProperties,
                         ::testing::Values(Op::FedAvg, Op::GeoMed, Op::Krum, Op::Median,
                                           Op::TrimmedMean));

// ---- Zero-copy view API edge cases ------------------------------------------

UpdateMatrix arena_from(std::span<const ClientUpdate> updates) {
  UpdateMatrix arena;
  fill_update_matrix(arena, updates);
  return arena;
}

TEST(UpdateViewApi, MeanOfEmptySelectionThrows) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, 2.0f}));
  const UpdateMatrix arena = arena_from(updates);
  const UpdateView view{arena};
  EXPECT_THROW((void)mean_of(view, {}), std::invalid_argument);
}

TEST(UpdateViewApi, WeightedMeanZeroSamplesFallsBackToUnweighted) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {2.0f}, 0));
  updates.push_back(make_update(1, {4.0f}, 0));
  const UpdateMatrix arena = arena_from(updates);
  const std::vector<float> mean = weighted_mean(UpdateView{arena});
  EXPECT_FLOAT_EQ(mean[0], 3.0f);
}

TEST(UpdateViewApi, SingleRowSelectionReturnsThatRow) {
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f, -1.0f}, 3));
  updates.push_back(make_update(1, {7.0f, 9.0f}, 5));
  updates.push_back(make_update(2, {-4.0f, 2.0f}, 8));
  const UpdateMatrix arena = arena_from(updates);
  const UpdateView view{arena};

  const std::vector<std::size_t> only{1};
  const std::vector<float> picked = mean_of(view, only);
  EXPECT_FLOAT_EQ(picked[0], 7.0f);
  EXPECT_FLOAT_EQ(picked[1], 9.0f);

  // Sub-view selection keeps metadata and psi aligned with the arena row.
  std::vector<std::size_t> storage;
  const UpdateView sub = view.select(only, storage);
  ASSERT_EQ(sub.count(), 1u);
  EXPECT_EQ(sub.meta(0).client_id, 1);
  EXPECT_EQ(sub.meta(0).num_samples, 5u);
  EXPECT_FLOAT_EQ(weighted_mean(sub)[1], 9.0f);
}

TEST(UpdateViewApi, ComposedSelectionIndexesThroughParentView) {
  // A selection of a selection must resolve to the original arena rows.
  std::vector<ClientUpdate> updates;
  for (int k = 0; k < 5; ++k) {
    updates.push_back(make_update(k, {static_cast<float>(k), 0.0f}, 1));
  }
  const UpdateMatrix arena = arena_from(updates);
  const UpdateView view{arena};
  std::vector<std::size_t> outer_storage;
  const std::vector<std::size_t> outer{4, 2, 0};  // arena rows 4, 2, 0
  const UpdateView first = view.select(outer, outer_storage);
  std::vector<std::size_t> inner_storage;
  const std::vector<std::size_t> inner{1, 2};  // slots of `first` -> rows 2, 0
  const UpdateView second = first.select(inner, inner_storage);
  ASSERT_EQ(second.count(), 2u);
  EXPECT_EQ(second.meta(0).client_id, 2);
  EXPECT_EQ(second.meta(1).client_id, 0);
  EXPECT_FLOAT_EQ(second.psi(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(second.psi(1)[0], 0.0f);
}

TEST(UpdateViewApi, MeanOfIteratesSelectionOrder) {
  // mean_of must accumulate in the caller-given order (Krum passes its
  // score-sorted order; bit-for-bit parity depends on it). With doubles the
  // sum is order-sensitive only through rounding, so instead verify the
  // selection indirection itself by selecting the same row twice.
  std::vector<ClientUpdate> updates;
  updates.push_back(make_update(0, {1.0f}, 1));
  updates.push_back(make_update(1, {4.0f}, 1));
  const UpdateMatrix arena = arena_from(updates);
  const UpdateView view{arena};
  const std::vector<std::size_t> twice{1, 1};
  EXPECT_FLOAT_EQ(mean_of(view, twice)[0], 4.0f);
  const std::vector<std::size_t> both{1, 0};
  EXPECT_FLOAT_EQ(mean_of(view, both)[0], 2.5f);
}

}  // namespace
}  // namespace fedguard::defenses
