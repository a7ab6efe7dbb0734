#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "data/synthetic_mnist.hpp"
#include "defenses/auxiliary_audit.hpp"
#include "defenses/bulyan.hpp"
#include "defenses/fedavg.hpp"
#include "defenses/fedcpa.hpp"
#include "defenses/fedguard.hpp"
#include "defenses/geomed.hpp"
#include "defenses/krum.hpp"
#include "defenses/median.hpp"
#include "defenses/norm_threshold.hpp"
#include "defenses/spectral.hpp"
#include "defenses/trimmed_mean.hpp"
#include "strategy_path.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {
namespace {

using strategy_path::aggregate;
using strategy_path::Upload;

Upload make_update(int id, std::vector<float> psi, std::size_t samples = 1,
                   bool malicious = false) {
  Upload update;
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
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f, 2.0f}, 10));
  updates.push_back(make_update(1, {3.0f, 4.0f}, 10));
  FedAvgAggregator fedavg;
  const auto result = aggregate(fedavg, context_for({}), updates);
  EXPECT_FLOAT_EQ(result.parameters[0], 2.0f);
  EXPECT_FLOAT_EQ(result.parameters[1], 3.0f);
  EXPECT_EQ(result.accepted_clients.size(), 2u);
  EXPECT_TRUE(result.rejected_clients.empty());
}

TEST(FedAvg, SampleCountWeighting) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {0.0f}, 30));
  updates.push_back(make_update(1, {4.0f}, 10));
  FedAvgAggregator fedavg;
  const auto result = aggregate(fedavg, context_for({}), updates);
  EXPECT_FLOAT_EQ(result.parameters[0], 1.0f);  // (30*0 + 10*4)/40
}

TEST(FedAvg, ZeroWeightsFallBackToUnweighted) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {2.0f}, 0));
  updates.push_back(make_update(1, {4.0f}, 0));
  FedAvgAggregator fedavg;
  EXPECT_FLOAT_EQ(aggregate(fedavg, context_for({}), updates).parameters[0], 3.0f);
}

TEST(Aggregation, ValidationErrors) {
  FedAvgAggregator fedavg;
  std::vector<Upload> empty;
  EXPECT_THROW((void)aggregate(fedavg, context_for({}), empty), std::invalid_argument);
}

TEST(GeoMed, MatchesMedianInOneDimension) {
  // In 1-D the geometric median is the ordinary median.
  const std::vector<float> points{1.0f, 2.0f, 100.0f};
  const std::vector<float> result = geometric_median(PointsView{points, 3, 1}, 200, 1e-9);
  EXPECT_NEAR(result[0], 2.0f, 0.05f);
}

TEST(GeoMed, RobustToMinorityOutlier) {
  // 4 benign points near the origin, 1 gross outlier: the geometric median
  // stays near the benign cluster while the mean is dragged away.
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {0.1f, 0.0f}));
  updates.push_back(make_update(1, {-0.1f, 0.1f}));
  updates.push_back(make_update(2, {0.0f, -0.1f}));
  updates.push_back(make_update(3, {0.05f, 0.05f}));
  updates.push_back(make_update(4, {1000.0f, 1000.0f}, 1, true));
  GeoMedAggregator geomed;
  const auto result = aggregate(geomed, context_for({}), updates);
  EXPECT_LT(util::l2_norm(result.parameters), 1.0);
}

TEST(GeoMed, MinimizesDistanceSumBetterThanMean) {
  util::Rng rng{1};
  const std::size_t count = 9, dim = 5;
  std::vector<float> points(count * dim);
  for (auto& v : points) v = rng.uniform_float(-2.0f, 2.0f);
  const std::vector<float> median = geometric_median(PointsView{points, count, dim});

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
  const std::vector<float> result = geometric_median(PointsView{points, 3, 2});
  EXPECT_NEAR(result[0], 1.0f, 0.2f);
}

TEST(Krum, ScoresFavorClusterCore) {
  // 5 points: 4 clustered, 1 far away; the outlier must get the worst score.
  std::vector<float> points{0.0f, 0.1f, -0.1f, 0.05f, 50.0f};
  const std::vector<double> scores = krum_scores(PointsView{points, 5, 1}, 1);
  const std::size_t worst =
      static_cast<std::size_t>(std::max_element(scores.begin(), scores.end()) -
                               scores.begin());
  EXPECT_EQ(worst, 4u);
}

TEST(Krum, SelectsBenignUpdateUnderMinorityAttack) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f, 1.0f}));
  updates.push_back(make_update(1, {1.1f, 0.9f}));
  updates.push_back(make_update(2, {0.9f, 1.1f}));
  updates.push_back(make_update(3, {1.05f, 1.0f}));
  updates.push_back(make_update(4, {-30.0f, 40.0f}, 1, true));
  KrumAggregator krum{0.25, 1};
  const auto result = aggregate(krum, context_for({}), updates);
  // Selected vector is one of the benign cluster members.
  EXPECT_NEAR(result.parameters[0], 1.0f, 0.2f);
  EXPECT_NEAR(result.parameters[1], 1.0f, 0.2f);
  ASSERT_EQ(result.accepted_clients.size(), 1u);
  EXPECT_NE(result.accepted_clients[0], 4);
  EXPECT_EQ(result.rejected_clients.size(), 4u);
}

TEST(MultiKrum, AveragesKBest) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f}));
  updates.push_back(make_update(1, {1.2f}));
  updates.push_back(make_update(2, {0.8f}));
  updates.push_back(make_update(3, {100.0f}, 1, true));
  KrumAggregator multi_krum{0.25, 3};
  const auto result = aggregate(multi_krum, context_for({}), updates);
  EXPECT_NEAR(result.parameters[0], 1.0f, 0.15f);
  EXPECT_EQ(result.accepted_clients.size(), 3u);
}

TEST(Krum, HandlesTinyCohorts) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f}));
  updates.push_back(make_update(1, {2.0f}));
  KrumAggregator krum{0.5, 1};
  EXPECT_NO_THROW((void)aggregate(krum, context_for({}), updates));
}

TEST(CoordinateMedian, OddAndEvenCounts) {
  const std::vector<float> odd{1.0f, 10.0f, 2.0f, 20.0f, 3.0f, 30.0f};  // 3 points, dim 2
  const std::vector<float> result = coordinate_median(PointsView{odd, 3, 2});
  EXPECT_FLOAT_EQ(result[0], 2.0f);
  EXPECT_FLOAT_EQ(result[1], 20.0f);

  const std::vector<float> even{1.0f, 2.0f, 3.0f, 4.0f};  // 4 points, dim 1
  EXPECT_FLOAT_EQ(coordinate_median(PointsView{even, 4, 1})[0], 2.5f);
}

TEST(CoordinateMedian, RobustToMinorityExtremes) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {0.0f}));
  updates.push_back(make_update(1, {0.1f}));
  updates.push_back(make_update(2, {-0.1f}));
  updates.push_back(make_update(3, {1e6f}, 1, true));
  CoordinateMedianAggregator median;
  EXPECT_NEAR(aggregate(median, context_for({}), updates).parameters[0], 0.05f, 0.06f);
}

TEST(TrimmedMean, DropsExtremesSymmetrically) {
  const std::vector<float> points{-100.0f, 1.0f, 2.0f, 3.0f, 100.0f};
  EXPECT_FLOAT_EQ(trimmed_mean(PointsView{points, 5, 1}, 0.2)[0], 2.0f);
}

TEST(TrimmedMean, ZeroTrimIsMean) {
  const std::vector<float> points{1.0f, 2.0f, 3.0f};
  EXPECT_FLOAT_EQ(trimmed_mean(PointsView{points, 3, 1}, 0.0)[0], 2.0f);
}

TEST(TrimmedMean, InvalidFractionRejected) {
  EXPECT_THROW((void)TrimmedMeanAggregator(0.5), std::invalid_argument);
  EXPECT_THROW((void)TrimmedMeanAggregator(-0.1), std::invalid_argument);
}

TEST(NormThreshold, ClipsOversizedDeltas) {
  // Global at origin. 3 unit-norm benign deltas + 1 huge delta: the huge one
  // is scaled to the median norm, so the aggregate stays bounded.
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f, 0.0f, 0.0f}));
  updates.push_back(make_update(1, {0.0f, 1.0f, 0.0f}));
  updates.push_back(make_update(2, {0.0f, 0.0f, 1.0f}));
  updates.push_back(make_update(3, {1000.0f, 0.0f, 0.0f}, 1, true));
  NormThresholdAggregator aggregator;
  const auto result = aggregate(aggregator, context_for(kZeroGlobal3), updates);
  EXPECT_LT(util::l2_norm(result.parameters), 1.0);
}

TEST(NormThreshold, SignFlipDefeatsIt) {
  // The paper's point: sign flips preserve norms, so the defense cannot
  // tell them apart and the poisoned mean survives.
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f, 1.0f, 1.0f}));
  updates.push_back(make_update(1, {-1.0f, -1.0f, -1.0f}, 1, true));
  NormThresholdAggregator aggregator;
  const auto result = aggregate(aggregator, context_for(kZeroGlobal3), updates);
  EXPECT_NEAR(result.parameters[0], 0.0f, 1e-5f);  // attack cancelled the signal
}

/// Keeps every slot but fixed ones, so the test below controls the split
/// that partial_aggregate_into writes and tallies.
class FixedSplit final : public AggregationStrategy {
 public:
  explicit FixedSplit(std::vector<std::size_t> kept) : kept_{std::move(kept)} {}
  [[nodiscard]] std::string name() const override { return "fixed_split"; }

 private:
  Selection do_partial_aggregate(const AggregationContext& /*context*/,
                                 const UpdateView& updates, ShardPartial& out) override {
    out.parameters.assign(updates.psi(0).begin(), updates.psi(0).end());
    return Selection{.kept = kept_};
  }

  std::vector<std::size_t> kept_;
};

TEST(PartialAggregate, TalliesTheCohortAgainstGroundTruth) {
  // The round's detection counts come from these tallies: rows, samples,
  // malicious rows, and malicious rows among the rejected.
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f}, 3, true));    // rejected -> TP
  updates.push_back(make_update(1, {1.0f}, 5, true));    // accepted -> FN
  updates.push_back(make_update(2, {1.0f}, 7, false));   // rejected -> FP
  updates.push_back(make_update(3, {1.0f}, 11, false));  // accepted -> TN
  FixedSplit strategy{{3, 1}};  // in any order
  ShardPartial partial;
  const AggregationResult result = aggregate(strategy, context_for({}), updates, &partial);
  EXPECT_EQ(partial.client_count, 4u);
  EXPECT_EQ(partial.weight_sum, 26.0);
  EXPECT_EQ(partial.malicious_count, 2u);
  EXPECT_EQ(partial.rejected_malicious_count, 1u);
  EXPECT_EQ(result.rejected_clients, (std::vector<int>{0, 2}));
  EXPECT_EQ(result.accepted_clients, (std::vector<int>{1, 3}));
}

TEST(PartialAggregate, KeptSlotOutsideTheCohortThrows) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f}));
  updates.push_back(make_update(1, {2.0f}));
  FixedSplit strategy{{0, 2}};
  EXPECT_THROW((void)aggregate(strategy, context_for({}), updates), std::logic_error);
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

std::vector<Upload> updates_from(const Points& points) {
  std::vector<Upload> updates;
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
    const std::vector<Upload> updates = updates_from(c.points);
    const std::vector<float> global(dim, 0.0f);
    for (const kernels::KernelArch arch : tiers) {
      kernels::set_kernel_arch(arch);
      const std::string where = c.name + " on " + std::string{kernels::to_string(arch)};
      if (arch == kernels::KernelArch::Serial) {
        const std::vector<double> scores = krum_scores(PointsView{flat, count, dim}, f);
        ASSERT_EQ(scores.size(), count) << where;
        EXPECT_EQ(std::memcmp(scores.data(), expect_scores.data(), count * sizeof(double)), 0)
            << where;
      }
      KrumAggregator krum{c.fraction, 1};
      expect_textbook_picks(expect_scores, aggregate(krum, context_for(global), updates), 1,
                            "krum " + where);
      KrumAggregator multi_krum{c.fraction, 3};
      expect_textbook_picks(expect_scores, aggregate(multi_krum, context_for(global), updates),
                            std::min<std::size_t>(3, count), "multi_krum " + where);
      BulyanAggregator bulyan{c.fraction};
      EXPECT_EQ(sorted_ids(aggregate(bulyan, context_for(global), updates).accepted_clients),
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
    const std::vector<Upload> updates = updates_from(points);
    KrumAggregator krum{0.25, 1};
    KrumAggregator multi_krum{0.25, 3};
    BulyanAggregator bulyan{0.25};
    for (AggregationStrategy* strategy :
         std::initializer_list<AggregationStrategy*>{&krum, &multi_krum, &bulyan}) {
      const AggregationResult result = aggregate(*strategy, context_for(global), updates);
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

// ---- The decision record every scoring selector writes -----------------------

/// A random cohort over `global`: `distinct` rows of ψ0 plus noise of a random
/// scale, the other rows copies of them (so their scores tie; distinct = 1
/// makes every score equal), each with a random decoder θ, sample count and
/// ground truth. Ids run down from 100 + 3·(count − 1), so slot order is not
/// id order.
std::vector<Upload> record_cohort(std::size_t count, std::size_t distinct,
                                  std::span<const float> global, std::size_t theta_dim,
                                  util::Rng& rng) {
  std::vector<Upload> cohort(count);
  for (std::size_t k = 0; k < count; ++k) {
    Upload& upload = cohort[k];
    upload.client_id = 100 + 3 * static_cast<int>(count - 1 - k);
    upload.num_samples = 1 + rng.uniform_int(50);
    upload.truly_malicious = rng.bernoulli(0.4);
    if (k < distinct) {
      const float scale = rng.uniform_float(0.0f, 0.5f);
      upload.psi.assign(global.begin(), global.end());
      for (float& v : upload.psi) v += scale * rng.uniform_float(-1.0f, 1.0f);
    } else {
      upload.psi = cohort[rng.uniform_int(distinct)].psi;
    }
    upload.theta.resize(theta_dim);
    for (float& v : upload.theta) v = rng.uniform_float(-0.2f, 0.2f);
  }
  return cohort;
}

/// The split the record must hold when `kept` names the kept slots: both
/// lists in slot order, and the malicious rows among the rejected tallied.
void expect_split(const std::vector<Upload>& cohort, const std::vector<bool>& kept,
                  const ShardPartial& partial, const std::string& where) {
  std::vector<int> accepted;
  std::vector<int> rejected;
  std::size_t rejected_malicious = 0;
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    (kept[k] ? accepted : rejected).push_back(cohort[k].client_id);
    if (!kept[k] && cohort[k].truly_malicious) ++rejected_malicious;
  }
  EXPECT_EQ(partial.accepted_clients, accepted) << where;
  EXPECT_EQ(partial.rejected_clients, rejected) << where;
  EXPECT_EQ(partial.rejected_malicious_count, rejected_malicious) << where;
}

/// The slots whose ids the partial accepted.
std::vector<bool> accepted_slots(const std::vector<Upload>& cohort,
                                 const ShardPartial& partial) {
  std::vector<bool> kept(cohort.size(), false);
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    kept[k] = std::count(partial.accepted_clients.begin(), partial.accepted_clients.end(),
                         cohort[k].client_id) > 0;
  }
  return kept;
}

/// The mean rule: the threshold is util::mean of the scores bit for bit, and
/// the kept slots are those on `side` of it, or every slot when none is.
void expect_mean_rule(const std::vector<Upload>& cohort, const ShardPartial& partial,
                      KeepSide side, const std::string& where) {
  ASSERT_EQ(partial.selection_scores.size(), cohort.size()) << where;
  const double mean = util::mean(std::span<const double>{partial.selection_scores});
  EXPECT_EQ(std::memcmp(&partial.selection_threshold, &mean, sizeof mean), 0) << where;
  std::vector<bool> kept(cohort.size());
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    const double score = partial.selection_scores[k];
    kept[k] = side == KeepSide::AtOrAbove ? score >= mean : score <= mean;
  }
  if (std::none_of(kept.begin(), kept.end(), [](bool b) { return b; })) {
    kept.assign(cohort.size(), true);
  }
  expect_split(cohort, kept, partial, where);
}

TEST(SelectByMean, KeepsOneSideOfTheMeanOrEverySlot) {
  std::vector<std::size_t> kept;
  const std::vector<double> scores{1.0, 0.0, 0.5};  // mean 0.5, exactly
  Selection selection = select_by_mean(scores, KeepSide::AtOrAbove, kept);
  EXPECT_EQ(std::vector<std::size_t>(selection.kept.begin(), selection.kept.end()),
            (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(selection.threshold, 0.5);
  EXPECT_EQ(selection.scores.data(), scores.data());
  selection = select_by_mean(scores, KeepSide::AtOrBelow, kept);
  EXPECT_EQ(std::vector<std::size_t>(selection.kept.begin(), selection.kept.end()),
            (std::vector<std::size_t>{1, 2}));
  // Three equal scores whose mean rounds above them, and a NaN: no slot
  // passes, so every slot is kept.
  const std::vector<double> equal(3, 0.1);
  ASSERT_LT(equal[0], util::mean(std::span<const double>{equal}));
  selection = select_by_mean(equal, KeepSide::AtOrAbove, kept);
  EXPECT_EQ(selection.kept.size(), 3u);
  const std::vector<double> nan(2, std::numeric_limits<double>::quiet_NaN());
  selection = select_by_mean(nan, KeepSide::AtOrBelow, kept);
  EXPECT_EQ(selection.kept.size(), 2u);
}

/// Krum and Multi-Krum: min(k, n) slots kept, none scoring worse than a
/// rejected one, and the record is krum_scores in slot order.
void expect_krum_record(const std::vector<Upload>& cohort, const ShardPartial& partial,
                        double fraction, std::size_t multi_k, const std::string& where) {
  std::vector<float> flat;
  for (const Upload& upload : cohort) {
    flat.insert(flat.end(), upload.psi.begin(), upload.psi.end());
  }
  const auto f = static_cast<std::size_t>(fraction * static_cast<double>(cohort.size()));
  const std::vector<double> scores =
      krum_scores(PointsView{flat, cohort.size(), cohort.front().psi.size()}, f);
  ASSERT_EQ(partial.selection_scores.size(), cohort.size()) << where;
  EXPECT_EQ(std::memcmp(partial.selection_scores.data(), scores.data(),
                        scores.size() * sizeof(double)),
            0)
      << where;
  EXPECT_EQ(partial.selection_threshold, 0.0) << where;
  const std::vector<bool> kept = accepted_slots(cohort, partial);
  EXPECT_EQ(static_cast<std::size_t>(std::count(kept.begin(), kept.end(), true)),
            std::min(multi_k, cohort.size()))
      << where;
  for (std::size_t a = 0; a < cohort.size(); ++a) {
    for (std::size_t r = 0; r < cohort.size(); ++r) {
      if (kept[a] && !kept[r]) {
        EXPECT_LE(scores[a], scores[r]) << where << ": kept slot " << a << ", rejected " << r;
      }
    }
  }
  expect_split(cohort, kept, partial, where);
}

/// FedCPA: the ceil(keep·n) highest scores kept, ties to the lower slot.
void expect_fedcpa_record(const std::vector<Upload>& cohort, const ShardPartial& partial,
                          double keep_fraction, const std::string& where) {
  const std::size_t n = cohort.size();
  ASSERT_EQ(partial.selection_scores.size(), n) << where;
  EXPECT_EQ(partial.selection_threshold, 0.0) << where;
  const std::vector<double>& scores = partial.selection_scores;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&scores](std::size_t a, std::size_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  const auto keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(keep_fraction * static_cast<double>(n))), 1, n);
  std::vector<bool> kept(n, false);
  for (std::size_t i = 0; i < keep; ++i) kept[order[i]] = true;
  expect_split(cohort, kept, partial, where);
}

struct DecisionRecord : ::testing::Test {
  void TearDown() override { tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto); }
};

TEST_F(DecisionRecord, EveryScoringSelectorRecordsItsCut) {
  namespace kernels = tensor::kernels;
  std::vector<kernels::KernelArch> tiers{kernels::KernelArch::Serial};
  for (const auto arch : {kernels::KernelArch::Avx2, kernels::KernelArch::Avx512}) {
    if (kernels::kernel_arch_available(arch)) tiers.push_back(arch);
  }
  const models::ImageGeometry geometry{1, 28, 28, 10};
  const data::Dataset auxiliary = data::generate_synthetic_mnist(60, 0x4155ull);
  const std::vector<float> global =
      models::Classifier{models::ClassifierArch::Mlp, geometry, 0x6c6full}.parameters_flat();
  AggregationContext context = context_for(global);
  context.round = 1;

  FedGuardConfig fedguard_config;
  fedguard_config.cvae_spec.hidden = 16;
  fedguard_config.cvae_spec.latent = 2;
  fedguard_config.total_samples = 40;
  SpectralConfig spectral_config;
  spectral_config.surrogate_dim = 256;
  spectral_config.pretrain_rounds = 2;
  spectral_config.pretrain_clients = 3;
  spectral_config.vae_epochs = 5;
  const FedCpaConfig fedcpa_config;

  struct Shape {
    std::size_t count;
    std::size_t distinct;
  };
  const Shape shapes[] = {{1, 1}, {2, 2}, {9, 9}, {10, 4}, {6, 1}};
  for (const kernels::KernelArch arch : tiers) {
    kernels::set_kernel_arch(arch);
    FedGuardAggregator fedguard{fedguard_config, models::ClassifierArch::Mlp, geometry, 7};
    AuxiliaryAuditAggregator audit{models::ClassifierArch::Mlp, geometry, auxiliary,
                                   /*warmup_rounds=*/1, 8};
    SpectralAggregator spectral{spectral_config, models::ClassifierArch::Mlp, geometry,
                                auxiliary, 9};
    KrumAggregator krum{0.25, 1};
    KrumAggregator multi_krum{0.25, 3};
    FedCpaAggregator fedcpa{fedcpa_config};
    util::Rng rng{0x5245434full};
    for (const Shape& shape : shapes) {
      const std::vector<Upload> cohort = record_cohort(
          shape.count, shape.distinct, global, fedguard.decoder_parameter_count(), rng);
      const std::string where = std::to_string(shape.count) + " rows, " +
                                std::to_string(shape.distinct) + " distinct, on " +
                                std::string{kernels::to_string(arch)};
      ShardPartial partial;
      (void)aggregate(fedguard, context, cohort, &partial);
      expect_mean_rule(cohort, partial, KeepSide::AtOrAbove, "fedguard, " + where);
      (void)aggregate(audit, context, cohort, &partial);
      expect_mean_rule(cohort, partial, KeepSide::AtOrAbove, "aux_audit, " + where);
      (void)aggregate(spectral, context, cohort, &partial);
      expect_mean_rule(cohort, partial, KeepSide::AtOrBelow, "spectral, " + where);
      (void)aggregate(krum, context, cohort, &partial);
      expect_krum_record(cohort, partial, 0.25, 1, "krum, " + where);
      (void)aggregate(multi_krum, context, cohort, &partial);
      expect_krum_record(cohort, partial, 0.25, 3, "multi_krum, " + where);
      (void)aggregate(fedcpa, context, cohort, &partial);
      expect_fedcpa_record(cohort, partial, fedcpa_config.keep_fraction, "fedcpa, " + where);
    }
    // AuxAudit's warm-up keeps every slot and scores none.
    AggregationContext warmup = context;
    warmup.round = 0;
    const std::vector<Upload> cohort =
        record_cohort(5, 5, global, fedguard.decoder_parameter_count(), rng);
    ShardPartial partial;
    (void)aggregate(audit, warmup, cohort, &partial);
    EXPECT_TRUE(partial.selection_scores.empty());
    EXPECT_EQ(partial.selection_threshold, 0.0);
    expect_split(cohort, std::vector<bool>(cohort.size(), true), partial, "aux_audit warm-up");
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
  std::vector<Upload> updates;
  for (int k = 0; k < 7; ++k) {
    std::vector<float> psi(6);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
    updates.push_back(make_update(k, std::move(psi)));
  }
  auto strategy = make_op(GetParam());
  const std::vector<float> global(6, 0.0f);
  const auto forward = aggregate(*strategy, context_for(global), updates);
  std::reverse(updates.begin(), updates.end());
  const auto reversed = aggregate(*strategy, context_for(global), updates);
  for (std::size_t i = 0; i < forward.parameters.size(); ++i) {
    EXPECT_NEAR(forward.parameters[i], reversed.parameters[i], 1e-4f);
  }
}

TEST_P(AggregatorProperties, IdenticalUpdatesReturnThatUpdate) {
  std::vector<Upload> updates;
  const std::vector<float> psi{0.5f, -1.5f, 2.0f};
  for (int k = 0; k < 5; ++k) updates.push_back(make_update(k, psi));
  auto strategy = make_op(GetParam());
  const std::vector<float> global(3, 0.0f);
  const auto result = aggregate(*strategy, context_for(global), updates);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    EXPECT_NEAR(result.parameters[i], psi[i], 1e-4f);
  }
}

TEST_P(AggregatorProperties, TranslationEquivariant) {
  util::Rng rng{78};
  std::vector<Upload> updates;
  for (int k = 0; k < 6; ++k) {
    std::vector<float> psi(4);
    for (auto& v : psi) v = rng.uniform_float(-1.0f, 1.0f);
    updates.push_back(make_update(k, std::move(psi)));
  }
  auto strategy = make_op(GetParam());
  const std::vector<float> global(4, 0.0f);
  const auto base = aggregate(*strategy, context_for(global), updates);

  const float shift = 2.5f;
  for (auto& update : updates) {
    for (auto& v : update.psi) v += shift;
  }
  const auto shifted = aggregate(*strategy, context_for(global), updates);
  for (std::size_t i = 0; i < base.parameters.size(); ++i) {
    EXPECT_NEAR(shifted.parameters[i], base.parameters[i] + shift, 1e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, AggregatorProperties,
                         ::testing::Values(Op::FedAvg, Op::GeoMed, Op::Krum, Op::Median,
                                           Op::TrimmedMean));

// ---- Zero-copy view API edge cases ------------------------------------------

UpdateMatrix arena_from(std::span<const Upload> updates) {
  UpdateMatrix arena;
  strategy_path::fill_arena(arena, updates);
  return arena;
}

std::vector<float> mean_of(const UpdateView& view, std::span<const std::size_t> selected) {
  std::vector<double> accumulator;
  std::vector<float> out;
  mean_of_into(view, selected, accumulator, out);
  return out;
}

std::vector<float> weighted_mean(const UpdateView& view) {
  std::vector<double> accumulator;
  std::vector<float> out;
  weighted_mean_into(view, accumulator, out);
  return out;
}

TEST(UpdateViewApi, MeanOfEmptySelectionThrows) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f, 2.0f}));
  const UpdateMatrix arena = arena_from(updates);
  const UpdateView view{arena};
  EXPECT_THROW((void)mean_of(view, {}), std::invalid_argument);
}

TEST(UpdateViewApi, WeightedMeanZeroSamplesFallsBackToUnweighted) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {2.0f}, 0));
  updates.push_back(make_update(1, {4.0f}, 0));
  const UpdateMatrix arena = arena_from(updates);
  const std::vector<float> mean = weighted_mean(UpdateView{arena});
  EXPECT_FLOAT_EQ(mean[0], 3.0f);
}

TEST(UpdateViewApi, SingleRowSelectionReturnsThatRow) {
  std::vector<Upload> updates;
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
  std::vector<Upload> updates;
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
  // mean_of_into must accumulate in the caller-given order (Krum passes its
  // score-sorted order; bit-for-bit parity depends on it). With doubles the
  // sum is order-sensitive only through rounding, so instead verify the
  // selection indirection itself by selecting the same row twice.
  std::vector<Upload> updates;
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
