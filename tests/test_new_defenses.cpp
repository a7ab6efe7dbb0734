// Tests of the robust-aggregation extensions: Bulyan and the PDGAN-style
// auxiliary-dataset audit, plus the FedProx proximal client objective.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "data/synthetic_mnist.hpp"
#include "defenses/auxiliary_audit.hpp"
#include "defenses/bulyan.hpp"
#include "defenses/fedcpa.hpp"
#include "models/classifier.hpp"
#include "strategy_path.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {
namespace {

using strategy_path::aggregate;
using strategy_path::Upload;

Upload make_update(int id, std::vector<float> psi, bool malicious = false) {
  Upload update;
  update.client_id = id;
  update.psi = std::move(psi);
  update.num_samples = 100;
  update.truly_malicious = malicious;
  return update;
}

AggregationContext zero_context(const std::vector<float>& global) {
  AggregationContext context;
  context.global_parameters = global;
  return context;
}

TEST(Bulyan, RobustToMinorityOutliers) {
  util::Rng rng{401};
  std::vector<Upload> updates;
  for (int k = 0; k < 6; ++k) {
    std::vector<float> psi(8);
    for (auto& v : psi) v = 1.0f + rng.uniform_float(-0.1f, 0.1f);
    updates.push_back(make_update(k, std::move(psi)));
  }
  // Two colluding extremes.
  updates.push_back(make_update(6, std::vector<float>(8, 100.0f), true));
  updates.push_back(make_update(7, std::vector<float>(8, 100.0f), true));

  BulyanAggregator bulyan{0.25};
  const std::vector<float> global(8, 0.0f);
  const auto result = aggregate(bulyan, zero_context(global), updates);
  for (const float v : result.parameters) EXPECT_NEAR(v, 1.0f, 0.2f);
}

TEST(Bulyan, IdenticalUpdatesPassThrough) {
  const std::vector<float> psi{0.5f, -1.0f, 2.0f};
  std::vector<Upload> updates;
  for (int k = 0; k < 5; ++k) updates.push_back(make_update(k, psi));
  BulyanAggregator bulyan{0.2};
  const std::vector<float> global(3, 0.0f);
  const auto result = aggregate(bulyan, zero_context(global), updates);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    EXPECT_NEAR(result.parameters[i], psi[i], 1e-5f);
  }
}

TEST(Bulyan, HandlesTinyCohorts) {
  std::vector<Upload> updates;
  updates.push_back(make_update(0, {1.0f}));
  updates.push_back(make_update(1, {2.0f}));
  BulyanAggregator bulyan{0.4};
  const std::vector<float> global(1, 0.0f);
  EXPECT_NO_THROW((void)aggregate(bulyan, zero_context(global), updates));
}

TEST(Bulyan, SelectionExcludesOutlierIds) {
  std::vector<Upload> updates;
  for (int k = 0; k < 7; ++k) {
    updates.push_back(make_update(k, {static_cast<float>(k) * 0.01f}));
  }
  updates.push_back(make_update(7, {1e6f}, true));
  BulyanAggregator bulyan{0.2};
  const std::vector<float> global(1, 0.0f);
  const auto result = aggregate(bulyan, zero_context(global), updates);
  EXPECT_TRUE(std::find(result.rejected_clients.begin(), result.rejected_clients.end(), 7) !=
              result.rejected_clients.end());
}

// ---- Auxiliary audit (PDGAN-lite) ----------------------------------------------

struct AuxAuditFixture : ::testing::Test {
  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    auxiliary = data::generate_synthetic_mnist(200, 402);
    const data::Dataset train = data::generate_synthetic_mnist(300, 403);
    models::Classifier good{models::ClassifierArch::Mlp, geometry, 404};
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (std::size_t start = 0; start + 16 <= train.size(); start += 16) {
        std::vector<std::size_t> idx(16);
        std::iota(idx.begin(), idx.end(), start);
        const auto batch = train.gather(idx);
        good.train_batch(batch.images, batch.labels, 0.05f, 0.9f);
      }
    }
    good_psi = good.parameters_flat();
    global.assign(good_psi.size(), 0.0f);
  }

  models::ImageGeometry geometry;
  data::Dataset auxiliary;
  std::vector<float> good_psi;
  std::vector<float> global;
};

TEST_F(AuxAuditFixture, RejectsPoisonedUpdates) {
  AuxiliaryAuditAggregator audit{models::ClassifierArch::Mlp, geometry, auxiliary, 0, 405};
  std::vector<Upload> updates;
  updates.push_back(make_update(0, good_psi, false));
  updates.push_back(make_update(1, good_psi, false));
  updates.push_back(make_update(2, std::vector<float>(good_psi.size(), 1.0f), true));
  AggregationContext context = zero_context(global);
  context.round = 0;
  ShardPartial partial;
  const auto result = aggregate(audit, context, updates, &partial);
  EXPECT_EQ(result.rejected_clients, (std::vector<int>{2}));
  EXPECT_GT(partial.selection_scores[0], partial.selection_scores[2] + 0.3);
}

TEST_F(AuxAuditFixture, WarmupPhaseAcceptsEverything) {
  // PDGAN's initialization window: no filtering before warmup ends.
  AuxiliaryAuditAggregator audit{models::ClassifierArch::Mlp, geometry, auxiliary,
                                 /*warmup_rounds=*/3, 406};
  std::vector<Upload> updates;
  updates.push_back(make_update(0, good_psi, false));
  updates.push_back(make_update(1, std::vector<float>(good_psi.size(), 1.0f), true));

  AggregationContext context = zero_context(global);
  context.round = 2;  // still inside warmup
  auto result = aggregate(audit, context, updates);
  EXPECT_TRUE(result.rejected_clients.empty());

  context.round = 3;  // warmup over: filtering active
  result = aggregate(audit, context, updates);
  EXPECT_EQ(result.rejected_clients, (std::vector<int>{1}));
}

TEST(AuxAudit, EmptyAuxiliaryRejected) {
  EXPECT_THROW((void)AuxiliaryAuditAggregator(models::ClassifierArch::Mlp,
                                              models::ImageGeometry{}, data::Dataset{}, 0,
                                              1),
               std::invalid_argument);
}

TEST(FedCpaSimilarity, IdenticalCriticalSetsScoreOne) {
  const std::vector<std::uint32_t> indices{1, 4, 7};
  const std::vector<float> values{0.5f, -2.0f, 1.5f};
  EXPECT_NEAR(FedCpaAggregator::critical_similarity(indices, values, indices, values),
              1.0, 1e-9);
}

TEST(FedCpaSimilarity, DisjointSetsScoreZero) {
  const std::vector<std::uint32_t> a{0, 1};
  const std::vector<std::uint32_t> b{2, 3};
  const std::vector<float> values{1.0f, 1.0f};
  EXPECT_EQ(FedCpaAggregator::critical_similarity(a, values, b, values), 0.0);
}

TEST(FedCpaSimilarity, OppositeSignsClampToZero) {
  // Same critical coordinates, mirrored values: raw cosine is -1, and the
  // clamp keeps the score at 0 instead of rewarding anti-correlation.
  const std::vector<std::uint32_t> indices{2, 5};
  const std::vector<float> values{1.0f, 2.0f};
  const std::vector<float> mirrored{-1.0f, -2.0f};
  EXPECT_EQ(FedCpaAggregator::critical_similarity(indices, values, indices, mirrored),
            0.0);
}

TEST(FedCpaSimilarity, PartialOverlapMatchesHandComputedCosine) {
  // Intersection is index 1 only: dot = 4*4 = 16 over full-set norms 5 * 5.
  const std::vector<std::uint32_t> a{0, 1};
  const std::vector<float> values_a{3.0f, 4.0f};
  const std::vector<std::uint32_t> b{1, 2};
  const std::vector<float> values_b{4.0f, 3.0f};
  EXPECT_NEAR(FedCpaAggregator::critical_similarity(a, values_a, b, values_b),
              16.0 / 25.0, 1e-9);
}

TEST(FedCpaSimilarity, ZeroNormOrEmptySetScoresZero) {
  const std::vector<std::uint32_t> indices{0, 1};
  const std::vector<float> zeros{0.0f, 0.0f};
  const std::vector<float> values{1.0f, 1.0f};
  EXPECT_EQ(FedCpaAggregator::critical_similarity(indices, zeros, indices, values), 0.0);
  EXPECT_EQ(FedCpaAggregator::critical_similarity({}, {}, indices, values), 0.0);
}

TEST(FedCpa, MedianGateRejectsAColludingMinorityClique) {
  // 10 benign clients move ~+1 per coordinate with jitter; 4 colluders submit
  // the *identical* poisoned vector. Their mutual pairwise similarity is 1 —
  // a pure popularity score would crown them — but they cannot move the
  // coordinate-wise median while a minority, so the consensus gate zeroes
  // their score and keep_fraction=0.5 drops all four.
  util::Rng rng{431};
  std::vector<Upload> updates;
  for (int k = 0; k < 10; ++k) {
    std::vector<float> psi(16);
    for (auto& v : psi) v = 1.0f + rng.uniform_float(-0.2f, 0.2f);
    updates.push_back(make_update(k, std::move(psi)));
  }
  for (int k = 10; k < 14; ++k) {
    updates.push_back(make_update(k, std::vector<float>(16, -2.0f), true));
  }
  FedCpaAggregator fedcpa{FedCpaConfig{0.5, 0.5}};
  const std::vector<float> global(16, 0.0f);
  const auto result = aggregate(fedcpa, zero_context(global), updates);
  EXPECT_EQ(result.accepted_clients.size(), 7u);
  for (const int rejected_required : {10, 11, 12, 13}) {
    EXPECT_TRUE(std::find(result.rejected_clients.begin(),
                          result.rejected_clients.end(),
                          rejected_required) != result.rejected_clients.end())
        << "colluder " << rejected_required << " was accepted";
  }
  // The aggregate tracks the benign direction, not the clique's.
  for (const float v : result.parameters) EXPECT_GT(v, 0.5f);
}

}  // namespace
}  // namespace fedguard::defenses

// ---- FedProx proximal objective ------------------------------------------------

namespace fedguard::models {
namespace {

TEST(FedProx, ProximalTermPullsTowardAnchor) {
  const data::Dataset train = data::generate_synthetic_mnist(200, 407);
  const ImageGeometry geometry{1, 28, 28, 10};

  auto local_drift = [&](float mu) {
    Classifier classifier{ClassifierArch::Mlp, geometry, 408};
    const std::vector<float> anchor = classifier.parameters_flat();
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (std::size_t start = 0; start + 16 <= train.size(); start += 16) {
        std::vector<std::size_t> idx(16);
        std::iota(idx.begin(), idx.end(), start);
        const auto batch = train.gather(idx);
        classifier.train_batch(batch.images, batch.labels, 0.05f, 0.9f, mu, anchor);
      }
    }
    const std::vector<float> trained = classifier.parameters_flat();
    return util::l2_distance(trained, anchor);
  };

  const double free_drift = local_drift(0.0f);
  const double prox_drift = local_drift(1.0f);
  EXPECT_LT(prox_drift, free_drift * 0.8)
      << "the proximal term must keep local parameters near the anchor";
  EXPECT_GT(prox_drift, 0.0);
}

TEST(FedProx, ShortAnchorRejected) {
  const ImageGeometry geometry{1, 28, 28, 10};
  Classifier classifier{ClassifierArch::Mlp, geometry, 409};
  const tensor::Tensor images{{4, 1, 28, 28}, 0.5f};
  const std::vector<int> labels{0, 1, 2, 3};
  const std::vector<float> short_anchor(10, 0.0f);
  EXPECT_THROW(
      (void)classifier.train_batch(images, labels, 0.05f, 0.9f, 0.5f, short_anchor),
      std::invalid_argument);
}

}  // namespace
}  // namespace fedguard::models
