// Unit tests of the FedGuard aggregation operator in isolation: trained CVAE
// decoders + a mix of good and poisoned classifier updates.

#include "defenses/fedguard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "data/synthetic_mnist.hpp"
#include "strategy_path.hpp"

namespace fedguard::defenses {
namespace {

using strategy_path::aggregate;
using strategy_path::Upload;

models::CvaeSpec small_cvae() {
  models::CvaeSpec spec;
  spec.input_dim = 784;
  spec.num_classes = 10;
  spec.hidden = 96;
  spec.latent = 2;  // tiny latent: prior samples stay on-manifold (DESIGN.md §1)
  return spec;
}

class FedGuardAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    geometry_ = models::ImageGeometry{1, 28, 28, 10};
    train_ = data::generate_synthetic_mnist(400, 71);

    // One benign CVAE decoder shared by all honest updates (trained once to
    // keep the fixture fast; distinct decoders are exercised in the
    // integration tests).
    models::Cvae cvae{small_cvae(), 72};
    std::vector<std::size_t> all(train_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const tensor::Tensor flat = train_.gather_flat(all);
    std::vector<int> labels(train_.labels().begin(), train_.labels().end());
    cvae.train(flat, labels, 25, 8, 3e-3f);
    benign_theta_ = cvae.decoder().parameters_flat();

    // A well-trained classifier (benign ψ)...
    models::Classifier good{models::ClassifierArch::Mlp, geometry_, 73};
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (std::size_t start = 0; start + 32 <= train_.size(); start += 32) {
        std::vector<std::size_t> idx(32);
        for (std::size_t i = 0; i < 32; ++i) idx[i] = start + i;
        const auto batch = train_.gather(idx);
        good.train_batch(batch.images, batch.labels, 0.05f, 0.9f);
      }
    }
    good_psi_ = good.parameters_flat();
    global_.assign(good_psi_.size(), 0.0f);
  }

  Upload update_with(int id, std::vector<float> psi, bool malicious) const {
    Upload update;
    update.client_id = id;
    update.psi = std::move(psi);
    update.theta = benign_theta_;
    update.num_samples = 100;
    update.truly_malicious = malicious;
    return update;
  }

  FedGuardAggregator make_aggregator(FedGuardConfig config = {}) const {
    config.cvae_spec = small_cvae();
    if (config.total_samples == 100) config.total_samples = 80;
    return FedGuardAggregator{config, models::ClassifierArch::Mlp, geometry_, 74};
  }

  AggregationContext context() const {
    AggregationContext ctx;
    ctx.global_parameters = global_;
    return ctx;
  }

  models::ImageGeometry geometry_;
  data::Dataset train_;
  std::vector<float> benign_theta_;
  std::vector<float> good_psi_;
  std::vector<float> global_;
};

TEST_F(FedGuardAggTest, RejectsSameValuePoisonedUpdates) {
  std::vector<Upload> updates;
  for (int k = 0; k < 3; ++k) updates.push_back(update_with(k, good_psi_, false));
  for (int k = 3; k < 6; ++k) {
    std::vector<float> poisoned(good_psi_.size(), 1.0f);
    updates.push_back(update_with(k, std::move(poisoned), true));
  }
  FedGuardAggregator aggregator = make_aggregator();
  const auto result = aggregate(aggregator, context(), updates);

  for (int k = 3; k < 6; ++k) {
    EXPECT_TRUE(std::find(result.rejected_clients.begin(), result.rejected_clients.end(),
                          k) != result.rejected_clients.end())
        << "poisoned client " << k << " must be rejected";
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(std::find(result.accepted_clients.begin(), result.accepted_clients.end(),
                          k) != result.accepted_clients.end())
        << "benign client " << k << " must be accepted";
  }
  // Aggregate equals the benign mean (all benign ψ identical here).
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(result.parameters[i], good_psi_[i], 1e-4f);
  }
}

TEST_F(FedGuardAggTest, RejectsSignFlippedUpdates) {
  std::vector<Upload> updates;
  for (int k = 0; k < 2; ++k) updates.push_back(update_with(k, good_psi_, false));
  for (int k = 2; k < 4; ++k) {
    std::vector<float> flipped = good_psi_;
    for (auto& v : flipped) v = -v;
    updates.push_back(update_with(k, std::move(flipped), true));
  }
  FedGuardAggregator aggregator = make_aggregator();
  const auto result = aggregate(aggregator, context(), updates);
  EXPECT_EQ(result.rejected_clients.size(), 2u);
  for (const int id : result.rejected_clients) EXPECT_GE(id, 2);
}

TEST_F(FedGuardAggTest, ScoresExposeAccuracyGap) {
  std::vector<Upload> updates;
  updates.push_back(update_with(0, good_psi_, false));
  std::vector<float> noise_psi = good_psi_;
  util::Rng rng{75};
  for (auto& v : noise_psi) v += static_cast<float>(rng.normal(0.0, 1.0));
  updates.push_back(update_with(1, std::move(noise_psi), true));

  FedGuardAggregator aggregator = make_aggregator();
  ShardPartial partial;
  (void)aggregate(aggregator, context(), updates, &partial);
  const std::vector<double>& scores = partial.selection_scores;
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0], scores[1] + 0.3)
      << "benign update must score far higher on synthetic validation data";
  EXPECT_GT(partial.selection_threshold, 0.0);
}

TEST_F(FedGuardAggTest, AllBenignAcceptsEveryoneAboveOrAtMean) {
  std::vector<Upload> updates;
  for (int k = 0; k < 4; ++k) updates.push_back(update_with(k, good_psi_, false));
  FedGuardAggregator aggregator = make_aggregator();
  const auto result = aggregate(aggregator, context(), updates);
  // Identical scores -> everyone == mean -> all accepted.
  EXPECT_EQ(result.accepted_clients.size(), 4u);
  EXPECT_TRUE(result.rejected_clients.empty());
}

TEST_F(FedGuardAggTest, InternalOperatorsAllDefend) {
  for (const auto op :
       {InternalOperator::FedAvg, InternalOperator::GeoMed, InternalOperator::Median}) {
    FedGuardConfig config;
    config.internal_operator = op;
    FedGuardAggregator aggregator = make_aggregator(config);
    std::vector<Upload> updates;
    for (int k = 0; k < 3; ++k) updates.push_back(update_with(k, good_psi_, false));
    std::vector<float> poisoned(good_psi_.size(), 1.0f);
    updates.push_back(update_with(3, std::move(poisoned), true));
    const auto result = aggregate(aggregator, context(), updates);
    EXPECT_EQ(result.rejected_clients, (std::vector<int>{3})) << to_string(op);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_NEAR(result.parameters[i], good_psi_[i], 1e-3f) << to_string(op);
    }
  }
}

TEST_F(FedGuardAggTest, DecoderDimensionMismatchThrows) {
  FedGuardAggregator aggregator = make_aggregator();
  std::vector<Upload> updates;
  Upload bad = update_with(0, good_psi_, false);
  bad.theta.resize(bad.theta.size() - 1);
  updates.push_back(std::move(bad));
  EXPECT_THROW((void)aggregate(aggregator, context(), updates), std::invalid_argument);
}

TEST(FedGuardConfigValidation, BadConfigsRejected) {
  models::ImageGeometry geometry{1, 28, 28, 10};
  FedGuardConfig config;
  config.cvae_spec = small_cvae();
  config.total_samples = 0;
  EXPECT_THROW(
      (void)FedGuardAggregator(config, models::ClassifierArch::Mlp, geometry, 1),
      std::invalid_argument);

  FedGuardConfig mismatch;
  mismatch.cvae_spec = small_cvae();
  mismatch.cvae_spec.input_dim = 100;  // != 784 pixels
  EXPECT_THROW(
      (void)FedGuardAggregator(mismatch, models::ClassifierArch::Mlp, geometry, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace fedguard::defenses
