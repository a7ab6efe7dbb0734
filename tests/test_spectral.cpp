#include "defenses/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic_mnist.hpp"
#include "strategy_path.hpp"
#include "util/stats.hpp"

namespace fedguard::defenses {
namespace {

using strategy_path::aggregate;
using strategy_path::Upload;

// Shared slow setup: a pre-trained Spectral aggregator plus a benign cohort.
class SpectralTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kImageSize = 28;

  void SetUp() override {
    geometry_ = models::ImageGeometry{1, kImageSize, kImageSize, 10};
    auxiliary_ = data::generate_synthetic_mnist(240, 61);

    SpectralConfig config;
    config.surrogate_dim = 512;
    config.pretrain_rounds = 3;
    config.pretrain_clients = 5;
    config.vae_epochs = 40;
    aggregator_ = std::make_unique<SpectralAggregator>(
        config, models::ClassifierArch::Mlp, geometry_, auxiliary_, 62);

    // Benign updates: locally trained models from a common init.
    models::Classifier init{models::ClassifierArch::Mlp, geometry_, 63};
    global_ = init.parameters_flat();
    const data::Dataset train = data::generate_synthetic_mnist(300, 64);
    for (int k = 0; k < 6; ++k) {
      models::Classifier classifier{models::ClassifierArch::Mlp, geometry_, 65};
      classifier.load_parameters_flat(global_);
      for (std::size_t start = 0; start + 32 <= train.size(); start += 32) {
        std::vector<std::size_t> idx(32);
        for (std::size_t i = 0; i < 32; ++i) idx[i] = (start + i) % train.size();
        const auto batch = train.gather(idx);
        classifier.train_batch(batch.images, batch.labels, 0.1f, 0.9f);
      }
      Upload update;
      update.client_id = k;
      update.psi = classifier.parameters_flat();
      update.num_samples = train.size();
      benign_.push_back(std::move(update));
    }
  }

  AggregationContext context() const {
    AggregationContext ctx;
    ctx.global_parameters = global_;
    return ctx;
  }

  models::ImageGeometry geometry_;
  data::Dataset auxiliary_;
  std::unique_ptr<SpectralAggregator> aggregator_;
  std::vector<float> global_;
  std::vector<Upload> benign_;
};

TEST_F(SpectralTest, RecordsOneErrorPerSlotAndTheMean) {
  ShardPartial partial;
  (void)aggregate(*aggregator_, context(), benign_, &partial);
  ASSERT_EQ(partial.selection_scores.size(), benign_.size());
  EXPECT_EQ(partial.selection_threshold,
            util::mean(std::span<const double>{partial.selection_scores}));
}

TEST_F(SpectralTest, GrossOutlierGetsHighestErrorAndIsRejected) {
  std::vector<Upload> updates = benign_;
  Upload poisoned = benign_.front();
  poisoned.client_id = 99;
  poisoned.truly_malicious = true;
  std::fill(poisoned.psi.begin(), poisoned.psi.end(), 1.0f);  // same-value attack
  updates.push_back(poisoned);

  ShardPartial partial;
  const auto result = aggregate(*aggregator_, context(), updates, &partial);
  const std::vector<double>& errors = partial.selection_scores;
  const std::size_t worst = static_cast<std::size_t>(
      std::max_element(errors.begin(), errors.end()) - errors.begin());
  EXPECT_EQ(updates[worst].client_id, 99);
  EXPECT_TRUE(std::find(result.rejected_clients.begin(), result.rejected_clients.end(),
                        99) != result.rejected_clients.end());
}

TEST_F(SpectralTest, AggregateReturnsCorrectDimension) {
  const auto result = aggregate(*aggregator_, context(), benign_);
  EXPECT_EQ(result.parameters.size(), global_.size());
  EXPECT_EQ(result.accepted_clients.size() + result.rejected_clients.size(),
            benign_.size());
}

TEST_F(SpectralTest, MeanThresholdNeverRejectsEverything) {
  const auto result = aggregate(*aggregator_, context(), benign_);
  EXPECT_FALSE(result.accepted_clients.empty());
}

TEST(Spectral, EmptyAuxiliaryRejected) {
  SpectralConfig config;
  EXPECT_THROW((void)SpectralAggregator(config, models::ClassifierArch::Mlp,
                                        models::ImageGeometry{}, data::Dataset{}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedguard::defenses
