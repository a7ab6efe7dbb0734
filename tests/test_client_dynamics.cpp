// Tests of the dynamic-dataset extensions (paper §VI-C future work):
// client data refresh and periodic CVAE retraining.

#include <gtest/gtest.h>

#include <numeric>

#include "attacks/label_flip.hpp"
#include "data/synthetic_mnist.hpp"
#include "fl/client.hpp"

namespace fedguard::fl {
namespace {

models::CvaeSpec small_cvae() {
  models::CvaeSpec spec;
  spec.hidden = 48;
  spec.latent = 2;
  return spec;
}

ClientConfig fast_config(std::size_t retrain_interval) {
  ClientConfig config;
  config.local_epochs = 1;
  config.batch_size = 16;
  config.cvae_epochs = 2;
  config.cvae_batch_size = 16;
  config.train_cvae = true;
  config.cvae_retrain_interval = retrain_interval;
  return config;
}

struct DynamicsFixture : ::testing::Test {
  void SetUp() override {
    geometry = models::ImageGeometry{1, 28, 28, 10};
    first_wave = data::generate_synthetic_mnist(150, 301);
    second_wave = data::generate_synthetic_mnist(150, 302);
    indices.resize(60);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    reference = std::make_unique<models::Classifier>(models::ClassifierArch::Mlp,
                                                     geometry, 303);
    global = reference->parameters_flat();
  }

  models::ImageGeometry geometry;
  data::Dataset first_wave;
  data::Dataset second_wave;
  std::vector<std::size_t> indices;
  std::unique_ptr<models::Classifier> reference;
  std::vector<float> global;

  /// Runs one round of `client` and returns the decoder θ it uploaded.
  std::vector<float> decoder_after_round(Client& client, std::size_t round) const {
    std::vector<float> psi(global.size());
    defenses::UpdateMeta meta;
    client.run_round_into(global, round, defenses::UpdateRow{psi, {}, &meta});
    const std::span<const float> theta = client.decoder_parameters();
    EXPECT_EQ(meta.theta_count, theta.size());
    return {theta.begin(), theta.end()};
  }
};

TEST_F(DynamicsFixture, RefreshReplacesLocalData) {
  Client client{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 304};
  const auto before = client.local_data().class_histogram();
  client.refresh_data(second_wave, indices);
  EXPECT_EQ(client.num_samples(), 60u);
  // Different data wave -> (almost surely) different pixel content.
  bool any_different = false;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto a = client.local_data().image(i);
    const auto b = first_wave.image(indices[i]);
    for (std::size_t p = 0; p < a.size(); ++p) {
      if (a[p] != b[p]) {
        any_different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_different);
  (void)before;
}

TEST_F(DynamicsFixture, RefreshReappliesLabelFlip) {
  Client client{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 305};
  client.corrupt_with_label_flip(attacks::default_flip_pairs());
  client.refresh_data(second_wave, indices);
  // Flipped labels in the refreshed data must match flipping applied directly.
  data::Dataset expected = second_wave.subset(indices);
  attacks::apply_label_flip(expected, attacks::default_flip_pairs());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(client.local_data().label(i), expected.label(i));
  }
  EXPECT_TRUE(client.malicious());
}

TEST_F(DynamicsFixture, TrainOnceKeepsDecoderAcrossRefresh) {
  Client client{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 306};
  const auto first = decoder_after_round(client, 0);
  client.refresh_data(second_wave, indices);
  const auto second = decoder_after_round(client, 1);
  // interval 0 = paper default: decoder trained exactly once, even after a
  // data refresh.
  EXPECT_EQ(first, second);
}

TEST_F(DynamicsFixture, RetrainIntervalRefreshesDecoder) {
  Client client{0, first_wave, indices, fast_config(2), models::ClassifierArch::Mlp,
                geometry, small_cvae(), 307};
  const auto round0 = decoder_after_round(client, 0);
  const auto round1 = decoder_after_round(client, 1);
  EXPECT_EQ(round0, round1);  // not yet due (interval 2)
  const auto round2 = decoder_after_round(client, 2);
  EXPECT_NE(round0, round2);  // retrained after 2 participations
  const auto round3 = decoder_after_round(client, 3);
  EXPECT_EQ(round2, round3);  // cached again until next interval
}

TEST_F(DynamicsFixture, RetrainTracksRefreshedData) {
  Client stale{0, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
               geometry, small_cvae(), 308};
  Client fresh{1, first_wave, indices, fast_config(1), models::ClassifierArch::Mlp,
               geometry, small_cvae(), 308};
  (void)decoder_after_round(stale, 0);
  (void)decoder_after_round(fresh, 0);
  stale.refresh_data(second_wave, indices);
  fresh.refresh_data(second_wave, indices);
  const auto stale_theta = decoder_after_round(stale, 1);
  const auto fresh_theta = decoder_after_round(fresh, 1);
  // Only the retraining client's decoder changes after new data arrives.
  Client baseline{2, first_wave, indices, fast_config(0), models::ClassifierArch::Mlp,
                  geometry, small_cvae(), 308};
  const auto baseline_theta = decoder_after_round(baseline, 0);
  EXPECT_EQ(stale_theta, baseline_theta);
  EXPECT_NE(fresh_theta, baseline_theta);
}

}  // namespace
}  // namespace fedguard::fl
