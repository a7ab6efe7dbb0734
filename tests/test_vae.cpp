#include "models/vae.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace fedguard::models {
namespace {

VaeSpec spec_for(std::size_t input_dim) {
  VaeSpec spec;
  spec.input_dim = input_dim;
  spec.hidden = 32;
  spec.latent = 4;
  return spec;
}

// In-distribution corpus: points near a low-dimensional structure
// (x = [t, 2t, -t, ...] plus small noise).
tensor::Tensor make_corpus(std::size_t count, std::size_t dim, util::Rng& rng) {
  tensor::Tensor data{{count, dim}};
  for (std::size_t n = 0; n < count; ++n) {
    const float t = rng.uniform_float(-1.0f, 1.0f);
    auto row = data.row(n);
    for (std::size_t i = 0; i < dim; ++i) {
      const float direction = (i % 2 == 0) ? 1.0f : -0.5f;
      row[i] = t * direction * static_cast<float>(1 + i % 3) +
               rng.uniform_float(-0.05f, 0.05f);
    }
  }
  return data;
}

TEST(Vae, RequiresInputDim) {
  VaeSpec bad;
  EXPECT_THROW((void)Vae(bad, 1), std::invalid_argument);
}

TEST(Vae, TrainingReducesLoss) {
  util::Rng rng{50};
  const tensor::Tensor corpus = make_corpus(128, 16, rng);
  Vae vae{spec_for(16), 51};
  const float first = vae.train_batch(corpus, 1e-3f);
  float last = 0.0f;
  for (int i = 0; i < 40; ++i) last = vae.train(corpus, 1, 32, 1e-3f);
  EXPECT_LT(last, first * 0.5f);
}

TEST(Vae, ReconstructionShape) {
  util::Rng rng{52};
  const tensor::Tensor corpus = make_corpus(8, 16, rng);
  Vae vae{spec_for(16), 53};
  EXPECT_EQ(vae.reconstruct(corpus).shape(), corpus.shape());
  EXPECT_EQ(vae.reconstruction_errors(corpus).size(), 8u);
}

TEST(Vae, OutlierHasHigherReconstructionError) {
  // Core of the SPECTRAL mechanism: after training on in-distribution
  // surrogates, a gross outlier must reconstruct worse.
  util::Rng rng{54};
  const tensor::Tensor corpus = make_corpus(256, 16, rng);
  Vae vae{spec_for(16), 55};
  vae.train(corpus, 60, 32, 1e-3f);

  const tensor::Tensor in_distribution = make_corpus(32, 16, rng);
  const std::vector<double> in_errors = vae.reconstruction_errors(in_distribution);

  tensor::Tensor outliers{{32, 16}};
  for (auto& v : outliers.data()) v = rng.uniform_float(5.0f, 10.0f);
  const std::vector<double> out_errors = vae.reconstruction_errors(outliers);

  EXPECT_GT(util::mean(std::span<const double>{out_errors}),
            4.0 * util::mean(std::span<const double>{in_errors}));
}

TEST(Vae, ErrorsAreNonNegative) {
  util::Rng rng{56};
  const tensor::Tensor corpus = make_corpus(16, 8, rng);
  Vae vae{spec_for(8), 57};
  for (const double e : vae.reconstruction_errors(corpus)) EXPECT_GE(e, 0.0);
}

TEST(Vae, InputShapeValidated) {
  Vae vae{spec_for(8), 58};
  const tensor::Tensor wrong{{2, 9}};
  EXPECT_THROW((void)vae.train_batch(wrong, 1e-3f), std::invalid_argument);
}

TEST(Vae, ZeroBatchSizeThrows) {
  util::Rng rng{59};
  const tensor::Tensor corpus = make_corpus(8, 8, rng);
  Vae vae{spec_for(8), 60};
  EXPECT_THROW((void)vae.train(corpus, 1, 0, 1e-3f), std::invalid_argument);
}

}  // namespace
}  // namespace fedguard::models
