#include "models/cvae.hpp"

#include <gtest/gtest.h>

#include "data/synthetic_mnist.hpp"

namespace fedguard::models {
namespace {

CvaeSpec small_spec() {
  CvaeSpec spec;
  spec.input_dim = 784;
  spec.num_classes = 10;
  spec.hidden = 96;
  spec.latent = 2;  // tiny latent keeps prior samples on-manifold at small n
  return spec;
}

// Small training corpus reused across tests.
struct CvaeFixture : ::testing::Test {
  void SetUp() override {
    dataset = data::generate_synthetic_mnist(300, 21);
    std::vector<std::size_t> all(dataset.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    images = dataset.gather_flat(all);
    labels.assign(dataset.labels().begin(), dataset.labels().end());
  }

  data::Dataset dataset;
  tensor::Tensor images;
  std::vector<int> labels;
};

TEST_F(CvaeFixture, TrainingReducesLoss) {
  Cvae cvae{small_spec(), 31};
  const CvaeLoss first = cvae.train_batch(images, labels, 1e-3f);
  float last = 0.0f;
  for (int epoch = 0; epoch < 6; ++epoch) {
    last = cvae.train(images, labels, 1, 32, 1e-3f);
  }
  EXPECT_LT(last, first.total * 0.8f) << "CVAE loss should drop substantially";
}

TEST_F(CvaeFixture, DecoderSynthesizesInUnitRange) {
  Cvae cvae{small_spec(), 32};
  cvae.train(images, labels, 3, 32, 1e-3f);
  util::Rng rng{33};
  const tensor::Tensor z = sample_standard_normal(20, small_spec().latent, rng);
  std::vector<int> y(20);
  for (std::size_t i = 0; i < 20; ++i) y[i] = static_cast<int>(i % 10);
  const tensor::Tensor generated = cvae.decoder().decode(z, y);
  EXPECT_EQ(generated.shape(), (std::vector<std::size_t>{20, 784}));
  for (const float v : generated.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST_F(CvaeFixture, ConditioningControlsGeneratedClass) {
  // After training, samples decoded with label c should be closer (in pixel
  // space) to the class-c training mean than to most other class means.
  Cvae cvae{small_spec(), 34};
  cvae.train(images, labels, 30, 8, 3e-3f);

  // Class means of the training data.
  std::vector<std::vector<double>> class_mean(10, std::vector<double>(784, 0.0));
  std::vector<std::size_t> class_count(10, 0);
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const auto row = images.row(n);
    auto& mean = class_mean[static_cast<std::size_t>(labels[n])];
    for (std::size_t i = 0; i < 784; ++i) mean[i] += row[i];
    ++class_count[static_cast<std::size_t>(labels[n])];
  }
  for (std::size_t c = 0; c < 10; ++c) {
    for (auto& v : class_mean[c]) v /= static_cast<double>(class_count[c]);
  }

  util::Rng rng{35};
  int wins = 0, trials = 0;
  for (int target = 0; target < 10; ++target) {
    const tensor::Tensor z = sample_standard_normal(8, small_spec().latent, rng);
    const std::vector<int> y(8, target);
    const tensor::Tensor generated = cvae.decoder().decode(z, y);
    for (std::size_t s = 0; s < 8; ++s) {
      const auto row = generated.row(s);
      double own = 0.0;
      std::vector<double> distances(10, 0.0);
      for (int c = 0; c < 10; ++c) {
        double d2 = 0.0;
        for (std::size_t i = 0; i < 784; ++i) {
          const double d = row[i] - class_mean[static_cast<std::size_t>(c)][i];
          d2 += d * d;
        }
        distances[static_cast<std::size_t>(c)] = d2;
        if (c == target) own = d2;
      }
      int beaten = 0;
      for (int c = 0; c < 10; ++c) {
        if (c != target && own < distances[static_cast<std::size_t>(c)]) ++beaten;
      }
      if (beaten >= 7) ++wins;  // closer to own class than to >= 7 of 9 others
      ++trials;
    }
  }
  EXPECT_GT(static_cast<double>(wins) / trials, 0.6)
      << "conditional generation should mostly land near the conditioned class";
}

TEST(CvaeDecoder, FlatParameterRoundTrip) {
  const CvaeSpec spec = small_spec();
  CvaeDecoder a{spec, 36};
  CvaeDecoder b{spec, 37};
  const std::vector<float> theta = a.parameters_flat();
  EXPECT_EQ(theta.size(), a.parameter_count());
  b.load_parameters_flat(theta);

  util::Rng rng{38};
  const tensor::Tensor z = sample_standard_normal(4, spec.latent, rng);
  const std::vector<int> y{0, 1, 2, 3};
  const tensor::Tensor out_a = a.decode(z, y);
  const tensor::Tensor out_b = b.decode(z, y);
  for (std::size_t i = 0; i < out_a.size(); ++i) EXPECT_FLOAT_EQ(out_a[i], out_b[i]);
}

TEST(CvaeDecoder, RejectsBadLatentShape) {
  CvaeDecoder decoder{small_spec(), 39};
  const tensor::Tensor z{{2, 5}};  // wrong latent dim
  const std::vector<int> y{0, 1};
  EXPECT_THROW((void)decoder.decode(z, y), std::invalid_argument);
}

TEST(Cvae, EncodeShapes) {
  const CvaeSpec spec = small_spec();
  Cvae cvae{spec, 40};
  const tensor::Tensor images{{5, spec.input_dim}, 0.5f};
  const std::vector<int> labels{0, 1, 2, 3, 4};
  const Cvae::Encoding enc = cvae.encode(images, labels);
  EXPECT_EQ(enc.mu.shape(), (std::vector<std::size_t>{5, spec.latent}));
  EXPECT_EQ(enc.logvar.shape(), (std::vector<std::size_t>{5, spec.latent}));
}

TEST_F(CvaeFixture, ZeroBatchSizeThrows) {
  Cvae cvae{small_spec(), 42};
  EXPECT_THROW((void)cvae.train(images, labels, 1, 0, 1e-3f), std::invalid_argument);
}

TEST(Cvae, ReconstructShape) {
  const CvaeSpec spec = small_spec();
  Cvae cvae{spec, 41};
  const tensor::Tensor images{{3, spec.input_dim}, 0.5f};
  const std::vector<int> labels{1, 2, 3};
  EXPECT_EQ(cvae.reconstruct(images, labels).shape(),
            (std::vector<std::size_t>{3, spec.input_dim}));
}

TEST(CvaeSampling, StandardNormalMoments) {
  util::Rng rng{42};
  const tensor::Tensor z = sample_standard_normal(5000, 4, rng);
  double sum = 0.0, sum2 = 0.0;
  for (const float v : z.data()) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(z.size());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(CvaeSampling, CategoricalLabelsRespectAlpha) {
  util::Rng rng{43};
  const std::vector<double> alpha{0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const std::vector<int> labels = sample_categorical_labels(1000, alpha, rng);
  for (const int label : labels) EXPECT_LT(label, 2);
}

TEST(CvaeSampling, UniformAlphaCoversAllClasses) {
  util::Rng rng{44};
  const std::vector<double> alpha(10, 0.1);
  const std::vector<int> labels = sample_categorical_labels(2000, alpha, rng);
  std::vector<int> counts(10, 0);
  for (const int label : labels) ++counts[static_cast<std::size_t>(label)];
  for (const int c : counts) EXPECT_GT(c, 100);
}

}  // namespace
}  // namespace fedguard::models
