#include "models/classifier.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "data/synthetic_mnist.hpp"
#include "models/common.hpp"
#include "models/cvae.hpp"

namespace fedguard::models {
namespace {

TEST(PaperCnn, WeightCountMatchesTableII) {
  // Table II reports weight-only parameter counts: conv1 800, conv2 51,200,
  // fc1 1,605,632, fc2 5,120 -> 1,662,752 total.
  Classifier classifier{ClassifierArch::PaperCnn, ImageGeometry{}, 1};
  EXPECT_EQ(classifier.network().weight_parameter_count(), 1662752u);
}

TEST(PaperCnn, ForwardShape) {
  Classifier classifier{ClassifierArch::PaperCnn, ImageGeometry{}, 2};
  const tensor::Tensor images{{2, 1, 28, 28}, 0.5f};
  const tensor::Tensor logits = classifier.forward(images);
  EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(CvaeTableIII, ParameterCountMatches) {
  // Table III: encoder 318,000 + 8,020 + 8,020; decoder 12,400 + 318,394;
  // total 664,834 (biases included).
  Cvae cvae{CvaeSpec{}, 3};
  EXPECT_EQ(cvae.parameter_count(), 664834u);
  // Decoder alone: 12,400 + 318,394.
  EXPECT_EQ(cvae.decoder().parameter_count(), 330794u);
}

TEST(CvaeTableIII, SizesInMegabytesMatchTable) {
  Cvae cvae{CvaeSpec{}, 4};
  const double decoder_mb =
      static_cast<double>(cvae.decoder().parameter_count()) * 4.0 / 1e6;
  EXPECT_NEAR(decoder_mb, 1.32, 0.02);  // Table III: decoder 1.32 MB
  const double total_mb = static_cast<double>(cvae.parameter_count()) * 4.0 / 1e6;
  EXPECT_NEAR(total_mb, 2.66, 0.02);  // Table III: total 2.66 MB
}

TEST(Classifier, ArchStringRoundTrip) {
  for (const auto arch :
       {ClassifierArch::PaperCnn, ClassifierArch::TinyCnn, ClassifierArch::Mlp}) {
    EXPECT_EQ(classifier_arch_from_string(to_string(arch)), arch);
  }
  EXPECT_THROW((void)classifier_arch_from_string("bogus"), std::invalid_argument);
}

TEST(Classifier, TinyCnnAndMlpForwardShapes) {
  const ImageGeometry g{1, 28, 28, 10};
  for (const auto arch : {ClassifierArch::TinyCnn, ClassifierArch::Mlp}) {
    Classifier classifier{arch, g, 5};
    const tensor::Tensor images{{3, 1, 28, 28}, 0.1f};
    EXPECT_EQ(classifier.forward(images).shape(), (std::vector<std::size_t>{3, 10}));
  }
}

TEST(Classifier, DeterministicInitFromSeed) {
  Classifier a{ClassifierArch::Mlp, ImageGeometry{}, 42};
  Classifier b{ClassifierArch::Mlp, ImageGeometry{}, 42};
  Classifier c{ClassifierArch::Mlp, ImageGeometry{}, 43};
  EXPECT_EQ(a.parameters_flat(), b.parameters_flat());
  EXPECT_NE(a.parameters_flat(), c.parameters_flat());
}

TEST(Classifier, BuiltFromPsi0MatchesSeededModelWithPsi0Loaded) {
  // The client's round model is built straight from ψ0; it must be the seeded
  // model with ψ0 loaded, bit for bit, through forward and training.
  const auto bits_equal = [](std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  };
  const data::Dataset data = data::generate_synthetic_mnist(8, 12);
  const std::vector<std::size_t> all{0, 1, 2, 3, 4, 5, 6, 7};
  const data::Dataset::Batch batch = data.gather(all);
  for (const auto arch :
       {ClassifierArch::Mlp, ClassifierArch::TinyCnn, ClassifierArch::PaperCnn}) {
    SCOPED_TRACE(to_string(arch));
    const std::vector<float> psi0 = Classifier{arch, ImageGeometry{}, 70}.parameters_flat();
    Classifier seeded{arch, ImageGeometry{}, 71};
    seeded.load_parameters_flat(psi0);
    Classifier built{arch, ImageGeometry{}, std::span<const float>{psi0}};
    EXPECT_TRUE(bits_equal(built.parameters_flat(), psi0));
    EXPECT_TRUE(bits_equal(built.forward(batch.images).data(),
                           seeded.forward(batch.images).data()));
    for (int step = 0; step < 3; ++step) {
      EXPECT_EQ(built.train_batch(batch.images, batch.labels, 0.05f, 0.9f),
                seeded.train_batch(batch.images, batch.labels, 0.05f, 0.9f));
    }
    EXPECT_TRUE(bits_equal(built.parameters_flat(), seeded.parameters_flat()));

    std::vector<float> wrong = psi0;
    wrong.push_back(0.0f);
    EXPECT_THROW((Classifier{arch, ImageGeometry{}, std::span<const float>{wrong}}),
                 std::invalid_argument);
    wrong.resize(psi0.size() - 1);
    EXPECT_THROW((Classifier{arch, ImageGeometry{}, std::span<const float>{wrong}}),
                 std::invalid_argument);
  }
}

TEST(Classifier, LearnsSyntheticDigits) {
  const data::Dataset train = data::generate_synthetic_mnist(400, 10);
  const data::Dataset test = data::generate_synthetic_mnist(200, 11);
  Classifier classifier{ClassifierArch::Mlp, ImageGeometry{}, 6};

  std::vector<std::size_t> all(train.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const data::Dataset::Batch full = train.gather(all);

  const double before = classifier.evaluate_accuracy(full.images, full.labels);
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (std::size_t start = 0; start + 32 <= train.size(); start += 32) {
      std::vector<std::size_t> idx(32);
      for (std::size_t i = 0; i < 32; ++i) idx[i] = start + i;
      const data::Dataset::Batch batch = train.gather(idx);
      classifier.train_batch(batch.images, batch.labels, 0.05f, 0.9f);
    }
  }
  std::vector<std::size_t> test_idx(test.size());
  for (std::size_t i = 0; i < test_idx.size(); ++i) test_idx[i] = i;
  const data::Dataset::Batch test_batch = test.gather(test_idx);
  const double after = classifier.evaluate_accuracy(test_batch.images, test_batch.labels);
  EXPECT_LE(before, 0.35);
  EXPECT_GE(after, 0.85) << "MLP should learn the synthetic digit task";
}

TEST(Classifier, ParameterRoundTripPreservesOutputs) {
  Classifier a{ClassifierArch::TinyCnn, ImageGeometry{}, 7};
  Classifier b{ClassifierArch::TinyCnn, ImageGeometry{}, 8};
  b.load_parameters_flat(a.parameters_flat());
  const tensor::Tensor images{{2, 1, 28, 28}, 0.3f};
  const tensor::Tensor out_a = a.forward(images);
  const tensor::Tensor out_b = b.forward(images);
  for (std::size_t i = 0; i < out_a.size(); ++i) EXPECT_FLOAT_EQ(out_a[i], out_b[i]);
}

TEST(ModelsCommon, OneHot) {
  const std::vector<int> labels{0, 2};
  const tensor::Tensor encoded = one_hot(labels, 3);
  EXPECT_EQ(encoded.shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_FLOAT_EQ(encoded.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(encoded.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(encoded.at(1, 2), 1.0f);
  const std::vector<int> bad{5};
  EXPECT_THROW((void)one_hot(bad, 3), std::invalid_argument);
}

TEST(ModelsCommon, ConcatAndSplitColumns) {
  const tensor::Tensor a = tensor::Tensor::from_data({2, 2}, {1, 2, 3, 4});
  const tensor::Tensor b = tensor::Tensor::from_data({2, 1}, {5, 6});
  const tensor::Tensor joined = concat_columns(a, b);
  EXPECT_EQ(joined.shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_FLOAT_EQ(joined.at(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(joined.at(1, 0), 3.0f);

  tensor::Tensor left, right;
  split_columns(joined, 2, left, right);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(left[i], a[i]);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_FLOAT_EQ(right[i], b[i]);
}

class GeometrySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeometrySweep, MlpHandlesVariousImageSizes) {
  const std::size_t size = GetParam();
  const ImageGeometry g{1, size, size, 10};
  Classifier classifier{ClassifierArch::Mlp, g, 9};
  const tensor::Tensor images{{2, 1, size, size}, 0.5f};
  EXPECT_EQ(classifier.forward(images).dim(1), 10u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeometrySweep, ::testing::Values(8u, 14u, 20u, 28u));

}  // namespace
}  // namespace fedguard::models
