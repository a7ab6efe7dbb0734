#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fedguard::util {
namespace {

TEST(Stats, MeanBasic) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{v}), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(Stats, StddevSampleDenominator) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // population stddev is 2; sample stddev = sqrt(32/7)
  EXPECT_NEAR(stddev(std::span<const double>{v}), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, StddevDegenerateCases) {
  const std::vector<double> single{5.0};
  EXPECT_DOUBLE_EQ(stddev(std::span<const double>{single}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::span<const double>{}), 0.0);
}

TEST(Stats, VariancePopulation) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(variance(std::span<const double>{v}), 4.0, 1e-12);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(std::span<const double>{odd}), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(std::span<const double>{even}), 2.5);
}

TEST(Stats, MedianFloatOverload) {
  const std::vector<float> v{10.0f, 0.0f, 5.0f};
  EXPECT_FLOAT_EQ(median(std::span<const float>{v}), 5.0f);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(std::span<const double>{v}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(std::span<const double>{v}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(std::span<const double>{v}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(std::span<const double>{v}, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(quantile(std::span<const double>{v}, 0.125), 0.5);
}

TEST(Stats, TrailingStatsWindow) {
  // Series 0..9; trailing 4 -> {6,7,8,9}.
  std::vector<double> series(10);
  for (int i = 0; i < 10; ++i) series[static_cast<std::size_t>(i)] = i;
  const TrailingStats stats = trailing_stats(series, 4);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.mean, 7.5);
  EXPECT_NEAR(stats.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, TrailingStatsShortSeriesUsesAll) {
  const std::vector<double> series{1.0, 2.0};
  const TrailingStats stats = trailing_stats(series, 40);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);
}

TEST(Stats, L2NormAndDistance) {
  const std::vector<float> a{3.0f, 4.0f};
  const std::vector<float> b{0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(Stats, DotAndCosine) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{0.0f, 1.0f};
  const std::vector<float> c{2.0f, 0.0f};
  EXPECT_DOUBLE_EQ(dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, c), 1.0);
  const std::vector<float> zero{0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, zero), 0.0);
}

}  // namespace
}  // namespace fedguard::util
