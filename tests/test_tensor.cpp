#include "tensor/tensor.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "tensor/init.hpp"

namespace fedguard::tensor {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(Tensor, ShapeConstructionAndFill) {
  Tensor t{{2, 3}, 1.5f};
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (const float v : t.data()) EXPECT_FLOAT_EQ(v, 1.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW((void)Tensor::from_data({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW((void)Tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, TwoDimensionalAccess) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
  t.at(1, 2) = 42.0f;
  EXPECT_FLOAT_EQ(t[5], 42.0f);
}

TEST(Tensor, FourDimensionalAccessRowMajor) {
  Tensor t{{2, 3, 4, 5}};
  t.at(1, 2, 3, 4) = 9.0f;
  // Flat index = ((1*3+2)*4+3)*5+4 = 119
  EXPECT_FLOAT_EQ(t[119], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  t.reshape({3, 2});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_FLOAT_EQ(t.at(2, 1), 5.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ReshapedCopyLeavesOriginal) {
  Tensor t{{2, 2}, 1.0f};
  const Tensor r = t.reshaped({4});
  EXPECT_EQ(r.rank(), 1u);
  EXPECT_EQ(t.rank(), 2u);
}

TEST(Tensor, RowSpans) {
  Tensor t = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  const auto row1 = t.row(1);
  ASSERT_EQ(row1.size(), 3u);
  EXPECT_FLOAT_EQ(row1[0], 3.0f);
  t.row(0)[1] = -1.0f;
  EXPECT_FLOAT_EQ(t.at(0, 1), -1.0f);
}

TEST(Tensor, FillAndZero) {
  Tensor t({3}, 7.0f);
  t.zero();
  for (const float v : t.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Tensor, ShapeString) {
  Tensor t{{2, 3, 4}};
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
}

TEST(Tensor, SameShape) {
  Tensor a{{2, 3}};
  Tensor b{{2, 3}};
  Tensor c{{3, 2}};
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(TensorInit, UniformWithinBounds) {
  Tensor t{{1000}};
  util::Rng rng{5};
  init_uniform(t, rng, -0.25f, 0.25f);
  for (const float v : t.data()) {
    EXPECT_GE(v, -0.25f);
    EXPECT_LT(v, 0.25f);
  }
}

TEST(TensorInit, KaimingBound) {
  Tensor t{{1000}};
  util::Rng rng{6};
  init_kaiming_uniform(t, rng, 600);
  const float bound = std::sqrt(6.0f / 600.0f);
  for (const float v : t.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

}  // namespace
}  // namespace fedguard::tensor
