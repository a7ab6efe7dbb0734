#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fedguard::nn {
namespace {

// Minimize f(x) = 0.5 * ||x - target||^2 by hand-feeding gradients.
struct Quadratic {
  Parameter param;
  std::vector<float> target;

  explicit Quadratic(std::vector<float> target_values)
      : param{{target_values.size()}, "x"}, target{std::move(target_values)} {}

  void fill_gradient() {
    for (std::size_t i = 0; i < target.size(); ++i) {
      param.grad[i] = param.value[i] - target[i];
    }
  }

  [[nodiscard]] double distance() const {
    double total = 0.0;
    for (std::size_t i = 0; i < target.size(); ++i) {
      const double d = param.value[i] - target[i];
      total += d * d;
    }
    return std::sqrt(total);
  }
};

TEST(Sgd, ConvergesOnQuadratic) {
  Quadratic problem{{1.0f, -2.0f, 3.0f}};
  Sgd sgd{{&problem.param}, 0.1f};
  for (int step = 0; step < 200; ++step) {
    sgd.zero_grad();
    problem.fill_gradient();
    sgd.step();
  }
  EXPECT_LT(problem.distance(), 1e-4);
}

TEST(Sgd, SingleStepExactValue) {
  Quadratic problem{{2.0f}};
  problem.param.value[0] = 0.0f;
  Sgd sgd{{&problem.param}, 0.5f};
  problem.fill_gradient();  // grad = -2
  sgd.step();
  EXPECT_FLOAT_EQ(problem.param.value[0], 1.0f);
}

TEST(Sgd, MomentumAcceleratesAlongConsistentGradient) {
  // With constant gradient g, velocity accumulates: after 2 steps the total
  // displacement with momentum 0.9 is lr*g*(1 + 1.9) vs 2*lr*g without.
  Parameter with_momentum{{1}, "a"};
  Parameter without_momentum{{1}, "b"};
  Sgd fast{{&with_momentum}, 0.1f, 0.9f};
  Sgd slow{{&without_momentum}, 0.1f};
  for (int step = 0; step < 3; ++step) {
    with_momentum.grad[0] = 1.0f;
    without_momentum.grad[0] = 1.0f;
    fast.step();
    slow.step();
  }
  EXPECT_LT(with_momentum.value[0], without_momentum.value[0]);
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Parameter param{{1}, "x"};
  param.value[0] = 1.0f;
  Sgd sgd{{&param}, 0.1f, 0.0f, /*weight_decay=*/0.5f};
  param.grad[0] = 0.0f;
  sgd.step();
  EXPECT_FLOAT_EQ(param.value[0], 1.0f - 0.1f * 0.5f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic problem{{0.5f, -1.5f, 2.5f, 0.0f}};
  Adam adam{{&problem.param}, 0.05f};
  for (int step = 0; step < 500; ++step) {
    adam.zero_grad();
    problem.fill_gradient();
    adam.step();
  }
  EXPECT_LT(problem.distance(), 1e-2);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Parameter param{{1}, "x"};
  param.value[0] = 0.0f;
  Adam adam{{&param}, 0.1f};
  param.grad[0] = 3.7f;
  adam.step();
  EXPECT_NEAR(param.value[0], -0.1f, 1e-3f);
}

TEST(Adam, HandlesSparseZeroGradients) {
  Parameter param{{2}, "x"};
  param.value[0] = 1.0f;
  param.value[1] = 1.0f;
  Adam adam{{&param}, 0.1f};
  for (int step = 0; step < 10; ++step) {
    param.grad[0] = 1.0f;
    param.grad[1] = 0.0f;  // never updated coordinate must stay put
    adam.step();
  }
  EXPECT_LT(param.value[0], 1.0f);
  EXPECT_FLOAT_EQ(param.value[1], 1.0f);
}

TEST(Optimizer, ZeroGradClears) {
  Parameter param{{3}, "x"};
  Sgd sgd{{&param}, 0.1f};
  param.grad.fill(5.0f);
  sgd.zero_grad();
  for (const float g : param.grad.data()) EXPECT_FLOAT_EQ(g, 0.0f);
}

class SgdLearningRateSweep : public ::testing::TestWithParam<float> {};

TEST_P(SgdLearningRateSweep, StableForReasonableRates) {
  Quadratic problem{{1.0f, 1.0f}};
  Sgd sgd{{&problem.param}, GetParam()};
  for (int step = 0; step < 400; ++step) {
    sgd.zero_grad();
    problem.fill_gradient();
    sgd.step();
  }
  EXPECT_LT(problem.distance(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, SgdLearningRateSweep,
                         ::testing::Values(0.01f, 0.05f, 0.1f, 0.5f, 1.0f));

}  // namespace
}  // namespace fedguard::nn
