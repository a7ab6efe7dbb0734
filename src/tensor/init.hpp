#pragma once
// Weight initialization schemes. The paper does not pin initializers; a
// seeded Linear or Conv2d layer draws a Kaiming-uniform weight and then, if it
// has a bias, a PyTorch-style U(-1/sqrt(fan_in), 1/sqrt(fan_in)) bias.

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fedguard::tensor {

/// Uniform in [lo, hi).
void init_uniform(Tensor& t, util::Rng& rng, float lo, float hi);

/// Kaiming-He uniform for ReLU: U(-sqrt(6/fan_in), sqrt(6/fan_in)).
void init_kaiming_uniform(Tensor& t, util::Rng& rng, std::size_t fan_in);

}  // namespace fedguard::tensor
