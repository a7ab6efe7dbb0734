#include "nn/linear.hpp"
#include <cmath>

#include <stdexcept>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace fedguard::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool with_bias)
    : in_features_{in_features},
      out_features_{out_features},
      with_bias_{with_bias},
      weight_{{out_features, in_features}, "linear.weight"},
      bias_{{out_features}, "linear.bias"} {}

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
               bool with_bias)
    : Linear{in_features, out_features, with_bias} {
  tensor::init_kaiming_uniform(weight_.value, rng, in_features);
  if (with_bias_) {
    // PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
    const float bound =
        1.0f / std::sqrt(static_cast<float>(in_features > 0 ? in_features : 1));
    tensor::init_uniform(bias_.value, rng, -bound, bound);
  }
}

tensor::Tensor Linear::forward(const tensor::Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument{"Linear::forward: expected [N, " +
                                std::to_string(in_features_) + "], got " +
                                input.shape_string()};
  }
  cached_input_ = input;
  tensor::Tensor out{{input.dim(0), out_features_}};
  tensor::matmul_trans_b(input, weight_.value, out);
  if (with_bias_) tensor::add_bias_rows(out, bias_.value.data());
  return out;
}

void Linear::backward_parameters(const tensor::Tensor& grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_features_ ||
      grad_output.dim(0) != cached_input_.dim(0)) {
    throw std::invalid_argument{"Linear::backward: gradient shape mismatch"};
  }
  // dW [out, in] += dY^T [out, N] * X [N, in]
  tensor::matmul_trans_a_accumulate(grad_output, cached_input_, weight_.grad);
  if (with_bias_) tensor::add_rows_into(grad_output, bias_.grad.data());
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_output) {
  backward_parameters(grad_output);
  // dX [N, in] = dY [N, out] * W [out, in]
  tensor::Tensor grad_input{{grad_output.dim(0), in_features_}};
  tensor::matmul(grad_output, weight_.value, grad_input);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace fedguard::nn
