#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/kernel_config.hpp"

namespace fedguard::nn {

tensor::Tensor ReLU::forward(const tensor::Tensor& input) {
  mask_ = tensor::Tensor{input.shape()};
  tensor::Tensor out{input.shape()};
  const float* in = input.raw();
  float* mask = mask_.raw();
  float* dst = out.raw();
  const std::size_t size = input.size();
  parallel::elementwise_ranges(size, parallel::kElementwiseGrain, size,
                               [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const bool positive = in[i] > 0.0f;
      mask[i] = positive ? 1.0f : 0.0f;
      dst[i] = positive ? in[i] : 0.0f;
    }
  });
  return out;
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(mask_)) {
    throw std::invalid_argument{"ReLU::backward: gradient shape mismatch"};
  }
  tensor::Tensor grad_input{grad_output.shape()};
  const auto go = grad_output.data();
  const auto mask = mask_.data();
  auto dst = grad_input.data();
  for (std::size_t i = 0; i < go.size(); ++i) dst[i] = go[i] * mask[i];
  return grad_input;
}

tensor::Tensor Sigmoid::forward(const tensor::Tensor& input) {
  output_ = tensor::Tensor{input.shape()};
  const auto in = input.data();
  auto dst = output_.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    dst[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
  return output_;
}

tensor::Tensor Sigmoid::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument{"Sigmoid::backward: gradient shape mismatch"};
  }
  tensor::Tensor grad_input{grad_output.shape()};
  const auto go = grad_output.data();
  const auto y = output_.data();
  auto dst = grad_input.data();
  for (std::size_t i = 0; i < go.size(); ++i) dst[i] = go[i] * y[i] * (1.0f - y[i]);
  return grad_input;
}

tensor::Tensor Tanh::forward(const tensor::Tensor& input) {
  output_ = tensor::Tensor{input.shape()};
  const auto in = input.data();
  auto dst = output_.data();
  for (std::size_t i = 0; i < in.size(); ++i) dst[i] = std::tanh(in[i]);
  return output_;
}

tensor::Tensor Tanh::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument{"Tanh::backward: gradient shape mismatch"};
  }
  tensor::Tensor grad_input{grad_output.shape()};
  const auto go = grad_output.data();
  const auto y = output_.data();
  auto dst = grad_input.data();
  for (std::size_t i = 0; i < go.size(); ++i) dst[i] = go[i] * (1.0f - y[i] * y[i]);
  return grad_input;
}

}  // namespace fedguard::nn
