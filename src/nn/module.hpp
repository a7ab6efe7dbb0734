#pragma once
// Layer abstraction with explicit reverse-mode differentiation.
//
// Each Module implements forward() and backward(); forward() caches whatever
// it needs for the gradient pass (inputs, masks, activations). backward()
// accumulates parameter gradients into Parameter::grad and returns the
// gradient with respect to the module input, so containers can chain layers.
// backward_parameters() accumulates the same parameter gradients without
// forming the input gradient, for the bottom of a network where nothing reads
// it.
// This is a deliberate alternative to tape-based autograd: the architectures
// in the paper are static feed-forward stacks, and the manual scheme has no
// graph bookkeeping overhead.

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fedguard::nn {

/// A trainable tensor together with its gradient accumulator.
struct Parameter {
  tensor::Tensor value;
  tensor::Tensor grad;
  std::string name;

  Parameter() = default;
  Parameter(std::vector<std::size_t> shape, std::string parameter_name)
      : value{shape}, grad{std::move(shape)}, name{std::move(parameter_name)} {}

  [[nodiscard]] std::size_t size() const noexcept { return value.size(); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// Compute the module output for `input`; caches state for backward().
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;

  /// Propagate `grad_output` (gradient of the loss w.r.t. this module's
  /// output) back through the cached forward state. Accumulates into each
  /// Parameter::grad and returns the gradient w.r.t. the module input.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Accumulate into each Parameter::grad bit for bit what backward() would,
  /// without forming the gradient w.r.t. the module input. The default runs
  /// backward() and drops its result; Linear, Conv2d and Sequential skip the
  /// input-gradient work.
  virtual void backward_parameters(const tensor::Tensor& grad_output);

  /// Trainable parameters (empty for stateless layers).
  [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

  /// Toggle train/eval behaviour (dropout etc.). Default: no-op.
  virtual void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const noexcept { return training_; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Zero all parameter gradients.
  void zero_grad();

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t parameter_count();
  /// Scalar count of weight tensors only (excludes biases); Table II of the
  /// paper reports weight-only counts.
  [[nodiscard]] std::size_t weight_parameter_count();

 protected:
  bool training_ = true;
};

}  // namespace fedguard::nn
