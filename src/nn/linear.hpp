#pragma once
// Fully-connected layer: y = x W^T + b with x [N, in], W [out, in], b [out].

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace fedguard::nn {

class Linear final : public Module {
 public:
  /// Kaiming-uniform weight (fan_in = in_features), bias drawn from
  /// U(-1/sqrt(fan_in), 1/sqrt(fan_in)) after the weight.
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
         bool with_bias = true);
  /// Zero parameters and no draw, for a layer whose values are loaded next.
  Linear(std::size_t in_features, std::size_t out_features, bool with_bias = true);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  /// backward_parameters() plus dX = dY * W.
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// dW += dY^T * X and db += column sums of dY.
  void backward_parameters(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  [[nodiscard]] std::string name() const override { return "Linear"; }
  [[nodiscard]] std::size_t in_features() const noexcept { return in_features_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_features_; }

  [[nodiscard]] Parameter& weight() noexcept { return weight_; }
  [[nodiscard]] Parameter& bias() noexcept { return bias_; }
  [[nodiscard]] bool has_bias() const noexcept { return with_bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  bool with_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  tensor::Tensor cached_input_;
};

}  // namespace fedguard::nn
