#pragma once
// Ordered container of modules; forward chains layer outputs, backward chains
// gradients in reverse. Owns its children.

#include <memory>

#include "nn/module.hpp"

namespace fedguard::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Append a layer; returns a reference for inline chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  /// Construct-and-append helper.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// Runs backward() down to the first layer with parameters, calls that
  /// layer's backward_parameters() and skips the layers below it, whose
  /// gradients nothing reads.
  void backward_parameters(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void set_training(bool training) override;

  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] Module& layer(std::size_t i) noexcept { return *layers_[i]; }

 private:
  /// Backward through layers_[size-1] .. layers_[last]; when
  /// `parameters_only`, layers_[last] runs backward_parameters() and the
  /// returned tensor is the gradient that layer received.
  tensor::Tensor backward_down_to(const tensor::Tensor& grad_output, std::size_t last,
                                  bool parameters_only);

  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace fedguard::nn
