#pragma once
// First-order optimizers operating on a fixed parameter list. The optimizer
// does not own the parameters; per-parameter state (momentum/Adam moments) is
// keyed by list position, so the parameter list must stay stable.

#include <vector>

#include "nn/module.hpp"

namespace fedguard::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> parameters)
      : parameters_{std::move(parameters)} {}
  virtual ~Optimizer() = default;

  /// Apply one update step from the accumulated gradients.
  virtual void step() = 0;

  /// Zero all parameter gradients.
  void zero_grad();

  [[nodiscard]] const std::vector<Parameter*>& parameters() const noexcept {
    return parameters_;
  }

 protected:
  std::vector<Parameter*> parameters_;
};

/// SGD with optional momentum and L2 weight decay.
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> parameters, float learning_rate, float momentum = 0.0f,
      float weight_decay = 0.0f);

  void step() override;

 private:
  float learning_rate_;
  float momentum_;
  float weight_decay_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Parameter*> parameters, float learning_rate, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f, float weight_decay = 0.0f);

  void step() override;

 private:
  float learning_rate_;
  float beta1_, beta2_, epsilon_, weight_decay_;
  std::size_t step_count_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

}  // namespace fedguard::nn
