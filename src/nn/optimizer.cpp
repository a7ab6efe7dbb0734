#include "nn/optimizer.hpp"

#include <cmath>

#include "tensor/kernels/kernel_arch.hpp"

namespace fedguard::nn {

void Optimizer::zero_grad() {
  for (Parameter* p : parameters_) p->grad.zero();
}

Sgd::Sgd(std::vector<Parameter*> parameters, float learning_rate, float momentum,
         float weight_decay)
    : Optimizer{std::move(parameters)},
      learning_rate_{learning_rate},
      momentum_{momentum},
      weight_decay_{weight_decay} {
  if (momentum_ != 0.0f) {
    velocity_.reserve(parameters_.size());
    for (const Parameter* p : parameters_) {
      velocity_.emplace_back(p->value.shape());
    }
  }
}

void Sgd::step() {
  const tensor::kernels::SgdStepFn sgd_step = tensor::kernels::kernel_table().sgd_step;
  for (std::size_t k = 0; k < parameters_.size(); ++k) {
    Parameter& p = *parameters_[k];
    float* velocity = momentum_ != 0.0f ? velocity_[k].raw() : nullptr;
    sgd_step(p.value.raw(), p.grad.raw(), velocity, p.value.size(), learning_rate_, momentum_,
             weight_decay_);
  }
}

Adam::Adam(std::vector<Parameter*> parameters, float learning_rate, float beta1, float beta2,
           float epsilon, float weight_decay)
    : Optimizer{std::move(parameters)},
      learning_rate_{learning_rate},
      beta1_{beta1},
      beta2_{beta2},
      epsilon_{epsilon},
      weight_decay_{weight_decay} {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Parameter* p : parameters_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  const float alpha = learning_rate_ * std::sqrt(bias2) / bias1;
  const tensor::kernels::AdamCoefficients coefficients{alpha, beta1_, beta2_, epsilon_,
                                                       weight_decay_};
  const tensor::kernels::AdamStepFn adam_step = tensor::kernels::kernel_table().adam_step;
  for (std::size_t k = 0; k < parameters_.size(); ++k) {
    Parameter& p = *parameters_[k];
    adam_step(p.value.raw(), p.grad.raw(), m_[k].raw(), v_[k].raw(), p.value.size(),
              coefficients);
  }
}

}  // namespace fedguard::nn
