#include "nn/module.hpp"

namespace fedguard::nn {

void Module::backward_parameters(const tensor::Tensor& grad_output) {
  static_cast<void>(backward(grad_output));
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::size_t Module::parameter_count() {
  std::size_t total = 0;
  for (Parameter* p : parameters()) total += p->size();
  return total;
}

std::size_t Module::weight_parameter_count() {
  std::size_t total = 0;
  for (Parameter* p : parameters()) {
    if (p->name.find("bias") == std::string::npos) total += p->size();
  }
  return total;
}

}  // namespace fedguard::nn
