// Serial reference kernels for the runtime dispatch table.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the loops below replace direct calls to
// util::squared_distance, the GeoMed Weiszfeld inner loop and the nn::Sgd /
// nn::Adam update loops, all of which lived in libraries built without FMA
// contraction, so the serial tier must perform the exact same IEEE
// multiply-then-add sequence to keep the golden digests bit-stable.

#include <cmath>

#include "tensor/kernels/kernel_impl.hpp"

namespace fedguard::tensor::kernels::serial {

double squared_distance(const float* a, const float* b, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += d * d;
  }
  return total;
}

double squared_distance_wide(const float* point, const double* center, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(point[i]) - center[i];
    total += d * d;
  }
  return total;
}

void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay) {
  if (velocity != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const float g = grad[i] + weight_decay * value[i];
      velocity[i] = momentum * velocity[i] + g;
      value[i] -= learning_rate * velocity[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const float g = grad[i] + weight_decay * value[i];
      value[i] -= learning_rate * g;
    }
  }
}

void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients) {
  // A local copy: the float stores below may alias the caller's struct, which
  // would force a reload of every coefficient on every element.
  const AdamCoefficients c = coefficients;
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] + c.weight_decay * value[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g;
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * g * g;
    value[i] -= c.alpha * m[i] / (std::sqrt(v[i]) + c.epsilon);
  }
}

}  // namespace fedguard::tensor::kernels::serial
