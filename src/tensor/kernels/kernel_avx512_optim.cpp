// AVX-512 optimizer updates for the runtime dispatch table. This TU is
// compiled with -mavx512f -ffp-contract=off (src/tensor/CMakeLists.txt):
// under GCC's default -ffp-contract=fast the multiply and add below would
// fuse into an FMA and round once instead of twice, so the result would
// drift from the serial tier by an ulp. With contraction off each lane does
// the serial loop's exact IEEE multiply, add, sqrt and divide, and the
// masked tail keeps the same per-element arithmetic, so every tier is
// bit-identical to kernel_serial.cpp.

#include <immintrin.h>

#include "tensor/kernels/kernel_impl.hpp"

namespace fedguard::tensor::kernels::avx512 {

namespace {

constexpr std::size_t kWidth = 16;

__mmask16 tail_mask(std::size_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}

}  // namespace

void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay) {
  const __m512 lr = _mm512_set1_ps(learning_rate);
  const __m512 mu = _mm512_set1_ps(momentum);
  const __m512 wd = _mm512_set1_ps(weight_decay);
  for (std::size_t i = 0; i < n; i += kWidth) {
    const __mmask16 mask = n - i >= kWidth ? __mmask16{0xffff} : tail_mask(n - i);
    const __m512 x = _mm512_maskz_loadu_ps(mask, value + i);
    const __m512 g = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, grad + i), _mm512_mul_ps(wd, x));
    __m512 step = g;
    if (velocity != nullptr) {
      step = _mm512_add_ps(_mm512_mul_ps(mu, _mm512_maskz_loadu_ps(mask, velocity + i)), g);
      _mm512_mask_storeu_ps(velocity + i, mask, step);
    }
    _mm512_mask_storeu_ps(value + i, mask, _mm512_sub_ps(x, _mm512_mul_ps(lr, step)));
  }
}

void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients) {
  const __m512 alpha = _mm512_set1_ps(coefficients.alpha);
  const __m512 beta1 = _mm512_set1_ps(coefficients.beta1);
  const __m512 beta2 = _mm512_set1_ps(coefficients.beta2);
  const __m512 one_minus_beta1 = _mm512_set1_ps(1.0f - coefficients.beta1);
  const __m512 one_minus_beta2 = _mm512_set1_ps(1.0f - coefficients.beta2);
  const __m512 epsilon = _mm512_set1_ps(coefficients.epsilon);
  const __m512 wd = _mm512_set1_ps(coefficients.weight_decay);
  for (std::size_t i = 0; i < n; i += kWidth) {
    const __mmask16 mask = n - i >= kWidth ? __mmask16{0xffff} : tail_mask(n - i);
    const __m512 x = _mm512_maskz_loadu_ps(mask, value + i);
    const __m512 g = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, grad + i), _mm512_mul_ps(wd, x));
    const __m512 m1 = _mm512_add_ps(_mm512_mul_ps(beta1, _mm512_maskz_loadu_ps(mask, m + i)),
                                    _mm512_mul_ps(one_minus_beta1, g));
    // (1 - beta2) * g * g groups left to right, as in the serial loop.
    const __m512 v1 =
        _mm512_add_ps(_mm512_mul_ps(beta2, _mm512_maskz_loadu_ps(mask, v + i)),
                      _mm512_mul_ps(_mm512_mul_ps(one_minus_beta2, g), g));
    const __m512 update = _mm512_div_ps(_mm512_mul_ps(alpha, m1),
                                        _mm512_add_ps(_mm512_sqrt_ps(v1), epsilon));
    _mm512_mask_storeu_ps(m + i, mask, m1);
    _mm512_mask_storeu_ps(v + i, mask, v1);
    _mm512_mask_storeu_ps(value + i, mask, _mm512_sub_ps(x, update));
  }
}

}  // namespace fedguard::tensor::kernels::avx512
