// AVX2 optimizer updates for the runtime dispatch table. Compiled with
// -mavx2 -ffp-contract=off; see kernel_avx512_optim.cpp for why contraction
// must stay off here. Every lane does the serial loop's exact multiply, add,
// sqrt and divide, so the tier is bit-identical to kernel_serial.cpp.

#include <immintrin.h>

#include "tensor/kernels/kernel_impl.hpp"

namespace fedguard::tensor::kernels::avx2 {

namespace {

constexpr std::size_t kWidth = 8;

/// Lane l is selected (sign bit set) when l < count.
__m256i tail_mask(std::size_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

}  // namespace

void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay) {
  const __m256 lr = _mm256_set1_ps(learning_rate);
  const __m256 mu = _mm256_set1_ps(momentum);
  const __m256 wd = _mm256_set1_ps(weight_decay);
  const __m256i full = _mm256_set1_epi32(-1);
  for (std::size_t i = 0; i < n; i += kWidth) {
    const __m256i mask = n - i >= kWidth ? full : tail_mask(n - i);
    const __m256 x = _mm256_maskload_ps(value + i, mask);
    const __m256 g = _mm256_add_ps(_mm256_maskload_ps(grad + i, mask), _mm256_mul_ps(wd, x));
    __m256 step = g;
    if (velocity != nullptr) {
      step = _mm256_add_ps(_mm256_mul_ps(mu, _mm256_maskload_ps(velocity + i, mask)), g);
      _mm256_maskstore_ps(velocity + i, mask, step);
    }
    _mm256_maskstore_ps(value + i, mask, _mm256_sub_ps(x, _mm256_mul_ps(lr, step)));
  }
}

void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients) {
  const __m256 alpha = _mm256_set1_ps(coefficients.alpha);
  const __m256 beta1 = _mm256_set1_ps(coefficients.beta1);
  const __m256 beta2 = _mm256_set1_ps(coefficients.beta2);
  const __m256 one_minus_beta1 = _mm256_set1_ps(1.0f - coefficients.beta1);
  const __m256 one_minus_beta2 = _mm256_set1_ps(1.0f - coefficients.beta2);
  const __m256 epsilon = _mm256_set1_ps(coefficients.epsilon);
  const __m256 wd = _mm256_set1_ps(coefficients.weight_decay);
  const __m256i full = _mm256_set1_epi32(-1);
  for (std::size_t i = 0; i < n; i += kWidth) {
    const __m256i mask = n - i >= kWidth ? full : tail_mask(n - i);
    const __m256 x = _mm256_maskload_ps(value + i, mask);
    const __m256 g = _mm256_add_ps(_mm256_maskload_ps(grad + i, mask), _mm256_mul_ps(wd, x));
    const __m256 m1 = _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_maskload_ps(m + i, mask)),
                                    _mm256_mul_ps(one_minus_beta1, g));
    // (1 - beta2) * g * g groups left to right, as in the serial loop.
    const __m256 v1 =
        _mm256_add_ps(_mm256_mul_ps(beta2, _mm256_maskload_ps(v + i, mask)),
                      _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, g), g));
    const __m256 update = _mm256_div_ps(_mm256_mul_ps(alpha, m1),
                                        _mm256_add_ps(_mm256_sqrt_ps(v1), epsilon));
    _mm256_maskstore_ps(m + i, mask, m1);
    _mm256_maskstore_ps(v + i, mask, v1);
    _mm256_maskstore_ps(value + i, mask, _mm256_sub_ps(x, update));
  }
}

}  // namespace fedguard::tensor::kernels::avx2
