#include "tensor/init.hpp"

#include <cmath>

namespace fedguard::tensor {

void init_uniform(Tensor& t, util::Rng& rng, float lo, float hi) {
  for (auto& v : t.data()) v = rng.uniform_float(lo, hi);
}

void init_kaiming_uniform(Tensor& t, util::Rng& rng, std::size_t fan_in) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in > 0 ? fan_in : 1));
  init_uniform(t, rng, -bound, bound);
}

}  // namespace fedguard::tensor
