#include "nn/parameter_vector.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace fedguard::nn {

std::vector<float> flatten_parameters(Module& module) {
  std::vector<float> flat;
  flat.reserve(module.parameter_count());
  for (Parameter* p : module.parameters()) {
    const auto data = p->value.data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

void copy_parameters_to(Module& module, std::span<float> out) {
  // Must fill `out` exactly, in declaration order.
  std::size_t offset = 0;
  for (Parameter* p : module.parameters()) {
    const auto data = p->value.data();
    if (offset + data.size() > out.size()) {
      throw std::invalid_argument{"copy_parameters_to: span too short"};
    }
    std::copy(data.begin(), data.end(), out.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += data.size();
  }
  if (offset != out.size()) {
    throw std::invalid_argument{"copy_parameters_to: span size mismatch"};
  }
}

void unflatten_parameters(Module& module, std::span<const float> flat) {
  std::size_t offset = 0;
  for (Parameter* p : module.parameters()) {
    const std::size_t count = p->size();
    if (offset + count > flat.size()) {
      throw std::invalid_argument{"unflatten_parameters: vector too short"};
    }
    std::copy_n(flat.data() + offset, count, p->value.raw());
    offset += count;
  }
  if (offset != flat.size()) {
    throw std::invalid_argument{"unflatten_parameters: vector too long"};
  }
}

std::vector<float> flatten_gradients(Module& module) {
  std::vector<float> flat;
  flat.reserve(module.parameter_count());
  for (Parameter* p : module.parameters()) {
    const auto data = p->grad.data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

std::size_t parameter_wire_bytes(std::size_t count) noexcept {
  return util::f32_vector_wire_size(count);
}

}  // namespace fedguard::nn
