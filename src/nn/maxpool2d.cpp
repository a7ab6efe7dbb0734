#include "nn/maxpool2d.hpp"

#include <stdexcept>

#include "parallel/kernel_config.hpp"

namespace fedguard::nn {

MaxPool2d::MaxPool2d(std::size_t kernel) : kernel_{kernel} {
  if (kernel == 0) throw std::invalid_argument{"MaxPool2d: kernel must be positive"};
}

tensor::Tensor MaxPool2d::forward(const tensor::Tensor& input) {
  if (input.rank() != 4) {
    throw std::invalid_argument{"MaxPool2d::forward: expected [N, C, H, W], got " +
                                input.shape_string()};
  }
  const std::size_t batch = input.dim(0), channels = input.dim(1);
  const std::size_t in_h = input.dim(2), in_w = input.dim(3);
  const std::size_t out_h = in_h / kernel_, out_w = in_w / kernel_;
  if (out_h == 0 || out_w == 0) {
    throw std::invalid_argument{"MaxPool2d::forward: input smaller than kernel"};
  }
  input_shape_ = input.shape();
  output_shape_ = {batch, channels, out_h, out_w};
  tensor::Tensor out{output_shape_};
  argmax_.assign(out.size(), 0);

  const float* src = input.raw();
  float* dst = out.raw();
  std::size_t* argmax = argmax_.data();
  const std::size_t k = kernel_;
  const std::size_t out_plane = out_h * out_w;
  // Each (sample, channel) plane is pooled on its own, so the planes split
  // freely.
  parallel::elementwise_ranges(batch * channels, 1, input.size(),
                               [=](std::size_t begin, std::size_t end) {
    for (std::size_t plane_index = begin; plane_index < end; ++plane_index) {
      const std::size_t plane = plane_index * in_h * in_w;
      std::size_t out_index = plane_index * out_plane;
      for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox) {
          std::size_t best_index = plane + (oy * k) * in_w + ox * k;
          float best = src[best_index];
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::size_t idx = plane + (oy * k + ky) * in_w + (ox * k + kx);
              if (src[idx] > best) {
                best = src[idx];
                best_index = idx;
              }
            }
          }
          dst[out_index] = best;
          argmax[out_index] = best_index;
          ++out_index;
        }
      }
    }
  });
  return out;
}

tensor::Tensor MaxPool2d::backward(const tensor::Tensor& grad_output) {
  if (grad_output.shape() != output_shape_) {
    throw std::invalid_argument{"MaxPool2d::backward: gradient shape mismatch"};
  }
  tensor::Tensor grad_input{input_shape_};
  float* dst = grad_input.raw();
  const float* src = grad_output.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) dst[argmax_[i]] += src[i];
  return grad_input;
}

}  // namespace fedguard::nn
