#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/init.hpp"

namespace fedguard::nn {

namespace {
// Cap on the im2col column matrix (floats) per GEMM chunk: 4M floats = 16 MiB.
// Typical layers fit a whole client batch in one chunk; the cap only bounds
// memory for very large batches or feature maps.
constexpr std::size_t kMaxColumnFloats = std::size_t{1} << 22;
}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t in_h, std::size_t in_w, std::size_t padding, bool with_bias)
    : out_channels_{out_channels},
      with_bias_{with_bias},
      geometry_{in_channels, in_h, in_w, kernel, padding},
      weight_{{out_channels, in_channels * kernel * kernel}, "conv.weight"},
      bias_{{out_channels}, "conv.bias"} {
  if (kernel == 0 || kernel > in_h + 2 * padding || kernel > in_w + 2 * padding) {
    throw std::invalid_argument{"Conv2d: kernel does not fit input"};
  }
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t in_h, std::size_t in_w, util::Rng& rng, std::size_t padding,
               bool with_bias)
    : Conv2d{in_channels, out_channels, kernel, in_h, in_w, padding, with_bias} {
  tensor::init_kaiming_uniform(weight_.value, rng, geometry_.patch_size());
  if (with_bias_) {
    const float bound = 1.0f / std::sqrt(static_cast<float>(geometry_.patch_size()));
    tensor::init_uniform(bias_.value, rng, -bound, bound);
  }
}

std::size_t Conv2d::samples_per_chunk(std::size_t batch) const noexcept {
  const std::size_t per_sample = geometry_.patch_size() * geometry_.out_h() * geometry_.out_w();
  const std::size_t fit = std::max<std::size_t>(1, kMaxColumnFloats / per_sample);
  return std::min(batch, fit);
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& input) {
  const auto& g = geometry_;
  if (input.rank() != 4 || input.dim(1) != g.in_channels || input.dim(2) != g.in_h ||
      input.dim(3) != g.in_w) {
    throw std::invalid_argument{"Conv2d::forward: input shape mismatch, got " +
                                input.shape_string()};
  }
  cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t pixels = oh * ow;
  const std::size_t patch = g.patch_size();
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  const std::size_t chunk = samples_per_chunk(batch);
  tensor::Tensor out{{batch, out_channels_, oh, ow}};
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t cs = std::min(chunk, batch - s0);
    const std::size_t cols = cs * pixels;
    scratch_columns_.resize(patch * cols);
    tensor::im2col_batch(input.data().subspan(s0 * image_size, cs * image_size), g, cs,
                         scratch_columns_.data());
    scratch_out_mat_.resize(out_channels_ * cols);
    // One GEMM for the whole chunk: W[oc, patch] * cols[patch, cs*pixels].
    tensor::matmul(weight_.value.raw(), scratch_columns_.data(), scratch_out_mat_.data(),
                   out_channels_, patch, cols);
    // Scatter [oc, sample, pixel] -> [sample, oc, pixel], adding the bias.
    for (std::size_t s = 0; s < cs; ++s) {
      float* dst = out.raw() + (s0 + s) * out_channels_ * pixels;
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const float* src = scratch_out_mat_.data() + oc * cols + s * pixels;
        const float b = with_bias_ ? bias_.value[oc] : 0.0f;
        float* row = dst + oc * pixels;
        for (std::size_t p = 0; p < pixels; ++p) row[p] = src[p] + b;
      }
    }
  }
  return out;
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_output) {
  tensor::Tensor grad_input{cached_input_.shape()};
  backward_chunks(grad_output, &grad_input);
  return grad_input;
}

void Conv2d::backward_parameters(const tensor::Tensor& grad_output) {
  backward_chunks(grad_output, nullptr);
}

void Conv2d::backward_chunks(const tensor::Tensor& grad_output, tensor::Tensor* grad_input) {
  const auto& g = geometry_;
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t pixels = oh * ow;
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument{"Conv2d::backward: gradient shape mismatch"};
  }
  const std::size_t patch = g.patch_size();
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  const std::size_t chunk = samples_per_chunk(batch);
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t cs = std::min(chunk, batch - s0);
    const std::size_t cols = cs * pixels;
    // Gather dY [sample, oc, pixel] -> [oc, sample, pixel] so the chunk is
    // one [oc, cs*pixels] matrix.
    scratch_grad_mat_.resize(out_channels_ * cols);
    for (std::size_t s = 0; s < cs; ++s) {
      const float* go = grad_output.raw() + (s0 + s) * out_channels_ * pixels;
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        std::copy(go + oc * pixels, go + (oc + 1) * pixels,
                  scratch_grad_mat_.data() + oc * cols + s * pixels);
      }
    }
    scratch_columns_.resize(patch * cols);
    tensor::im2col_batch(cached_input_.data().subspan(s0 * image_size, cs * image_size), g,
                         cs, scratch_columns_.data());
    // dW[oc, patch] += dY[oc, cs*pixels] * cols[patch, cs*pixels]^T — one
    // GEMM per chunk into persistent scratch, then accumulated.
    scratch_dw_.resize(out_channels_ * patch);
    tensor::matmul_trans_b(scratch_grad_mat_.data(), scratch_columns_.data(),
                           scratch_dw_.data(), out_channels_, cols, patch);
    tensor::axpy(1.0f, scratch_dw_, weight_.grad.data());
    if (with_bias_) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        const float* row = scratch_grad_mat_.data() + oc * cols;
        float acc = 0.0f;
        for (std::size_t p = 0; p < cols; ++p) acc += row[p];
        bias_.grad[oc] += acc;
      }
    }
    if (grad_input == nullptr) continue;
    // dcols[patch, cs*pixels] = W^T[patch, oc] * dY[oc, cs*pixels].
    scratch_grad_cols_.resize(patch * cols);
    tensor::matmul_trans_a(weight_.value.raw(), scratch_grad_mat_.data(),
                           scratch_grad_cols_.data(), patch, out_channels_, cols);
    tensor::col2im_batch_accumulate(scratch_grad_cols_.data(), g, cs,
                                    grad_input->data().subspan(s0 * image_size,
                                                               cs * image_size));
  }
}

std::vector<Parameter*> Conv2d::parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace fedguard::nn
