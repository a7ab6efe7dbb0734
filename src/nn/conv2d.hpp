#pragma once
// 2-D convolution (stride 1, square kernel, symmetric zero padding) via
// batched im2col + GEMM: the whole batch (in bounded-size chunks) is lowered
// into one column matrix so forward and backward each run one large GEMM per
// chunk instead of `batch` small ones. Matches the paper's classifier layers
// (5x5 kernels with padding 2, Table II).

#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedguard::nn {

class Conv2d final : public Module {
 public:
  /// Input [N, in_channels, in_h, in_w] -> output
  /// [N, out_channels, in_h+2*padding-kernel+1, in_w+2*padding-kernel+1].
  /// Kaiming-uniform weight (fan_in = in_channels*kernel*kernel), bias drawn
  /// from U(-1/sqrt(fan_in), 1/sqrt(fan_in)) after the weight.
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t in_h, std::size_t in_w, util::Rng& rng, std::size_t padding = 0,
         bool with_bias = true);
  /// Zero parameters and no draw, for a layer whose values are loaded next.
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t in_h, std::size_t in_w, std::size_t padding = 0,
         bool with_bias = true);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  /// backward_parameters() plus dX = col2im(W^T * dY).
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// dW += dY * cols^T and db += per-channel sums of dY.
  void backward_parameters(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  [[nodiscard]] std::string name() const override { return "Conv2d"; }
  [[nodiscard]] std::size_t out_channels() const noexcept { return out_channels_; }
  [[nodiscard]] const tensor::ConvGeometry& geometry() const noexcept { return geometry_; }

 private:
  /// Samples per batched-GEMM chunk, sized so the column matrix stays within
  /// a fixed memory budget.
  [[nodiscard]] std::size_t samples_per_chunk(std::size_t batch) const noexcept;
  /// The backward pass, chunk by chunk: always the parameter gradients, and
  /// dX into `grad_input` (shaped like the cached input) when it is non-null.
  void backward_chunks(const tensor::Tensor& grad_output, tensor::Tensor* grad_input);

  std::size_t out_channels_;
  bool with_bias_;
  tensor::ConvGeometry geometry_;
  Parameter weight_;  // [out_channels, in_channels*k*k]
  Parameter bias_;    // [out_channels]
  tensor::Tensor cached_input_;  // [N, C, H, W]
  // Persistent scratch reused across calls (resize keeps capacity):
  std::vector<float> scratch_columns_;   // [patch, chunk*pixels] im2col matrix
  std::vector<float> scratch_out_mat_;   // [out_c, chunk*pixels] forward GEMM result
  std::vector<float> scratch_grad_mat_;  // [out_c, chunk*pixels] gathered dY
  std::vector<float> scratch_grad_cols_; // [patch, chunk*pixels] column gradients
  std::vector<float> scratch_dw_;        // [out_c, patch] per-call weight gradient
};

}  // namespace fedguard::nn
