#pragma once
// Numeric kernels over Tensor / float spans. These are the hot loops of the
// training substrate: GEMM variants, im2col for convolution, elementwise
// arithmetic, reductions, and row-wise softmax.

#include <span>

#include "tensor/tensor.hpp"

namespace fedguard::tensor {

// ---- GEMM -----------------------------------------------------------------
// All matrices are dense row-major. Output is overwritten unless the name
// says "accumulate". The kernels are cache-blocked and register-tiled, and
// fan out onto parallel::kernel_pool() above the
// parallel::KernelConfig::gemm_min_flops threshold, split by rows or, when
// the rows cannot fill the pool, by columns (see docs/PERFORMANCE.md).
// Results are identical for any thread count.

/// C[m,n] = A[m,k] * B[k,n]
void matmul(const Tensor& a, const Tensor& b, Tensor& c);
/// C[m,n] = A[k,m]^T * B[k,n]
void matmul_trans_a(const Tensor& a, const Tensor& b, Tensor& c);
/// C[m,n] = A[m,k] * B[n,k]^T
void matmul_trans_b(const Tensor& a, const Tensor& b, Tensor& c);
/// C[m,n] += A[k,m]^T * B[k,n]  (used for weight-gradient accumulation)
void matmul_trans_a_accumulate(const Tensor& a, const Tensor& b, Tensor& c);

// Raw-buffer overloads of the same kernels, for callers (batched conv,
// scratch-buffer reuse) whose operands are slices of larger allocations
// rather than whole Tensors. No shape validation — sizes are trusted.

/// c[m,n] = a[m,k] * b[k,n]
void matmul(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n);
/// c[m,n] = a[k,m]^T * b[k,n]
void matmul_trans_a(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                    std::size_t n);
/// c[m,n] = a[m,k] * b[n,k]^T
void matmul_trans_b(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                    std::size_t n);
/// c[m,n] += a[k,m]^T * b[k,n]
void matmul_trans_a_accumulate(const float* a, const float* b, float* c, std::size_t m,
                               std::size_t k, std::size_t n);

// ---- Elementwise ------------------------------------------------------------
// Shape agreement is enforced by FEDGUARD_CHECK (throws util::CheckError) in
// FEDGUARD_ASSERTS builds; unchecked otherwise.

/// out[i] += alpha * x[i]
void axpy(float alpha, std::span<const float> x, std::span<float> out);
/// out[i] = a[i] + b[i]
void add(std::span<const float> a, std::span<const float> b, std::span<float> out);
/// out[i] = a[i] - b[i]
void sub(std::span<const float> a, std::span<const float> b, std::span<float> out);
/// x[i] *= alpha
void scale(std::span<float> x, float alpha) noexcept;

// ---- Reductions -------------------------------------------------------------

/// Index of the maximum element (first on ties); requires non-empty input.
[[nodiscard]] std::size_t argmax(std::span<const float> x);

/// Adds each row of `rows` [n, d] into `out` [d].
void add_rows_into(const Tensor& rows, std::span<float> out);
/// Broadcast-add `bias` [d] onto every row of `rows` [n, d].
void add_bias_rows(Tensor& rows, std::span<const float> bias);

// ---- Softmax ----------------------------------------------------------------

/// Row-wise numerically-stable softmax of logits [n, d] into out [n, d].
void softmax_rows(const Tensor& logits, Tensor& out);

// ---- Convolution support ------------------------------------------------------

/// Geometry of a stride-1 2-D convolution with symmetric zero padding.
/// The paper's classifier (Table II) uses 5x5 kernels with padding 2
/// ("same" convolution: 28 -> 28 -> pool -> 14 -> 14 -> pool -> 7, giving the
/// reported 64*7*7 = 3136 flatten width).
struct ConvGeometry {
  std::size_t in_channels, in_h, in_w;
  std::size_t kernel;   // square kernel
  std::size_t padding;  // symmetric zero padding
  [[nodiscard]] std::size_t out_h() const noexcept { return in_h + 2 * padding - kernel + 1; }
  [[nodiscard]] std::size_t out_w() const noexcept { return in_w + 2 * padding - kernel + 1; }
  [[nodiscard]] std::size_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
};

/// im2col for one image: input [C, H, W] flattened span -> columns
/// [patch_size, out_h*out_w] (row-major), so conv becomes
/// W[out_c, patch] * cols[patch, pixels].
void im2col(std::span<const float> image, const ConvGeometry& g, Tensor& columns);

/// im2col for one image into an externally laid-out column matrix whose rows
/// have leading dimension `ld`; this image's patch occupies columns
/// [column_offset, column_offset + out_h*out_w).
void im2col_strided(std::span<const float> image, const ConvGeometry& g, float* out,
                    std::size_t ld, std::size_t column_offset);

/// Batched im2col: `count` images [count, C, H, W] (flattened) into one
/// column matrix [patch_size, count * out_h*out_w], sample s occupying the
/// column range [s*pixels, (s+1)*pixels). One GEMM against this matrix
/// convolves the whole batch. Samples fan out onto the kernel pool above the
/// elementwise threshold.
void im2col_batch(std::span<const float> images, const ConvGeometry& g, std::size_t count,
                  float* columns);

/// Inverse scatter-add of im2col: columns [patch_size, out_h*out_w] back into
/// image gradient [C, H, W] (accumulated into `image_grad`).
void col2im_accumulate(const Tensor& columns, const ConvGeometry& g,
                       std::span<float> image_grad);

/// col2im from one image's slice of an externally laid-out column matrix
/// (see im2col_strided), accumulated into `image_grad`.
void col2im_strided_accumulate(const float* columns, std::size_t ld,
                               std::size_t column_offset, const ConvGeometry& g,
                               std::span<float> image_grad);

/// Batched col2im: columns [patch_size, count * out_h*out_w] accumulated back
/// into `count` image gradients (flattened [count, C, H, W]), samples fanned
/// out like im2col_batch.
void col2im_batch_accumulate(const float* columns, const ConvGeometry& g, std::size_t count,
                             std::span<float> images_grad);

}  // namespace fedguard::tensor
