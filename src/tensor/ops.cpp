#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/check.hpp"

namespace fedguard::tensor {

namespace {

void check_matmul(std::size_t am, std::size_t ak, std::size_t bk, std::size_t bn,
                  const Tensor& c) {
  if (ak != bk) throw std::invalid_argument{"matmul: inner dimension mismatch"};
  if (c.rank() != 2 || c.dim(0) != am || c.dim(1) != bn) {
    throw std::invalid_argument{"matmul: output shape mismatch"};
  }
}

// ---- Blocked GEMM ----------------------------------------------------------
//
// Classic MC/KC/NC cache blocking around an MR x NR register micro-kernel.
// No packing: at these sizes (hundreds, not tens of thousands) the blocked
// loop nest alone keeps the working set resident, and skipping the pack step
// keeps small layers cheap. The micro-kernel accumulates the full depth chunk
// in local accumulators so the compiler holds them in vector registers and
// auto-vectorizes the NR loop.
//
// A is addressed as element(i, p) = A[i * a_rs + p * a_cs], so the same
// driver serves matmul (a_rs = k, a_cs = 1) and matmul_trans_a
// (a_rs = 1, a_cs = m). B and C are always row-major with unit column stride.
//
// Determinism: every C element accumulates its k products in ascending p
// order regardless of blocking or of how the rows and columns are split, so
// output is identical for any thread count and bit-stable across runs.

constexpr std::size_t kMc = 64;   // rows per macro tile
constexpr std::size_t kKc = 256;  // depth chunk: A tile kMc x kKc = 64 KiB
constexpr std::size_t kNc = 512;  // cols per macro tile: B tile kKc x kNc = 512 KiB

/// Accumulates C[row_begin:row_end, col_begin:col_end] += op(A) * B. The
/// micro-tile geometry and kernel come from the runtime dispatch table; the
/// serial tier's is gemm_serial_micro, the determinism oracle. col_begin is a
/// multiple of kt.gemm_nr, so the register tiles fall where they fall for the
/// whole matrix.
void gemm_block(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b, float* c,
                std::size_t k, std::size_t n, std::size_t row_begin, std::size_t row_end,
                std::size_t col_begin, std::size_t col_end, const kernels::KernelTable& kt) {
  const std::size_t tile_mr = kt.gemm_mr;
  const std::size_t tile_nr = kt.gemm_nr;
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    for (std::size_t ic = row_begin; ic < row_end; ic += kMc) {
      const std::size_t mc = std::min(kMc, row_end - ic);
      for (std::size_t jc = col_begin; jc < col_end; jc += kNc) {
        const std::size_t nc = std::min(kNc, col_end - jc);
        for (std::size_t i = 0; i < mc; i += tile_mr) {
          const std::size_t mr = std::min(tile_mr, mc - i);
          for (std::size_t j = 0; j < nc; j += tile_nr) {
            const std::size_t nr = std::min(tile_nr, nc - j);
            kt.gemm_micro(a + (ic + i) * a_rs + pc * a_cs, a_rs, a_cs, b + pc * n + jc + j, n,
                          c + (ic + i) * n + jc + j, n, mr, nr, kc);
          }
        }
      }
    }
  }
}

/// Parallel driver. Ranges of kMc-row blocks keep every row on the serial
/// path's loop nest. A GEMM with fewer row blocks than kernel threads (a conv
/// layer's C_out <= 64 rows, Linear's dX at small batch) splits its columns
/// instead, on whole register tiles, so no edge tile appears mid-matrix.
void gemm_dispatch(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b, float* c,
                   std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  const kernels::KernelTable& kt = kernels::kernel_table();
  const parallel::KernelConfig config = parallel::kernel_config();
  const std::size_t flops = 2 * m * k * n;
  if (!parallel::should_parallelize(flops, config.gemm_min_flops)) {
    gemm_block(a, a_rs, a_cs, b, c, k, n, 0, m, 0, n, kt);
    return;
  }
  if ((m + kMc - 1) / kMc < parallel::kernel_threads()) {
    parallel::kernel_parallel_ranges(n, kt.gemm_nr,
                                     [&](std::size_t col_begin, std::size_t col_end) {
      gemm_block(a, a_rs, a_cs, b, c, k, n, 0, m, col_begin, col_end, kt);
    });
    return;
  }
  parallel::kernel_parallel_ranges(m, kMc, [&](std::size_t row_begin, std::size_t row_end) {
    gemm_block(a, a_rs, a_cs, b, c, k, n, row_begin, row_end, 0, n, kt);
  });
}

// ---- A * B^T ---------------------------------------------------------------
//
// C[i,j] = dot(A row i, B row j): both operands are traversed unit-stride, so
// B is never transposed. The SIMD tiers compute it with a register-tiled
// kernel from the dispatch table; the serial tier's loop lives in
// gemm_serial.cpp, which spells out its rounding. Either way the
// per-element arithmetic is fixed, so results do not depend on the row split.

void gemm_tb_rows(const float* a, const float* b, float* c, std::size_t k, std::size_t n,
                  std::size_t row_begin, std::size_t row_end, kernels::GemmTbFn tile) {
  tile(a + row_begin * k, b, c + row_begin * n, row_end - row_begin, k, n);
}

void gemm_tb_dispatch(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                      std::size_t n) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  const kernels::KernelTable& kt = kernels::kernel_table();
  const parallel::KernelConfig config = parallel::kernel_config();
  const std::size_t flops = 2 * m * k * n;
  if (!parallel::should_parallelize(flops, config.gemm_min_flops)) {
    gemm_tb_rows(a, b, c, k, n, 0, m, kt.gemm_tb);
    return;
  }
  // Split on whole register tiles, so that no range ends inside a tile.
  parallel::kernel_parallel_ranges(m, kt.gemm_tb_mr,
                                   [&](std::size_t row_begin, std::size_t row_end) {
    gemm_tb_rows(a, b, c, k, n, row_begin, row_end, kt.gemm_tb);
  });
}

}  // namespace

// ---- Raw-buffer GEMM -------------------------------------------------------

void matmul(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n) {
  FEDGUARD_TRACE_SPAN("kernel.gemm", "matmul");
  std::fill(c, c + m * n, 0.0f);
  gemm_dispatch(a, k, 1, b, c, m, k, n);
}

void matmul_trans_a(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                    std::size_t n) {
  FEDGUARD_TRACE_SPAN("kernel.gemm", "matmul_trans_a");
  std::fill(c, c + m * n, 0.0f);
  gemm_dispatch(a, 1, m, b, c, m, k, n);
}

void matmul_trans_a_accumulate(const float* a, const float* b, float* c, std::size_t m,
                               std::size_t k, std::size_t n) {
  FEDGUARD_TRACE_SPAN("kernel.gemm", "matmul_trans_a_accumulate");
  gemm_dispatch(a, 1, m, b, c, m, k, n);
}

void matmul_trans_b(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                    std::size_t n) {
  FEDGUARD_TRACE_SPAN("kernel.gemm", "matmul_trans_b");
  gemm_tb_dispatch(a, b, c, m, k, n);
}

// ---- Tensor GEMM wrappers --------------------------------------------------

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  FEDGUARD_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: operands must be rank 2");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  check_matmul(m, k, b.dim(0), n, c);
  matmul(a.raw(), b.raw(), c.raw(), m, k, n);
}

void matmul_trans_a(const Tensor& a, const Tensor& b, Tensor& c) {
  FEDGUARD_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: operands must be rank 2");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  check_matmul(m, k, b.dim(0), n, c);
  matmul_trans_a(a.raw(), b.raw(), c.raw(), m, k, n);
}

void matmul_trans_a_accumulate(const Tensor& a, const Tensor& b, Tensor& c) {
  FEDGUARD_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: operands must be rank 2");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  check_matmul(m, k, b.dim(0), n, c);
  matmul_trans_a_accumulate(a.raw(), b.raw(), c.raw(), m, k, n);
}

void matmul_trans_b(const Tensor& a, const Tensor& b, Tensor& c) {
  FEDGUARD_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: operands must be rank 2");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  check_matmul(m, k, b.dim(1), n, c);
  matmul_trans_b(a.raw(), b.raw(), c.raw(), m, k, n);
}

// ---- Elementwise -----------------------------------------------------------

void axpy(float alpha, std::span<const float> x, std::span<float> out) {
  FEDGUARD_CHECK(x.size() == out.size(), "axpy: length mismatch");
  const float* src = x.data();
  float* dst = out.data();
  parallel::elementwise_ranges(x.size(), parallel::kElementwiseGrain, x.size(), [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] += alpha * src[i];
  });
}

void add(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  FEDGUARD_CHECK(a.size() == b.size() && a.size() == out.size(), "add: length mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  parallel::elementwise_ranges(a.size(), parallel::kElementwiseGrain, a.size(), [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = pa[i] + pb[i];
  });
}

void sub(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  FEDGUARD_CHECK(a.size() == b.size() && a.size() == out.size(), "sub: length mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  parallel::elementwise_ranges(a.size(), parallel::kElementwiseGrain, a.size(), [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = pa[i] - pb[i];
  });
}

void scale(std::span<float> x, float alpha) noexcept {
  float* dst = x.data();
  parallel::elementwise_ranges(x.size(), parallel::kElementwiseGrain, x.size(), [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] *= alpha;
  });
}

std::size_t argmax(std::span<const float> x) {
  FEDGUARD_CHECK(!x.empty(), "argmax: empty input");
  return static_cast<std::size_t>(std::max_element(x.begin(), x.end()) - x.begin());
}

void add_rows_into(const Tensor& rows, std::span<float> out) {
  FEDGUARD_CHECK(rows.rank() == 2 && rows.dim(1) == out.size(),
                 "add_rows_into: shape mismatch");
  for (std::size_t r = 0; r < rows.dim(0); ++r) {
    const auto row = rows.row(r);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += row[c];
  }
}

void add_bias_rows(Tensor& rows, std::span<const float> bias) {
  FEDGUARD_CHECK(rows.rank() == 2 && rows.dim(1) == bias.size(),
                 "add_bias_rows: shape mismatch");
  for (std::size_t r = 0; r < rows.dim(0); ++r) {
    auto row = rows.row(r);
    for (std::size_t c = 0; c < bias.size(); ++c) row[c] += bias[c];
  }
}

void softmax_rows(const Tensor& logits, Tensor& out) {
  FEDGUARD_CHECK(logits.rank() == 2, "softmax_rows: logits must be rank 2");
  FEDGUARD_CHECK_FINITE(logits.data(), "softmax_rows: non-finite logit");
  if (!out.same_shape(logits)) out = Tensor{logits.shape()};
  for (std::size_t r = 0; r < logits.dim(0); ++r) {
    const auto in = logits.row(r);
    auto dst = out.row(r);
    const float max_logit = *std::max_element(in.begin(), in.end());
    float total = 0.0f;
    for (std::size_t c = 0; c < in.size(); ++c) {
      dst[c] = std::exp(in[c] - max_logit);
      total += dst[c];
    }
    const float inv = 1.0f / total;
    for (auto& v : dst) v *= inv;
  }
}

// ---- im2col / col2im -------------------------------------------------------
//
// Each (channel, kh, kw) patch row reads image row y + kh - padding at
// columns x + kw - padding. The columns that land inside the image form one
// contiguous run, so a row is a zero fill, a copy and a zero fill (im2col),
// or one run of adds (col2im).

namespace {

/// The output columns [begin, end) of kernel column `kw` whose source column
/// x + kw - padding lies inside the image; `shift` is kw - padding.
struct ColumnRun {
  std::size_t begin;
  std::size_t end;
  std::ptrdiff_t shift;
};

ColumnRun column_run(const ConvGeometry& g, std::size_t kw) {
  const std::ptrdiff_t shift =
      static_cast<std::ptrdiff_t>(kw) - static_cast<std::ptrdiff_t>(g.padding);
  const auto ow = static_cast<std::ptrdiff_t>(g.out_w());
  const std::ptrdiff_t begin = std::clamp<std::ptrdiff_t>(-shift, 0, ow);
  const std::ptrdiff_t end =
      std::clamp<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(g.in_w) - shift, begin, ow);
  return {static_cast<std::size_t>(begin), static_cast<std::size_t>(end), shift};
}

/// The image row that kernel row `kh` reads for output row y; negative when
/// that row lies in the padding.
std::ptrdiff_t source_row(const ConvGeometry& g, std::size_t kh, std::size_t y) {
  const std::ptrdiff_t src_y =
      static_cast<std::ptrdiff_t>(y + kh) - static_cast<std::ptrdiff_t>(g.padding);
  return src_y < static_cast<std::ptrdiff_t>(g.in_h) ? src_y : -1;
}

}  // namespace

void im2col_strided(std::span<const float> image, const ConvGeometry& g, float* out,
                    std::size_t ld, std::size_t column_offset) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  FEDGUARD_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
                 "im2col_strided: image size mismatch");
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* channel = image.data() + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t patch_row = (c * g.kernel + kh) * g.kernel + kw;
        const ColumnRun run = column_run(g, kw);
        float* dst = out + patch_row * ld + column_offset;
        for (std::size_t y = 0; y < oh; ++y, dst += ow) {
          const std::ptrdiff_t src_y = source_row(g, kh, y);
          if (src_y < 0 || run.begin == run.end) {
            std::fill(dst, dst + ow, 0.0f);
            continue;
          }
          const float* src = channel + static_cast<std::size_t>(src_y) * g.in_w +
                             static_cast<std::ptrdiff_t>(run.begin) + run.shift;
          std::fill(dst, dst + run.begin, 0.0f);
          std::copy(src, src + (run.end - run.begin), dst + run.begin);
          std::fill(dst + run.end, dst + ow, 0.0f);
        }
      }
    }
  }
}

void im2col(std::span<const float> image, const ConvGeometry& g, Tensor& columns) {
  const std::size_t pixels = g.out_h() * g.out_w();
  if (columns.rank() != 2 || columns.dim(0) != g.patch_size() || columns.dim(1) != pixels) {
    columns = Tensor{{g.patch_size(), pixels}};
  }
  im2col_strided(image, g, columns.raw(), pixels, 0);
}

void im2col_batch(std::span<const float> images, const ConvGeometry& g, std::size_t count,
                  float* columns) {
  const std::size_t pixels = g.out_h() * g.out_w();
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  FEDGUARD_CHECK(images.size() == count * image_size, "im2col_batch: images size mismatch");
  const std::size_t ld = count * pixels;
  // Sample s writes only its own column range, so the samples split freely.
  parallel::elementwise_ranges(count, 1, g.patch_size() * ld, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      im2col_strided(images.subspan(s * image_size, image_size), g, columns, ld, s * pixels);
    }
  });
}

void col2im_strided_accumulate(const float* columns, std::size_t ld, std::size_t column_offset,
                               const ConvGeometry& g, std::span<float> image_grad) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  FEDGUARD_CHECK(image_grad.size() == g.in_channels * g.in_h * g.in_w,
                 "col2im_strided_accumulate: image_grad size mismatch");
  // Each image element receives its additions in ascending (kh, kw) order,
  // one per patch row that reads it.
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* channel = image_grad.data() + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t patch_row = (c * g.kernel + kh) * g.kernel + kw;
        const ColumnRun run = column_run(g, kw);
        if (run.begin == run.end) continue;
        const std::size_t length = run.end - run.begin;
        const float* src = columns + patch_row * ld + column_offset + run.begin;
        for (std::size_t y = 0; y < oh; ++y, src += ow) {
          const std::ptrdiff_t dst_y = source_row(g, kh, y);
          if (dst_y < 0) continue;
          float* dst = channel + static_cast<std::size_t>(dst_y) * g.in_w +
                       static_cast<std::ptrdiff_t>(run.begin) + run.shift;
          for (std::size_t x = 0; x < length; ++x) dst[x] += src[x];
        }
      }
    }
  }
}

void col2im_accumulate(const Tensor& columns, const ConvGeometry& g,
                       std::span<float> image_grad) {
  const std::size_t pixels = g.out_h() * g.out_w();
  FEDGUARD_CHECK(columns.rank() == 2 && columns.dim(0) == g.patch_size() &&
                     columns.dim(1) == pixels,
                 "col2im_accumulate: columns shape mismatch");
  col2im_strided_accumulate(columns.raw(), pixels, 0, g, image_grad);
}

void col2im_batch_accumulate(const float* columns, const ConvGeometry& g, std::size_t count,
                             std::span<float> images_grad) {
  const std::size_t pixels = g.out_h() * g.out_w();
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  FEDGUARD_CHECK(images_grad.size() == count * image_size,
                 "col2im_batch_accumulate: images_grad size mismatch");
  const std::size_t ld = count * pixels;
  // Sample s adds only into its own image gradient.
  parallel::elementwise_ranges(count, 1, g.patch_size() * ld, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      col2im_strided_accumulate(columns, ld, s * pixels, g,
                                images_grad.subspan(s * image_size, image_size));
    }
  });
}

}  // namespace fedguard::tensor
