#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "parallel/kernel_config.hpp"
#include "parallel/thread_pool.hpp"
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
// order regardless of blocking or row partitioning, so output is identical
// for any thread count and bit-stable across runs.

constexpr std::size_t kMr = 4;    // micro-tile rows
constexpr std::size_t kNr = 16;   // micro-tile cols (one AVX-512 / two AVX vectors)
constexpr std::size_t kMc = 64;   // rows per macro tile
constexpr std::size_t kKc = 256;  // depth chunk: A tile kMc x kKc = 64 KiB
constexpr std::size_t kNc = 512;  // cols per macro tile: B tile kKc x kNc = 512 KiB

void micro_kernel(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b_panel,
                  std::size_t ldb, float* c_tile, std::size_t ldc, std::size_t mr,
                  std::size_t nr, std::size_t kc) {
  if (mr == kMr && nr == kNr) {
    float acc[kMr][kNr];
    for (std::size_t ii = 0; ii < kMr; ++ii) {
      for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] = c_tile[ii * ldc + jj];
    }
    for (std::size_t p = 0; p < kc; ++p) {
      const float* b_row = b_panel + p * ldb;
      // Gather the column of A first; the jj-outer nest below is the shape
      // GCC turns into broadcast+FMA over full-width vectors (the ii-outer
      // form SLP-vectorizes across rows at 4 lanes instead — ~18x slower).
      float a_col[kMr];
      for (std::size_t ii = 0; ii < kMr; ++ii) a_col[ii] = a[ii * a_rs + p * a_cs];
      for (std::size_t jj = 0; jj < kNr; ++jj) {
        const float b_pj = b_row[jj];
        for (std::size_t ii = 0; ii < kMr; ++ii) acc[ii][jj] += a_col[ii] * b_pj;
      }
    }
    for (std::size_t ii = 0; ii < kMr; ++ii) {
      for (std::size_t jj = 0; jj < kNr; ++jj) c_tile[ii * ldc + jj] = acc[ii][jj];
    }
    return;
  }
  // Edge tile: same accumulators and per-element order, partial bounds.
  float acc[kMr][kNr];
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] = c_tile[ii * ldc + jj];
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* b_row = b_panel + p * ldb;
    float a_col[kMr];
    for (std::size_t ii = 0; ii < mr; ++ii) a_col[ii] = a[ii * a_rs + p * a_cs];
    for (std::size_t jj = 0; jj < nr; ++jj) {
      const float b_pj = b_row[jj];
      for (std::size_t ii = 0; ii < mr; ++ii) acc[ii][jj] += a_col[ii] * b_pj;
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) c_tile[ii * ldc + jj] = acc[ii][jj];
  }
}

/// Accumulates C[row_begin:row_end, :] += op(A) * B for one row slice. The
/// micro-tile geometry and kernel come from the runtime dispatch table; the
/// serial tier (kt.gemm_micro == nullptr) keeps the inlined scalar kernel
/// above as the determinism oracle.
void gemm_rows(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b, float* c,
               std::size_t k, std::size_t n, std::size_t row_begin, std::size_t row_end,
               const kernels::KernelTable& kt) {
  const std::size_t tile_mr = kt.gemm_mr;
  const std::size_t tile_nr = kt.gemm_nr;
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    for (std::size_t ic = row_begin; ic < row_end; ic += kMc) {
      const std::size_t mc = std::min(kMc, row_end - ic);
      for (std::size_t jc = 0; jc < n; jc += kNc) {
        const std::size_t nc = std::min(kNc, n - jc);
        for (std::size_t i = 0; i < mc; i += tile_mr) {
          const std::size_t mr = std::min(tile_mr, mc - i);
          for (std::size_t j = 0; j < nc; j += tile_nr) {
            const std::size_t nr = std::min(tile_nr, nc - j);
            if (kt.gemm_micro != nullptr) {
              kt.gemm_micro(a + (ic + i) * a_rs + pc * a_cs, a_rs, a_cs, b + pc * n + jc + j,
                            n, c + (ic + i) * n + jc + j, n, mr, nr, kc);
            } else {
              micro_kernel(a + (ic + i) * a_rs + pc * a_cs, a_rs, a_cs, b + pc * n + jc + j,
                           n, c + (ic + i) * n + jc + j, n, mr, nr, kc);
            }
          }
        }
      }
    }
  }
}

/// Row-partitioned parallel driver. Partitions align to kMc blocks so every
/// row is computed by exactly the same loop nest as the serial path.
void gemm_dispatch(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b, float* c,
                   std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  const kernels::KernelTable& kt = kernels::kernel_table();
  const parallel::KernelConfig config = parallel::kernel_config();
  const std::size_t flops = 2 * m * k * n;
  if (!parallel::should_parallelize(flops, config.gemm_min_flops)) {
    gemm_rows(a, a_rs, a_cs, b, c, k, n, 0, m, kt);
    return;
  }
  parallel::kernel_parallel_ranges(m, kMc, [&](std::size_t row_begin, std::size_t row_end) {
    gemm_rows(a, a_rs, a_cs, b, c, k, n, row_begin, row_end, kt);
  });
}

// ---- A * B^T ---------------------------------------------------------------
//
// C[i,j] = dot(A row i, B row j): both operands are traversed unit-stride, so
// instead of transposing B we compute four dot products at a time with
// kLanes-wide partial sums that the compiler maps onto vector registers. The
// lanes are reduced in a fixed order, so output is deterministic and
// thread-count independent (rows are partitioned, never split). The SIMD
// tiers replace this loop with a register-tiled kernel from the dispatch
// table; its per-element arithmetic is likewise fixed, so their results do
// not depend on the row split either.

constexpr std::size_t kLanes = 8;
constexpr std::size_t kDotCols = 4;

void gemm_tb_rows(const float* a, const float* b, float* c, std::size_t k, std::size_t n,
                  std::size_t row_begin, std::size_t row_end, kernels::GemmTbFn simd_tile) {
  if (simd_tile != nullptr) {
    simd_tile(a + row_begin * k, b, c + row_begin * n, row_end - row_begin, k, n);
    return;
  }
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    std::size_t j = 0;
    for (; j + kDotCols <= n; j += kDotCols) {
      float acc[kDotCols][kLanes] = {};
      std::size_t p = 0;
      for (; p + kLanes <= k; p += kLanes) {
        for (std::size_t col = 0; col < kDotCols; ++col) {
          const float* b_row = b + (j + col) * k;
          for (std::size_t l = 0; l < kLanes; ++l) {
            acc[col][l] += a_row[p + l] * b_row[p + l];
          }
        }
      }
      for (; p < k; ++p) {
        for (std::size_t col = 0; col < kDotCols; ++col) {
          acc[col][0] += a_row[p] * b[(j + col) * k + p];
        }
      }
      for (std::size_t col = 0; col < kDotCols; ++col) {
        float total = 0.0f;
        for (std::size_t l = 0; l < kLanes; ++l) total += acc[col][l];
        c_row[j + col] = total;
      }
    }
    for (; j < n; ++j) {
      const float* b_row = b + j * k;
      float lanes[kLanes] = {};
      std::size_t p = 0;
      for (; p + kLanes <= k; p += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += a_row[p + l] * b_row[p + l];
      }
      for (; p < k; ++p) lanes[0] += a_row[p] * b_row[p];
      float total = 0.0f;
      for (std::size_t l = 0; l < kLanes; ++l) total += lanes[l];
      c_row[j] = total;
    }
  }
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

/// True when a span op of `size` elements should fan out. The serial fast
/// path in each elementwise op below stays a plain loop — no std::function
/// is constructed unless the span crosses the threshold.
bool elementwise_parallel(std::size_t size) noexcept {
  return parallel::should_parallelize(size,
                                      parallel::kernel_config().elementwise_min_size);
}

constexpr std::size_t kElementwiseGrain = 4096;

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
  const std::size_t size = x.size();
  if (!elementwise_parallel(size)) {
    for (std::size_t i = 0; i < size; ++i) dst[i] += alpha * src[i];
    return;
  }
  parallel::kernel_parallel_ranges(size, kElementwiseGrain,
                                   [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] += alpha * src[i];
  });
}

void add(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  FEDGUARD_CHECK(a.size() == b.size() && a.size() == out.size(), "add: length mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  const std::size_t size = a.size();
  if (!elementwise_parallel(size)) {
    for (std::size_t i = 0; i < size; ++i) dst[i] = pa[i] + pb[i];
    return;
  }
  parallel::kernel_parallel_ranges(size, kElementwiseGrain,
                                   [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = pa[i] + pb[i];
  });
}

void sub(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  FEDGUARD_CHECK(a.size() == b.size() && a.size() == out.size(), "sub: length mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  const std::size_t size = a.size();
  if (!elementwise_parallel(size)) {
    for (std::size_t i = 0; i < size; ++i) dst[i] = pa[i] - pb[i];
    return;
  }
  parallel::kernel_parallel_ranges(size, kElementwiseGrain,
                                   [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = pa[i] - pb[i];
  });
}

void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  FEDGUARD_CHECK(a.size() == b.size() && a.size() == out.size(),
                 "hadamard: length mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  const std::size_t size = a.size();
  if (!elementwise_parallel(size)) {
    for (std::size_t i = 0; i < size; ++i) dst[i] = pa[i] * pb[i];
    return;
  }
  parallel::kernel_parallel_ranges(size, kElementwiseGrain,
                                   [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = pa[i] * pb[i];
  });
}

void scale(std::span<float> x, float alpha) noexcept {
  float* dst = x.data();
  const std::size_t size = x.size();
  if (!elementwise_parallel(size)) {
    for (std::size_t i = 0; i < size; ++i) dst[i] *= alpha;
    return;
  }
  parallel::kernel_parallel_ranges(size, kElementwiseGrain,
                                   [=](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] *= alpha;
  });
}

float sum(std::span<const float> x) noexcept {
  const parallel::KernelConfig config = parallel::kernel_config();
  if (!parallel::should_parallelize(x.size(), config.elementwise_min_size)) {
    double total = 0.0;
    for (const float v : x) total += v;
    return static_cast<float>(total);
  }
  // Fixed-size chunks with an ordered final reduction: the result depends on
  // the chunking, not on scheduling, so repeated runs agree exactly.
  constexpr std::size_t kChunk = std::size_t{1} << 14;
  const std::size_t chunks = (x.size() + kChunk - 1) / kChunk;
  std::vector<double> partials(chunks, 0.0);
  const float* src = x.data();
  const std::size_t size = x.size();
  parallel::parallel_for(parallel::kernel_pool(), 0, chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * kChunk;
    const std::size_t end = std::min(size, begin + kChunk);
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) total += src[i];
    partials[chunk] = total;
  });
  double total = 0.0;
  for (const double v : partials) total += v;
  return static_cast<float>(total);
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

void log_softmax_rows(const Tensor& logits, Tensor& out) {
  FEDGUARD_CHECK(logits.rank() == 2, "log_softmax_rows: logits must be rank 2");
  FEDGUARD_CHECK_FINITE(logits.data(), "log_softmax_rows: non-finite logit");
  if (!out.same_shape(logits)) out = Tensor{logits.shape()};
  for (std::size_t r = 0; r < logits.dim(0); ++r) {
    const auto in = logits.row(r);
    auto dst = out.row(r);
    const float max_logit = *std::max_element(in.begin(), in.end());
    float total = 0.0f;
    for (const float v : in) total += std::exp(v - max_logit);
    const float log_norm = max_logit + std::log(total);
    for (std::size_t c = 0; c < in.size(); ++c) dst[c] = in[c] - log_norm;
  }
}

// ---- im2col / col2im -------------------------------------------------------

void im2col_strided(std::span<const float> image, const ConvGeometry& g, float* out,
                    std::size_t ld, std::size_t column_offset) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  FEDGUARD_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
                 "im2col_strided: image size mismatch");
  const auto pad = static_cast<std::ptrdiff_t>(g.padding);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* channel = image.data() + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t patch_row = (c * g.kernel + kh) * g.kernel + kw;
        float* dst = out + patch_row * ld + column_offset;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t src_y = static_cast<std::ptrdiff_t>(y + kh) - pad;
          if (src_y < 0 || src_y >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::fill(dst + y * ow, dst + (y + 1) * ow, 0.0f);
            continue;
          }
          const float* src_row = channel + static_cast<std::size_t>(src_y) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t src_x = static_cast<std::ptrdiff_t>(x + kw) - pad;
            dst[y * ow + x] = (src_x < 0 || src_x >= static_cast<std::ptrdiff_t>(g.in_w))
                                  ? 0.0f
                                  : src_row[static_cast<std::size_t>(src_x)];
          }
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
  for (std::size_t s = 0; s < count; ++s) {
    im2col_strided(images.subspan(s * image_size, image_size), g, columns, ld, s * pixels);
  }
}

void col2im_strided_accumulate(const float* columns, std::size_t ld, std::size_t column_offset,
                               const ConvGeometry& g, std::span<float> image_grad) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  FEDGUARD_CHECK(image_grad.size() == g.in_channels * g.in_h * g.in_w,
                 "col2im_strided_accumulate: image_grad size mismatch");
  const auto pad = static_cast<std::ptrdiff_t>(g.padding);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* channel = image_grad.data() + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel; ++kw) {
        const std::size_t patch_row = (c * g.kernel + kh) * g.kernel + kw;
        const float* src = columns + patch_row * ld + column_offset;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t dst_y = static_cast<std::ptrdiff_t>(y + kh) - pad;
          if (dst_y < 0 || dst_y >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* dst_row = channel + static_cast<std::size_t>(dst_y) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t dst_x = static_cast<std::ptrdiff_t>(x + kw) - pad;
            if (dst_x < 0 || dst_x >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            dst_row[static_cast<std::size_t>(dst_x)] += src[y * ow + x];
          }
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
  for (std::size_t s = 0; s < count; ++s) {
    col2im_strided_accumulate(columns, ld, s * pixels, g,
                              images_grad.subspan(s * image_size, image_size));
  }
}

}  // namespace fedguard::tensor
