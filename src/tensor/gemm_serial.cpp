// The serial tier's GEMM loops: the A * B register tile and the A * B^T
// loop.
//
// This translation unit is built with -ffp-contract=off on top of the
// library's -march (src/tensor/CMakeLists.txt), so every multiply-add below
// rounds as written: std::fma fuses, `acc += x * y` rounds the product first.
// Left to contraction, which of these loops GCC fused depended on the build:
// - the A * B tile fused every step only when the target had FMA, so a build
//   without it (FEDGUARD_MARCH=OFF) missed the golden digests;
// - in the A * B^T loop, the single-column partial sums fused under Sapphire
//   Rapids tuning and did not under Zen 3 tuning.
// The serial tier is the determinism oracle, so its rounding is spelled out
// here: the A * B tile fuses every step, and the A * B^T rounding is what
// GCC 12 made of that loop under Zen 3 tuning, the build the golden digests
// in tests/test_update_pipeline.cpp were pinned with.
//
// Both accumulate each output in a fixed order, so output is deterministic
// and thread-count independent (rows are partitioned, never split). The A * B
// tile adds the depth products of one output in ascending order; C[i,j] =
// dot(A row i, B row j) is computed four dot products at a time in kLanes
// partial sums, reduced in a fixed order.

#include "tensor/gemm_serial.hpp"

#include <cmath>

namespace fedguard::tensor::detail {

namespace {

constexpr std::size_t kMr = 4;   // A * B micro-tile rows
constexpr std::size_t kNr = 16;  // A * B micro-tile cols (one AVX-512 / two AVX vectors)
constexpr std::size_t kLanes = 8;
constexpr std::size_t kDotCols = 4;

/// acc plus x[0, r) . y[0, r) for a depth remainder r < kLanes, in index
/// order: one four-wide step that rounds each product, then fused steps.
float dot_remainder(const float* x, const float* y, std::size_t r, float acc) {
  std::size_t p = 0;
  if (r >= 4) {
    for (; p < 4; ++p) acc += x[p] * y[p];
  }
  for (; p < r; ++p) acc = std::fma(x[p], y[p], acc);
  return acc;
}

}  // namespace

void gemm_serial_micro(const float* a, std::size_t a_rs, std::size_t a_cs,
                       const float* b_panel, std::size_t ldb, float* c_tile, std::size_t ldc,
                       std::size_t mr, std::size_t nr, std::size_t kc) {
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
        for (std::size_t ii = 0; ii < kMr; ++ii) {
          acc[ii][jj] = std::fma(a_col[ii], b_pj, acc[ii][jj]);
        }
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
      for (std::size_t ii = 0; ii < mr; ++ii) {
        acc[ii][jj] = std::fma(a_col[ii], b_pj, acc[ii][jj]);
      }
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) c_tile[ii * ldc + jj] = acc[ii][jj];
  }
}

void gemm_tb_serial(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                    std::size_t n) {
  const std::size_t k_lanes = k - k % kLanes;
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    std::size_t j = 0;
    // Four columns at a time: fused partial sums.
    for (; j + kDotCols <= n; j += kDotCols) {
      float acc[kDotCols][kLanes] = {};
      for (std::size_t p = 0; p < k_lanes; p += kLanes) {
        for (std::size_t col = 0; col < kDotCols; ++col) {
          const float* b_row = b + (j + col) * k;
          for (std::size_t l = 0; l < kLanes; ++l) {
            acc[col][l] = std::fma(a_row[p + l], b_row[p + l], acc[col][l]);
          }
        }
      }
      for (std::size_t col = 0; col < kDotCols; ++col) {
        acc[col][0] = dot_remainder(a_row + k_lanes, b + (j + col) * k + k_lanes,
                                    k - k_lanes, acc[col][0]);
        float total = 0.0f;
        for (std::size_t l = 0; l < kLanes; ++l) total += acc[col][l];
        c_row[j + col] = total;
      }
    }
    // The remaining columns one at a time: partial sums of rounded products.
    for (; j < n; ++j) {
      const float* b_row = b + j * k;
      float lanes[kLanes] = {};
      for (std::size_t p = 0; p < k_lanes; p += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) lanes[l] += a_row[p + l] * b_row[p + l];
      }
      lanes[0] = dot_remainder(a_row + k_lanes, b_row + k_lanes, k - k_lanes, lanes[0]);
      float total = 0.0f;
      for (std::size_t l = 0; l < kLanes; ++l) total += lanes[l];
      c_row[j] = total;
    }
  }
}

}  // namespace fedguard::tensor::detail
