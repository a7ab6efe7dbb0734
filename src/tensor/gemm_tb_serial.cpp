// The serial tier's A * B^T loop.
//
// This translation unit is built with -ffp-contract=off on top of the
// library's -march (src/tensor/CMakeLists.txt), so every multiply-add below
// rounds as written: std::fma fuses, `acc += x * y` rounds the product first.
// Left to contraction, which of these loops GCC fused and how it vectorized
// their tails depended on -march/-mtune: the single-column partial sums fused
// under Sapphire Rapids tuning and did not under Zen 3 tuning, so the serial
// tier (the determinism oracle) gave different bits on different build hosts.
// The rounding spelled out here is what GCC 12 made of that loop under Zen 3
// tuning, the build the golden digests in tests/test_update_pipeline.cpp were
// pinned with.
//
// C[i,j] = dot(A row i, B row j) is computed four dot products at a time in
// kLanes partial sums, reduced in a fixed order, so output is deterministic
// and thread-count independent (rows are partitioned, never split).

#include "tensor/gemm_tb_serial.hpp"

#include <cmath>

namespace fedguard::tensor::detail {

namespace {

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

void gemm_tb_serial_rows(const float* a, const float* b, float* c, std::size_t k,
                         std::size_t n, std::size_t row_begin, std::size_t row_end) {
  const std::size_t k_lanes = k - k % kLanes;
  for (std::size_t i = row_begin; i < row_end; ++i) {
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
