#pragma once

#include <cstddef>

namespace fedguard::tensor::detail {

/// The serial tier's A * B register tile (its kernel table's gemm_micro):
/// c_tile[mr, nr] += op(A) tile * B panel over a depth chunk of kc, where
/// element (i, p) of op(A) is a[i * a_rs + p * a_cs] and B and C are
/// row-major with leading dimensions ldb and ldc. Tiles are at most 4 x 16,
/// the serial table's gemm_mr x gemm_nr.
void gemm_serial_micro(const float* a, std::size_t a_rs, std::size_t a_cs,
                       const float* b_panel, std::size_t ldb, float* c_tile, std::size_t ldc,
                       std::size_t mr, std::size_t nr, std::size_t kc);

/// c[i, j] = dot(a row i, b row j) for the m rows of c = a[m, k] * b[n, k]^T:
/// the serial tier's A * B^T loop (its kernel table's gemm_tb).
void gemm_tb_serial(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                    std::size_t n);

}  // namespace fedguard::tensor::detail
