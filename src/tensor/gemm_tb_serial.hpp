#pragma once

#include <cstddef>

namespace fedguard::tensor::detail {

/// c[i, j] = dot(a row i, b row j) for rows [row_begin, row_end) of
/// c = a[m, k] * b[n, k]^T: the serial tier's A * B^T loop, used by
/// matmul_trans_b when the kernel table has no gemm_tb register tile.
void gemm_tb_serial_rows(const float* a, const float* b, float* c, std::size_t k,
                         std::size_t n, std::size_t row_begin, std::size_t row_end);

}  // namespace fedguard::tensor::detail
