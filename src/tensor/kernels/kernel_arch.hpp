#pragma once

#include <cstddef>
#include <string_view>

namespace fedguard::tensor::kernels {

// Runtime-selected ISA tier for the numeric hot loops (GEMM micro-kernels,
// the defense distance passes and the optimizer updates). `Serial` is the
// always-available determinism oracle — the same scalar loops the library
// shipped with — and the wider tiers are hand-written SIMD kernels compiled
// into dedicated translation units under src/tensor/kernels/ (the only
// directory where raw intrinsics are permitted; fedguard-lint rule
// `no-raw-intrinsics`).
//
// Selection order mirrors the thread-count knob: explicit set_kernel_arch()
// (descriptor key `kernel_arch`) > FEDGUARD_KERNEL_ARCH env var > Auto.
// Auto resolves to the widest tier both compiled in and supported by the CPU,
// and an unavailable explicit request degrades down the chain
// (avx512 -> avx2 -> serial) instead of failing.
enum class KernelArch { Auto = 0, Serial, Avx2, Avx512 };

/// GEMM register micro-kernel over an `mr x nr` tile of C (mr/nr may be the
/// partial edge sizes). A is addressed as a[ii * a_rs + p * a_cs], B/C
/// row-major with unit column stride, and every C element accumulates its kc
/// products in ascending p order so results are blocking- and thread-count
/// independent.
using GemmMicroKernelFn = void (*)(const float* a, std::size_t a_rs, std::size_t a_cs,
                                   const float* b_panel, std::size_t ldb, float* c_tile,
                                   std::size_t ldc, std::size_t mr, std::size_t nr,
                                   std::size_t kc);

/// C = A * B^T over m rows of A and n rows of B (both row-major, k wide):
/// c[i * n + j] = dot(a + i * k, b + j * k). The result of each element
/// depends only on its two operand rows, never on m, n or the tiling.
using GemmTbFn = void (*)(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n);

/// One SGD step over n parameters: g = grad + weight_decay * value; with a
/// velocity buffer, velocity = momentum * velocity + g and
/// value -= learning_rate * velocity; without one (nullptr),
/// value -= learning_rate * g.
using SgdStepFn = void (*)(float* value, const float* grad, float* velocity, std::size_t n,
                           float learning_rate, float momentum, float weight_decay);

/// Per-step Adam coefficients; alpha already folds in the bias correction.
struct AdamCoefficients {
  float alpha;
  float beta1;
  float beta2;
  float epsilon;
  float weight_decay;
};

/// One Adam step over n parameters: g = grad + weight_decay * value,
/// m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g,
/// value -= alpha * m / (sqrt(v) + epsilon).
using AdamStepFn = void (*)(float* value, const float* grad, float* m, float* v,
                            std::size_t n, const AdamCoefficients& coefficients);

/// Most rows on either side of a DistanceTile.
inline constexpr std::size_t kDistanceTileRows = 4;
inline constexpr std::size_t kDistanceTileCols = 2;

/// A block of row pairs: rows [a, a + rows) of the caller's row list against
/// rows [b, b + cols), with a + rows <= b, so every pair lies strictly above
/// the diagonal. 1 <= rows <= kDistanceTileRows, 1 <= cols <= kDistanceTileCols.
struct DistanceTile {
  std::size_t a;
  std::size_t b;
  std::size_t rows;
  std::size_t cols;
};

/// For every pair (i, j) of every tile, sets out[i * stride + j] and
/// out[j * stride + i] to sum((rows[i][k] - rows[j][k])^2) over k < n,
/// accumulated in double, and writes nothing else. The tiles advance through
/// the n floats together, one chunk at a time, so a call reads each row chunk
/// from memory once however many tiles share the row. Each distance carries
/// the arithmetic of its tier's one-pair kernel (kernel_impl.hpp), so it
/// depends only on its two rows, never on the tiles or how they were split.
using SquaredDistanceTilesFn = void (*)(const float* const* rows, std::size_t n,
                                        const DistanceTile* tiles, std::size_t tile_count,
                                        double* out, std::size_t stride);

/// sum((point[i] - center[i])^2) with a float point against a double center
/// (the GeoMed Weiszfeld inner loop).
using SquaredDistanceWideFn = double (*)(const float* point, const double* center,
                                         std::size_t n);

struct KernelTable {
  KernelArch arch = KernelArch::Serial;
  // The GEMM kernels are never null; the serial entries are the loops in
  // tensor/gemm_serial.cpp, which spell out their rounding.
  GemmMicroKernelFn gemm_micro = nullptr;
  std::size_t gemm_mr = 4;
  std::size_t gemm_nr = 16;
  GemmTbFn gemm_tb = nullptr;
  // A rows per gemm_tb register tile; the parallel row split aligns to it.
  std::size_t gemm_tb_mr = 1;
  // Distance kernels are never null; the serial entries are compiled with
  // FP contraction off so they stay bit-identical to util::squared_distance
  // and the original GeoMed loop.
  SquaredDistanceTilesFn squared_distance_tiles = nullptr;
  SquaredDistanceWideFn squared_distance_wide = nullptr;
  // Optimizer updates are never null and bit-identical on every tier: every
  // entry, SIMD ones included, builds with FP contraction off and performs
  // the same IEEE multiply, add, sqrt and divide per element.
  SgdStepFn sgd_step = nullptr;
  AdamStepFn adam_step = nullptr;
};

/// Accepts "auto", "serial", "avx2", "avx512". Returns false (out untouched)
/// on anything else.
bool parse_kernel_arch(std::string_view text, KernelArch& out) noexcept;
std::string_view to_string(KernelArch arch) noexcept;

/// True when the tier is both compiled in and supported by this CPU.
/// Auto and Serial are always available.
bool kernel_arch_available(KernelArch arch) noexcept;

/// Explicit override (descriptor key). Auto clears the override so the env
/// var / CPU detection applies again.
void set_kernel_arch(KernelArch arch) noexcept;

/// The arch that would be requested before availability clamping:
/// override if set, else FEDGUARD_KERNEL_ARCH, else Auto.
KernelArch requested_kernel_arch() noexcept;

/// The resolved arch actually dispatched to (never Auto).
KernelArch active_kernel_arch() noexcept;

/// Dispatch table for the active arch. Cheap enough to fetch per kernel
/// launch (one relaxed atomic load plus a table lookup).
const KernelTable& kernel_table() noexcept;

}  // namespace fedguard::tensor::kernels
