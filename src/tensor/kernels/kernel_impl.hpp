#pragma once

// Internal declarations of the per-arch kernel entry points. Definitions live
// in kernel_serial.cpp / kernel_avx2*.cpp / kernel_avx512*.cpp, each compiled
// with its own ISA flags; this header stays intrinsic-free so kernel_arch.cpp
// can reference every tier without widening its own target ISA.
//
// The one-pair squared_distance kernels are not in the dispatch table. They
// stay as the reference each tier's squared_distance_tiles must equal bit for
// bit (tests/test_kernel_arch.cpp), and they live in the same translation
// unit as the tile so that both get the same flags, FP contraction included.

#include <cstddef>

#include "tensor/kernels/kernel_arch.hpp"

namespace fedguard::tensor::kernels {

/// Floats of each row that squared_distance_tiles advances all of its tiles
/// through before moving on: a whole number of vector steps on every tier.
inline constexpr std::size_t kDistanceChunk = 512;

namespace serial {
double squared_distance(const float* a, const float* b, std::size_t n);
void squared_distance_tiles(const float* const* rows, std::size_t n, const DistanceTile* tiles,
                            std::size_t tile_count, double* out, std::size_t stride);
double squared_distance_wide(const float* point, const double* center, std::size_t n);
void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay);
void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients);
}  // namespace serial

namespace avx2 {
void gemm_micro_6x16(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b_panel,
                     std::size_t ldb, float* c_tile, std::size_t ldc, std::size_t mr,
                     std::size_t nr, std::size_t kc);
inline constexpr std::size_t kGemmTbMr = 2;
void gemm_tb(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n);
double squared_distance(const float* a, const float* b, std::size_t n);
void squared_distance_tiles(const float* const* rows, std::size_t n, const DistanceTile* tiles,
                            std::size_t tile_count, double* out, std::size_t stride);
double squared_distance_wide(const float* point, const double* center, std::size_t n);
// kernel_avx2_optim.cpp (FP contraction off).
void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay);
void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients);
}  // namespace avx2

namespace avx512 {
void gemm_micro_8x32(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b_panel,
                     std::size_t ldb, float* c_tile, std::size_t ldc, std::size_t mr,
                     std::size_t nr, std::size_t kc);
inline constexpr std::size_t kGemmTbMr = 4;
void gemm_tb(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n);
double squared_distance(const float* a, const float* b, std::size_t n);
void squared_distance_tiles(const float* const* rows, std::size_t n, const DistanceTile* tiles,
                            std::size_t tile_count, double* out, std::size_t stride);
double squared_distance_wide(const float* point, const double* center, std::size_t n);
// kernel_avx512_optim.cpp (FP contraction off).
void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay);
void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients);
}  // namespace avx512

}  // namespace fedguard::tensor::kernels
