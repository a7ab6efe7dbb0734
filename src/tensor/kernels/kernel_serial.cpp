// Serial reference kernels for the runtime dispatch table.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the loops below replace direct calls to
// util::squared_distance, the GeoMed Weiszfeld inner loop and the nn::Sgd /
// nn::Adam update loops, all of which lived in libraries built without FMA
// contraction, so the serial tier must perform the exact same IEEE
// multiply-then-add sequence to keep the golden digests bit-stable.

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels/kernel_impl.hpp"

namespace fedguard::tensor::kernels::serial {

double squared_distance(const float* a, const float* b, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += d * d;
  }
  return total;
}

namespace {

constexpr std::size_t kTilePairs = kDistanceTileRows * kDistanceTileCols;

/// Advances the running totals of an MR x NR tile, pair (i, j) at
/// total[i * NR + j], over the floats [begin, end) in index order: each pair
/// does squared_distance's subtract, multiply and add, so a total that waits
/// in memory between chunks ends equal to it.
template <std::size_t MR, std::size_t NR>
void distance_tile_chunk(const float* const* a, const float* const* b, std::size_t begin,
                         std::size_t end, double* total) {
  const float* x[MR];
  const float* y[NR];
  double acc[MR][NR];
  for (std::size_t j = 0; j < NR; ++j) y[j] = b[j];
  for (std::size_t i = 0; i < MR; ++i) {
    x[i] = a[i];
    for (std::size_t j = 0; j < NR; ++j) acc[i][j] = total[i * NR + j];
  }
  for (std::size_t p = begin; p < end; ++p) {
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t j = 0; j < NR; ++j) {
        const double d = static_cast<double>(x[i][p]) - static_cast<double>(y[j][p]);
        acc[i][j] += d * d;
      }
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) total[i * NR + j] = acc[i][j];
  }
}

using DistanceTileChunkFn = void (*)(const float* const* a, const float* const* b,
                                     std::size_t begin, std::size_t end, double* total);

// Indexed [tile rows - 1][tile cols - 1].
constexpr DistanceTileChunkFn kDistanceTileChunks[kDistanceTileRows][kDistanceTileCols] = {
    {&distance_tile_chunk<1, 1>, &distance_tile_chunk<1, 2>},
    {&distance_tile_chunk<2, 1>, &distance_tile_chunk<2, 2>},
    {&distance_tile_chunk<3, 1>, &distance_tile_chunk<3, 2>},
    {&distance_tile_chunk<4, 1>, &distance_tile_chunk<4, 2>},
};

}  // namespace

void squared_distance_tiles(const float* const* rows, std::size_t n, const DistanceTile* tiles,
                            std::size_t tile_count, double* out, std::size_t stride) {
  // Per thread and kept between calls, so a repeated pass allocates nothing.
  thread_local std::vector<double> totals;
  totals.assign(tile_count * kTilePairs, 0.0);
  for (std::size_t begin = 0; begin < n; begin += kDistanceChunk) {
    const std::size_t end = std::min(n, begin + kDistanceChunk);
    for (std::size_t t = 0; t < tile_count; ++t) {
      const DistanceTile& tile = tiles[t];
      kDistanceTileChunks[tile.rows - 1][tile.cols - 1](rows + tile.a, rows + tile.b, begin, end,
                                                         &totals[t * kTilePairs]);
    }
  }
  for (std::size_t t = 0; t < tile_count; ++t) {
    const DistanceTile& tile = tiles[t];
    for (std::size_t i = 0; i < tile.rows; ++i) {
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const double d2 = totals[t * kTilePairs + i * tile.cols + j];
        out[(tile.a + i) * stride + tile.b + j] = d2;
        out[(tile.b + j) * stride + tile.a + i] = d2;
      }
    }
  }
}

double squared_distance_wide(const float* point, const double* center, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(point[i]) - center[i];
    total += d * d;
  }
  return total;
}

void sgd_step(float* value, const float* grad, float* velocity, std::size_t n,
              float learning_rate, float momentum, float weight_decay) {
  if (velocity != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const float g = grad[i] + weight_decay * value[i];
      velocity[i] = momentum * velocity[i] + g;
      value[i] -= learning_rate * velocity[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const float g = grad[i] + weight_decay * value[i];
      value[i] -= learning_rate * g;
    }
  }
}

void adam_step(float* value, const float* grad, float* m, float* v, std::size_t n,
               const AdamCoefficients& coefficients) {
  // A local copy: the float stores below may alias the caller's struct, which
  // would force a reload of every coefficient on every element.
  const AdamCoefficients c = coefficients;
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] + c.weight_decay * value[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g;
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * g * g;
    value[i] -= c.alpha * m[i] / (std::sqrt(v[i]) + c.epsilon);
  }
}

}  // namespace fedguard::tensor::kernels::serial
