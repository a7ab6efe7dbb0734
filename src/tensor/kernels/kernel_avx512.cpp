// AVX-512/FMA kernels for the runtime dispatch table. Compiled with
// -mavx512f -mfma; dispatched to only after __builtin_cpu_supports("avx512f").
// See kernel_avx2.cpp for the tier-wide conventions (edge-tile handling,
// fixed-order reductions, tolerance vs. the serial oracle).

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "tensor/kernels/kernel_impl.hpp"

namespace fedguard::tensor::kernels::avx512 {

namespace {

void gemm_edge(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b_panel,
               std::size_t ldb, float* c_tile, std::size_t ldc, std::size_t mr,
               std::size_t nr, std::size_t kc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* b_row = b_panel + p * ldb;
    for (std::size_t ii = 0; ii < mr; ++ii) {
      const float av = a[ii * a_rs + p * a_cs];
      float* c_row = c_tile + ii * ldc;
      for (std::size_t jj = 0; jj < nr; ++jj) {
        c_row[jj] = __builtin_fmaf(av, b_row[jj], c_row[jj]);
      }
    }
  }
}

}  // namespace

void gemm_micro_8x32(const float* a, std::size_t a_rs, std::size_t a_cs, const float* b_panel,
                     std::size_t ldb, float* c_tile, std::size_t ldc, std::size_t mr,
                     std::size_t nr, std::size_t kc) {
  if (mr != 8 || nr != 32) {
    gemm_edge(a, a_rs, a_cs, b_panel, ldb, c_tile, ldc, mr, nr, kc);
    return;
  }
  __m512 acc[8][2];
  for (std::size_t ii = 0; ii < 8; ++ii) {
    acc[ii][0] = _mm512_loadu_ps(c_tile + ii * ldc);
    acc[ii][1] = _mm512_loadu_ps(c_tile + ii * ldc + 16);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* b_row = b_panel + p * ldb;
    const __m512 b0 = _mm512_loadu_ps(b_row);
    const __m512 b1 = _mm512_loadu_ps(b_row + 16);
    for (std::size_t ii = 0; ii < 8; ++ii) {
      const __m512 av = _mm512_set1_ps(a[ii * a_rs + p * a_cs]);
      acc[ii][0] = _mm512_fmadd_ps(av, b0, acc[ii][0]);
      acc[ii][1] = _mm512_fmadd_ps(av, b1, acc[ii][1]);
    }
  }
  for (std::size_t ii = 0; ii < 8; ++ii) {
    _mm512_storeu_ps(c_tile + ii * ldc, acc[ii][0]);
    _mm512_storeu_ps(c_tile + ii * ldc + 16, acc[ii][1]);
  }
}

namespace {

// A * B^T register tile: up to kGemmTbMr rows of A against up to kTbNr rows
// of B. Every element keeps the arithmetic of a one-element dot kernel: two
// FMA chains over 32-float steps, one 16-float half step into chain 0, the
// chain sum, the scalar fmaf tail into lane 0, then lanes 0..15 summed in
// order from 0.0f. The tile only shares operand loads between elements, so
// each result is independent of m, n and where the tile boundaries fall.
constexpr std::size_t kTbNr = 2;
// Bytes of B rows one block keeps resident in L2 while every A tile of the
// call streams past them.
constexpr std::size_t kTbBlockBytes = std::size_t{512} << 10;

/// out[e] = lanes[e][0] + lanes[e][1] + ... + lanes[e][15], summed left to
/// right from 0.0f, for 8 elements at once: each 8x4 block of lanes is
/// transposed so that one vector add advances all eight sums by one lane.
void ordered_lane_sums8(const float (*lanes)[16], float* out) {
  __m256 total = _mm256_setzero_ps();
  for (std::size_t l = 0; l < 16; l += 4) {
    // Register r holds lanes l..l+3 of element r (low half) and r + 4 (high).
    __m256 r[4];
    for (std::size_t e = 0; e < 4; ++e) {
      r[e] = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_load_ps(lanes[e] + l)),
                                  _mm_load_ps(lanes[e + 4] + l), 1);
    }
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    total = _mm256_add_ps(total, _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)));
    total = _mm256_add_ps(total, _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)));
    total = _mm256_add_ps(total, _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)));
    total = _mm256_add_ps(total, _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2)));
  }
  _mm256_storeu_ps(out, total);
}

/// Loads 16 floats into a register that stays put: without the empty asm,
/// GCC folds the load into every FMA that uses the value, and the tile then
/// reads each operand once per use instead of once.
__m512 load_in_register(const float* p) {
  __m512 v = _mm512_loadu_ps(p);
  asm("" : "+v"(v));
  return v;
}

/// acc[i][j] += A row i * B row j over the 16 floats at depth p.
template <std::size_t MR, std::size_t NR>
inline void gemm_tb_step(__m512 (&acc)[MR][NR], const float* a, const float* b,
                         std::size_t k, std::size_t p) {
  __m512 bv[NR];
  for (std::size_t j = 0; j < NR; ++j) bv[j] = load_in_register(b + j * k + p);
  for (std::size_t i = 0; i < MR; ++i) {
    const __m512 av = load_in_register(a + i * k + p);
    for (std::size_t j = 0; j < NR; ++j) acc[i][j] = _mm512_fmadd_ps(av, bv[j], acc[i][j]);
  }
}

template <std::size_t MR, std::size_t NR>
void gemm_tb_tile(const float* a, const float* b, float* c, std::size_t k, std::size_t ldc) {
  __m512 acc0[MR][NR];
  __m512 acc1[MR][NR];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) {
      acc0[i][j] = _mm512_setzero_ps();
      acc1[i][j] = _mm512_setzero_ps();
    }
  }
  std::size_t p = 0;
  for (; p + 32 <= k; p += 32) {
    gemm_tb_step(acc0, a, b, k, p);
    gemm_tb_step(acc1, a, b, k, p + 16);
  }
  if (p + 16 <= k) {
    gemm_tb_step(acc0, a, b, k, p);
    p += 16;
  }
  alignas(64) float lanes[MR * NR][16];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) {
      _mm512_store_ps(lanes[i * NR + j], _mm512_add_ps(acc0[i][j], acc1[i][j]));
    }
  }
  for (; p < k; ++p) {
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t j = 0; j < NR; ++j) {
        lanes[i * NR + j][0] = __builtin_fmaf(a[i * k + p], b[j * k + p], lanes[i * NR + j][0]);
      }
    }
  }
  float totals[MR * NR];
  if constexpr (MR * NR == 8) {
    ordered_lane_sums8(lanes, totals);
  } else {
    for (std::size_t e = 0; e < MR * NR; ++e) {
      float total = 0.0f;
      for (std::size_t l = 0; l < 16; ++l) total += lanes[e][l];
      totals[e] = total;
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] = totals[i * NR + j];
  }
}

using GemmTbTileFn = void (*)(const float* a, const float* b, float* c, std::size_t k,
                              std::size_t ldc);

// Indexed [rows of A - 1][rows of B - 1]: the full tile and its edge tiles.
constexpr GemmTbTileFn kGemmTbTiles[kGemmTbMr][kTbNr] = {
    {&gemm_tb_tile<1, 1>, &gemm_tb_tile<1, 2>},
    {&gemm_tb_tile<2, 1>, &gemm_tb_tile<2, 2>},
    {&gemm_tb_tile<3, 1>, &gemm_tb_tile<3, 2>},
    {&gemm_tb_tile<4, 1>, &gemm_tb_tile<4, 2>},
};

}  // namespace

void gemm_tb(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n) {
  const std::size_t row_bytes = std::max<std::size_t>(k, 1) * sizeof(float);
  const std::size_t block = std::max(kTbNr, kTbBlockBytes / row_bytes / kTbNr * kTbNr);
  for (std::size_t j0 = 0; j0 < n; j0 += block) {
    const std::size_t j_end = std::min(n, j0 + block);
    for (std::size_t i = 0; i < m; i += kGemmTbMr) {
      const std::size_t mr = std::min(kGemmTbMr, m - i);
      for (std::size_t j = j0; j < j_end; j += kTbNr) {
        const std::size_t nr = std::min(kTbNr, j_end - j);
        kGemmTbTiles[mr - 1][nr - 1](a + i * k, b + j * k, c + i * n + j, k, n);
      }
    }
  }
}

namespace {

double reduce_lanes(const double* lanes, double tail) {
  double total = 0.0;
  for (std::size_t l = 0; l < 16; ++l) total += lanes[l];
  return total + tail;
}

double reduce_lanes(__m512d acc0, __m512d acc1, double tail) {
  alignas(64) double lanes[16];
  _mm512_store_pd(lanes, acc0);
  _mm512_store_pd(lanes + 8, acc1);
  return reduce_lanes(lanes, tail);
}

}  // namespace

double squared_distance(const float* a, const float* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_sub_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i)),
                                     _mm512_cvtps_pd(_mm256_loadu_ps(b + i)));
    const __m512d d1 = _mm512_sub_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 8)),
                                     _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 8)));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    tail += d * d;
  }
  return reduce_lanes(acc0, acc1, tail);
}

namespace {

// Squared-distance tiles. Every pair keeps squared_distance's arithmetic:
// two accumulators over 16-float steps (cvtps_pd, sub_pd, fmadd_pd(d, d,
// acc)), the scalar tail once after the last full step, then reduce_lanes.
// Between chunks each pair's lanes wait in memory, which keeps them exact,
// and every chunk ends on a whole step, so each tile result equals the
// one-pair kernel's bit for bit. The tail is written exactly as there: this
// file's flags contract `tail += d * d` into an FMA in both places.
constexpr std::size_t kDistanceStep = 16;
static_assert(kDistanceChunk % kDistanceStep == 0);
constexpr std::size_t kTilePairs = kDistanceTileRows * kDistanceTileCols;

// One pair's lanes between chunks: acc0, then acc1, the order reduce_lanes
// sums them in.
struct alignas(64) PairLanes {
  double lanes[16];
};

/// Advances the lanes of an MR x NR tile, pair (i, j) at state[i * NR + j],
/// over the 16-float steps in [begin, end). Each row's step is widened to
/// double once and reused by every pair of the tile that holds the row.
template <std::size_t MR, std::size_t NR>
void distance_tile_chunk(const float* const* a, const float* const* b, std::size_t begin,
                         std::size_t end, PairLanes* state) {
  const float* x[MR];
  const float* y[NR];
  __m512d acc0[MR][NR];
  __m512d acc1[MR][NR];
  for (std::size_t j = 0; j < NR; ++j) y[j] = b[j];
  for (std::size_t i = 0; i < MR; ++i) {
    x[i] = a[i];
    for (std::size_t j = 0; j < NR; ++j) {
      acc0[i][j] = _mm512_load_pd(state[i * NR + j].lanes);
      acc1[i][j] = _mm512_load_pd(state[i * NR + j].lanes + 8);
    }
  }
  for (std::size_t p = begin; p < end; p += kDistanceStep) {
    __m512d y0[NR];
    __m512d y1[NR];
    for (std::size_t j = 0; j < NR; ++j) {
      y0[j] = _mm512_cvtps_pd(_mm256_loadu_ps(y[j] + p));
      y1[j] = _mm512_cvtps_pd(_mm256_loadu_ps(y[j] + p + 8));
    }
    for (std::size_t i = 0; i < MR; ++i) {
      const __m512d x0 = _mm512_cvtps_pd(_mm256_loadu_ps(x[i] + p));
      const __m512d x1 = _mm512_cvtps_pd(_mm256_loadu_ps(x[i] + p + 8));
      for (std::size_t j = 0; j < NR; ++j) {
        const __m512d d0 = _mm512_sub_pd(x0, y0[j]);
        const __m512d d1 = _mm512_sub_pd(x1, y1[j]);
        acc0[i][j] = _mm512_fmadd_pd(d0, d0, acc0[i][j]);
        acc1[i][j] = _mm512_fmadd_pd(d1, d1, acc1[i][j]);
      }
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) {
      _mm512_store_pd(state[i * NR + j].lanes, acc0[i][j]);
      _mm512_store_pd(state[i * NR + j].lanes + 8, acc1[i][j]);
    }
  }
}

using DistanceTileChunkFn = void (*)(const float* const* a, const float* const* b,
                                     std::size_t begin, std::size_t end, PairLanes* state);

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
  thread_local std::vector<PairLanes> state;
  state.assign(tile_count * kTilePairs, PairLanes{});
  const std::size_t steps_end = n - n % kDistanceStep;
  for (std::size_t begin = 0; begin < steps_end; begin += kDistanceChunk) {
    const std::size_t end = std::min(steps_end, begin + kDistanceChunk);
    for (std::size_t t = 0; t < tile_count; ++t) {
      const DistanceTile& tile = tiles[t];
      kDistanceTileChunks[tile.rows - 1][tile.cols - 1](rows + tile.a, rows + tile.b, begin, end,
                                                         &state[t * kTilePairs]);
    }
  }
  for (std::size_t t = 0; t < tile_count; ++t) {
    const DistanceTile& tile = tiles[t];
    for (std::size_t i = 0; i < tile.rows; ++i) {
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const float* a = rows[tile.a + i];
        const float* b = rows[tile.b + j];
        double tail = 0.0;
        for (std::size_t p = steps_end; p < n; ++p) {
          const double d = static_cast<double>(a[p]) - static_cast<double>(b[p]);
          tail += d * d;
        }
        const double d2 = reduce_lanes(state[t * kTilePairs + i * tile.cols + j].lanes, tail);
        out[(tile.a + i) * stride + tile.b + j] = d2;
        out[(tile.b + j) * stride + tile.a + i] = d2;
      }
    }
  }
}

double squared_distance_wide(const float* point, const double* center, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_sub_pd(_mm512_cvtps_pd(_mm256_loadu_ps(point + i)),
                                     _mm512_loadu_pd(center + i));
    const __m512d d1 = _mm512_sub_pd(_mm512_cvtps_pd(_mm256_loadu_ps(point + i + 8)),
                                     _mm512_loadu_pd(center + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = static_cast<double>(point[i]) - center[i];
    tail += d * d;
  }
  return reduce_lanes(acc0, acc1, tail);
}

}  // namespace fedguard::tensor::kernels::avx512
