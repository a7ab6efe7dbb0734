// Kernel-arch dispatch (tensor::kernels): parsing, availability, override
// semantics, and the equivalence oracle — every SIMD tier this CPU supports
// must agree with the serial determinism oracle on GEMM and the defense
// distance kernels, within reduction-reorder tolerance; the serial distance
// tier must agree with util::squared_distance bit-for-bit (it backs the
// pinned goldens in test_update_pipeline). The register-tiled A * B^T kernel
// must equal its own tier one element at a time bit for bit, the pairwise
// distance tiles must equal their tier's one-pair kernel bit for bit, and the
// optimizer updates must equal the serial tier bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "defenses/krum.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "tensor/kernels/kernel_impl.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedguard {
namespace {

namespace kernels = tensor::kernels;
using kernels::KernelArch;

// Every test must leave the process-wide dispatch override and kernel config
// cleared, or later tests in the same binary would silently inherit them.
struct KernelArchTest : ::testing::Test {
  void TearDown() override {
    kernels::set_kernel_arch(KernelArch::Auto);
    parallel::set_kernel_config(parallel::KernelConfig{});
  }
};

std::vector<float> random_values(std::size_t n, util::Rng& rng) {
  std::vector<float> values(n);
  for (auto& v : values) v = rng.uniform_float(-1.0f, 1.0f);
  return values;
}

/// Values spread over 12 binades. Differences of values on one fixed grid,
/// as random_values gives, square exactly in double, so the rounding of
/// (x - y)^2 (and any FP contraction of it) would never show; across
/// binades it often does.
std::vector<float> wide_range_values(std::size_t n, util::Rng& rng) {
  std::vector<float> values(n);
  for (auto& v : values) {
    v = std::ldexp(rng.uniform_float(-1.0f, 1.0f), -static_cast<int>(rng.uniform_int(12)));
  }
  return values;
}

std::vector<KernelArch> available_simd_tiers() {
  std::vector<KernelArch> tiers;
  for (const KernelArch arch : {KernelArch::Avx2, KernelArch::Avx512}) {
    if (kernels::kernel_arch_available(arch)) tiers.push_back(arch);
  }
  return tiers;
}

kernels::KernelTable table_for(KernelArch arch) {
  kernels::set_kernel_arch(arch);
  const kernels::KernelTable table = kernels::kernel_table();
  kernels::set_kernel_arch(KernelArch::Auto);
  return table;
}

using OnePairDistanceFn = double (*)(const float* a, const float* b, std::size_t n);

/// The one-pair squared-distance kernel of a compiled-in tier: the reference
/// its squared_distance_tiles entry must equal bit for bit.
OnePairDistanceFn one_pair_distance(KernelArch arch) {
  switch (arch) {
#if FEDGUARD_HAVE_AVX2
    case KernelArch::Avx2:
      return &kernels::avx2::squared_distance;
#endif
#if FEDGUARD_HAVE_AVX512
    case KernelArch::Avx512:
      return &kernels::avx512::squared_distance;
#endif
    default:
      return &kernels::serial::squared_distance;
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// The SIMD row kernel's arithmetic spelled out lane by lane for a tier of
/// `width` float lanes: two FMA chains over 2 * width-float steps, one half
/// step into chain 0, the chain sum, the fmaf tail into lane 0, and the
/// lanes summed in order from 0.0f.
float lanewise_simd_dot(const float* a, const float* b, std::size_t k, std::size_t width) {
  std::vector<float> chain0(width, 0.0f);
  std::vector<float> chain1(width, 0.0f);
  std::size_t p = 0;
  for (; p + 2 * width <= k; p += 2 * width) {
    for (std::size_t l = 0; l < width; ++l) {
      chain0[l] = std::fma(a[p + l], b[p + l], chain0[l]);
      chain1[l] = std::fma(a[p + width + l], b[p + width + l], chain1[l]);
    }
  }
  if (p + width <= k) {
    for (std::size_t l = 0; l < width; ++l) chain0[l] = std::fma(a[p + l], b[p + l], chain0[l]);
    p += width;
  }
  for (std::size_t l = 0; l < width; ++l) chain0[l] = chain0[l] + chain1[l];
  for (; p < k; ++p) chain0[0] = std::fma(a[p], b[p], chain0[0]);
  float total = 0.0f;
  for (std::size_t l = 0; l < width; ++l) total += chain0[l];
  return total;
}

TEST_F(KernelArchTest, ParseAndToStringRoundTrip) {
  for (const KernelArch arch :
       {KernelArch::Auto, KernelArch::Serial, KernelArch::Avx2, KernelArch::Avx512}) {
    KernelArch parsed = KernelArch::Auto;
    ASSERT_TRUE(kernels::parse_kernel_arch(kernels::to_string(arch), parsed));
    EXPECT_EQ(parsed, arch);
  }
  KernelArch out = KernelArch::Serial;
  EXPECT_FALSE(kernels::parse_kernel_arch("sse9", out));
  EXPECT_EQ(out, KernelArch::Serial);
}

TEST_F(KernelArchTest, SerialAndAutoAlwaysAvailable) {
  EXPECT_TRUE(kernels::kernel_arch_available(KernelArch::Auto));
  EXPECT_TRUE(kernels::kernel_arch_available(KernelArch::Serial));
}

TEST_F(KernelArchTest, ExplicitOverrideWinsAndAutoClearsIt) {
  kernels::set_kernel_arch(KernelArch::Serial);
  EXPECT_EQ(kernels::requested_kernel_arch(), KernelArch::Serial);
  EXPECT_EQ(kernels::active_kernel_arch(), KernelArch::Serial);
  EXPECT_EQ(kernels::kernel_table().arch, KernelArch::Serial);

  kernels::set_kernel_arch(KernelArch::Auto);
  // Auto resolves (via env var or CPU detection) to a concrete, available tier.
  const KernelArch active = kernels::active_kernel_arch();
  EXPECT_NE(active, KernelArch::Auto);
  EXPECT_TRUE(kernels::kernel_arch_available(active));
}

TEST_F(KernelArchTest, UnavailableRequestDegradesDownTheChain) {
  // Requesting a tier is always legal; the active arch must end up available
  // even when the request itself is not supported on this CPU.
  for (const KernelArch arch : {KernelArch::Avx512, KernelArch::Avx2}) {
    kernels::set_kernel_arch(arch);
    const KernelArch active = kernels::active_kernel_arch();
    EXPECT_NE(active, KernelArch::Auto);
    EXPECT_TRUE(kernels::kernel_arch_available(active));
    if (kernels::kernel_arch_available(arch)) {
      EXPECT_EQ(active, arch);
    }
  }
}

TEST_F(KernelArchTest, SerialDistanceKernelBitMatchesUtil) {
  // The pinned pipeline goldens assume the serial tier reproduces the exact
  // pre-dispatch arithmetic (compiled with FP contraction off).
  util::Rng rng{0xa17ull};
  for (const std::size_t n : {1u, 7u, 63u, 64u, 65u, 1003u}) {
    const std::vector<float> a = random_values(n, rng);
    const std::vector<float> b = random_values(n, rng);
    EXPECT_EQ(kernels::serial::squared_distance(a.data(), b.data(), n),
              util::squared_distance(a, b))
        << "n=" << n;
  }
}

TEST_F(KernelArchTest, SimdDistanceKernelsMatchSerialWithinTolerance) {
  util::Rng rng{0xa18ull};
  const std::size_t sizes[] = {1, 5, 16, 17, 31, 257, 1003, 4099};
  for (const KernelArch arch : available_simd_tiers()) {
    kernels::set_kernel_arch(arch);
    const kernels::KernelTable table = kernels::kernel_table();
    ASSERT_EQ(table.arch, arch);
    kernels::set_kernel_arch(KernelArch::Serial);
    const kernels::KernelTable serial = kernels::kernel_table();
    for (const std::size_t n : sizes) {
      const std::vector<float> a = random_values(n, rng);
      const std::vector<float> b = random_values(n, rng);
      const double expect = kernels::serial::squared_distance(a.data(), b.data(), n);
      const double got = one_pair_distance(arch)(a.data(), b.data(), n);
      EXPECT_NEAR(got, expect, 1e-10 * static_cast<double>(n) + 1e-12)
          << kernels::to_string(arch) << " n=" << n;

      std::vector<double> center(n);
      for (auto& c : center) c = rng.uniform(-1.0, 1.0);
      const double expect_wide =
          serial.squared_distance_wide(a.data(), center.data(), n);
      const double got_wide = table.squared_distance_wide(a.data(), center.data(), n);
      EXPECT_NEAR(got_wide, expect_wide, 1e-10 * static_cast<double>(n) + 1e-12)
          << kernels::to_string(arch) << " wide n=" << n;
    }
  }
}

TEST_F(KernelArchTest, SimdGemmMatchesSerialOnOddShapes) {
  util::Rng rng{0xa19ull};
  struct Shape {
    std::size_t m, k, n;
  };
  // Deliberately awkward: prime edges, single rows/columns, and sizes around
  // the micro-kernel tile boundaries (mr=4/nr=16 scalar; 8/16-lane SIMD).
  const Shape shapes[] = {{1, 1, 1}, {7, 13, 17}, {4, 16, 16}, {5, 256, 3},
                          {67, 129, 65}, {33, 31, 130}};
  const std::vector<KernelArch> tiers = available_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier compiled in / supported";
  for (const Shape& shape : shapes) {
    const std::vector<float> a = random_values(shape.m * shape.k, rng);
    const std::vector<float> b = random_values(shape.k * shape.n, rng);
    std::vector<float> serial_c(shape.m * shape.n);
    kernels::set_kernel_arch(KernelArch::Serial);
    tensor::matmul(a.data(), b.data(), serial_c.data(), shape.m, shape.k, shape.n);
    for (const KernelArch arch : tiers) {
      kernels::set_kernel_arch(arch);
      std::vector<float> simd_c(shape.m * shape.n);
      tensor::matmul(a.data(), b.data(), simd_c.data(), shape.m, shape.k, shape.n);
      for (std::size_t i = 0; i < simd_c.size(); ++i) {
        const float tolerance =
            1e-5f * (std::abs(serial_c[i]) + static_cast<float>(shape.k) * 1e-3f);
        EXPECT_NEAR(simd_c[i], serial_c[i], tolerance)
            << kernels::to_string(arch) << " shape " << shape.m << "x" << shape.k << "x"
            << shape.n << " element " << i;
      }
    }
  }
}

TEST_F(KernelArchTest, SimdTransposedGemmVariantsMatchSerial) {
  // The trans_b path backs the classifier backward pass; check it against the
  // serial tier too (trans_a/_accumulate share the same row kernel).
  util::Rng rng{0xa1aull};
  const std::size_t m = 19, k = 37, n = 23;
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> bt = random_values(n * k, rng);  // B^T is [n, k]
  std::vector<float> serial_c(m * n);
  kernels::set_kernel_arch(KernelArch::Serial);
  tensor::matmul_trans_b(a.data(), bt.data(), serial_c.data(), m, k, n);
  for (const KernelArch arch : available_simd_tiers()) {
    kernels::set_kernel_arch(arch);
    std::vector<float> simd_c(m * n);
    tensor::matmul_trans_b(a.data(), bt.data(), simd_c.data(), m, k, n);
    for (std::size_t i = 0; i < simd_c.size(); ++i) {
      EXPECT_NEAR(simd_c[i], serial_c[i], 1e-4f) << kernels::to_string(arch) << " " << i;
    }
  }
}

TEST_F(KernelArchTest, TiledTransBGemmEqualsItsTierElementByElement) {
  // Each output of the register tile must carry the arithmetic of a single
  // dot product, whatever tile, edge tile, B block or thread range it falls
  // in: compare a whole tensor::matmul_trans_b against the same tier's
  // kernel called one A row and one B row at a time, and against the lane
  // arithmetic spelled out in scalar code.
  const std::vector<KernelArch> tiers = available_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier compiled in / supported";
  const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
  const std::size_t ks[] = {1, 12, 15, 16, 17, 31, 32, 33, 48, 96, 794, 3136};
  const std::size_t ns[] = {1, 2, 3, 10, 25, 129};
  util::Rng rng{0xa1bull};
  const std::vector<float> a_pool = random_values(std::size_t{33} * 3136, rng);
  const std::vector<float> b_pool = random_values(std::size_t{129} * 3136, rng);
  for (const KernelArch arch : tiers) {
    const kernels::KernelTable table = table_for(arch);
    ASSERT_NE(table.gemm_tb, nullptr) << kernels::to_string(arch);
    const std::size_t width = arch == KernelArch::Avx512 ? 16 : 8;
    for (const std::size_t threads : {1u, 4u}) {
      parallel::KernelConfig config;
      config.threads = threads;
      config.gemm_min_flops = 1;  // split even the smallest shapes
      parallel::set_kernel_config(config);
      for (const std::size_t k : ks) {
        for (const std::size_t m : ms) {
          for (const std::size_t n : ns) {
            const float* a = a_pool.data();
            const float* b = b_pool.data();
            std::vector<float> tiled(m * n);
            kernels::set_kernel_arch(arch);
            tensor::matmul_trans_b(a, b, tiled.data(), m, k, n);
            kernels::set_kernel_arch(KernelArch::Auto);
            std::vector<float> one_by_one(m * n);
            std::vector<float> lanewise(m * n);
            for (std::size_t i = 0; i < m; ++i) {
              for (std::size_t j = 0; j < n; ++j) {
                table.gemm_tb(a + i * k, b + j * k, &one_by_one[i * n + j], 1, k, 1);
                lanewise[i * n + j] = lanewise_simd_dot(a + i * k, b + j * k, k, width);
              }
            }
            EXPECT_TRUE(bitwise_equal(tiled, one_by_one))
                << kernels::to_string(arch) << " threads " << threads << " shape " << m << "x"
                << k << "x" << n;
            EXPECT_TRUE(bitwise_equal(one_by_one, lanewise))
                << kernels::to_string(arch) << " shape " << m << "x" << k << "x" << n;
          }
        }
      }
    }
  }
}

TEST_F(KernelArchTest, PairwiseDistancesEqualTheirTiersOnePairKernel) {
  // Every distance of the tiled, chunked and pool-split matrix must carry its
  // tier's one-pair arithmetic exactly, wherever the pair falls: diagonal or
  // edge tile, chunk boundary or tail, 1 or 4 kernel tasks. Rows arrive in
  // order and as a permuted selection with one row repeated (a zero
  // distance off the diagonal). The diagonal must stay +0.0. The values span
  // binades, so a tail rounded with or without FMA contraction differs.
  constexpr std::size_t kChunk = kernels::kDistanceChunk;
  const std::size_t counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 50};
  const std::size_t dims[] = {1,  7,  8,          15,     16,         17,
                              31, 33, kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 17,
                              4099};
  std::vector<KernelArch> tiers{KernelArch::Serial};
  for (const KernelArch arch : available_simd_tiers()) tiers.push_back(arch);
  util::Rng rng{0xa1dull};
  for (const std::size_t dim : dims) {
    const std::vector<float> base = wide_range_values(50 * dim, rng);
    for (const std::size_t count : counts) {
      std::vector<std::size_t> selection(count);
      std::iota(selection.begin(), selection.end(), std::size_t{0});
      std::reverse(selection.begin(), selection.end());
      std::rotate(selection.begin(), selection.begin() + count / 3, selection.end());
      if (count > 2) selection[count / 2] = selection[0];
      const defenses::PointsView contiguous{base, count, dim};
      const defenses::PointsView selected{base, dim, selection};
      for (const KernelArch arch : tiers) {
        const OnePairDistanceFn one_pair = one_pair_distance(arch);
        for (const std::size_t threads : {1u, 4u}) {
          parallel::KernelConfig config;
          config.threads = threads;
          config.distance_min_elements = 1;  // split even the smallest sets
          parallel::set_kernel_config(config);
          for (const defenses::PointsView* points : {&contiguous, &selected}) {
            std::vector<double> distance2;
            kernels::set_kernel_arch(arch);
            defenses::pairwise_squared_distances(*points, distance2);
            kernels::set_kernel_arch(KernelArch::Auto);
            ASSERT_EQ(distance2.size(), count * count);
            std::size_t mismatches = 0;
            for (std::size_t a = 0; a < count; ++a) {
              for (std::size_t b = 0; b < count; ++b) {
                const double got = distance2[a * count + b];
                double expect = 0.0;
                if (a != b) {
                  const std::span<const float> x = points->row(a);
                  const std::span<const float> y = points->row(b);
                  expect = one_pair(x.data(), y.data(), dim);
                  const bool serial = arch == KernelArch::Serial;
                  if (serial && !same_bits(expect, util::squared_distance(x, y))) ++mismatches;
                }
                if (!same_bits(got, expect)) ++mismatches;
              }
            }
            EXPECT_EQ(mismatches, 0u)
                << kernels::to_string(arch) << " count " << count << " dim " << dim
                << " threads " << threads
                << (points == &selected ? " selected rows" : " contiguous rows");
          }
        }
      }
    }
  }
}

TEST_F(KernelArchTest, OptimizerKernelsAreBitIdenticalToSerial) {
  // Every tier builds its updates without FP contraction and does the same
  // multiply, add, sqrt and divide per element, so values, velocity and both
  // Adam moments must match the serial tier exactly, full vectors and masked
  // tails alike.
  const std::vector<KernelArch> tiers = available_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier compiled in / supported";
  const kernels::KernelTable serial = table_for(KernelArch::Serial);
  constexpr int kSteps = 4;
  util::Rng rng{0xa1cull};
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 101770u}) {
    const std::vector<float> init = random_values(n, rng);
    std::vector<std::vector<float>> grads;
    grads.reserve(kSteps);
    for (int step = 0; step < kSteps; ++step) grads.push_back(random_values(n, rng));
    for (const KernelArch arch : tiers) {
      const kernels::KernelTable table = table_for(arch);
      ASSERT_EQ(table.arch, arch);
      const std::string where = std::string{kernels::to_string(arch)} + " n=" + std::to_string(n);
      for (const float momentum : {0.0f, 0.9f}) {
        for (const float weight_decay : {0.0f, 1e-4f}) {
          std::vector<float> value = init;
          std::vector<float> expect_value = init;
          std::vector<float> velocity(n, 0.0f);
          std::vector<float> expect_velocity(n, 0.0f);
          float* vel = momentum != 0.0f ? velocity.data() : nullptr;
          float* expect_vel = momentum != 0.0f ? expect_velocity.data() : nullptr;
          for (int step = 0; step < kSteps; ++step) {
            table.sgd_step(value.data(), grads[step].data(), vel, n, 0.05f, momentum,
                           weight_decay);
            serial.sgd_step(expect_value.data(), grads[step].data(), expect_vel, n, 0.05f,
                            momentum, weight_decay);
          }
          EXPECT_TRUE(bitwise_equal(value, expect_value))
              << "sgd value " << where << " momentum " << momentum << " wd " << weight_decay;
          EXPECT_TRUE(bitwise_equal(velocity, expect_velocity))
              << "sgd velocity " << where << " momentum " << momentum << " wd " << weight_decay;
        }
      }
      for (const float weight_decay : {0.0f, 1e-4f}) {
        std::vector<float> value = init;
        std::vector<float> expect_value = init;
        std::vector<float> m(n, 0.0f), v(n, 0.0f), expect_m(n, 0.0f), expect_v(n, 0.0f);
        for (int step = 0; step < kSteps; ++step) {
          const float t = static_cast<float>(step + 1);
          const float alpha =
              1e-3f * std::sqrt(1.0f - std::pow(0.999f, t)) / (1.0f - std::pow(0.9f, t));
          const kernels::AdamCoefficients coefficients{alpha, 0.9f, 0.999f, 1e-8f, weight_decay};
          table.adam_step(value.data(), grads[step].data(), m.data(), v.data(), n, coefficients);
          serial.adam_step(expect_value.data(), grads[step].data(), expect_m.data(),
                           expect_v.data(), n, coefficients);
        }
        EXPECT_TRUE(bitwise_equal(value, expect_value)) << "adam value " << where << " wd "
                                                        << weight_decay;
        EXPECT_TRUE(bitwise_equal(m, expect_m)) << "adam m " << where << " wd " << weight_decay;
        EXPECT_TRUE(bitwise_equal(v, expect_v)) << "adam v " << where << " wd " << weight_decay;
      }
    }
  }
}

}  // namespace
}  // namespace fedguard
