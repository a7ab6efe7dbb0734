#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernel_threads.hpp"
#include "parallel/kernel_config.hpp"
#include "util/rng.hpp"

namespace fedguard::tensor {
namespace {

/// Restores the process-wide kernel config when the test scope ends, so
/// threshold/thread overrides cannot leak into other tests.
class KernelConfigGuard {
 public:
  KernelConfigGuard() : saved_{parallel::kernel_config()} {}
  ~KernelConfigGuard() { parallel::set_kernel_config(saved_); }

 private:
  parallel::KernelConfig saved_;
};

TEST(Ops, MatmulAgainstHandComputed) {
  const Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c{{2, 2}};
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulDimensionChecks) {
  const Tensor a{{2, 3}};
  const Tensor b{{4, 2}};
  Tensor c{{2, 2}};
  EXPECT_THROW(matmul(a, b, c), std::invalid_argument);
  const Tensor b_ok{{3, 5}};
  Tensor c_bad{{2, 4}};
  EXPECT_THROW(matmul(a, b_ok, c_bad), std::invalid_argument);
}

// Property: the three transpose variants agree with explicit transposition.
class GemmVariants : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmVariants, TransposeVariantsConsistent) {
  const auto [m, k, n] = GetParam();
  util::Rng rng{99};
  auto random_tensor = [&rng](std::size_t r, std::size_t c) {
    Tensor t{{r, c}};
    for (auto& v : t.data()) v = rng.uniform_float(-1.0f, 1.0f);
    return t;
  };
  auto transpose = [](const Tensor& t) {
    Tensor out{{t.dim(1), t.dim(0)}};
    for (std::size_t i = 0; i < t.dim(0); ++i)
      for (std::size_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
    return out;
  };

  const Tensor a = random_tensor(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
  const Tensor b = random_tensor(static_cast<std::size_t>(k), static_cast<std::size_t>(n));
  Tensor reference{{static_cast<std::size_t>(m), static_cast<std::size_t>(n)}};
  matmul(a, b, reference);

  // A^T path
  Tensor via_trans_a{reference.shape()};
  matmul_trans_a(transpose(a), b, via_trans_a);
  // B^T path
  Tensor via_trans_b{reference.shape()};
  matmul_trans_b(a, transpose(b), via_trans_b);

  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(via_trans_a[i], reference[i], 1e-4f);
    EXPECT_NEAR(via_trans_b[i], reference[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmVariants,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 7, 3), std::make_tuple(8, 8, 8),
                                           std::make_tuple(1, 16, 9)));

// ---- Oracle tests for the blocked / parallel GEMM paths ---------------------
//
// A textbook triple loop is the reference. Shapes are chosen to exercise the
// tiling edges: 1x1x1, dimensions below one micro-tile, dimensions that cross
// kMc=64 / kKc=256 / kNc=512 by one, tall-skinny and short-fat panels.

void naive_matmul(const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>& c, std::size_t m, std::size_t k, std::size_t n) {
  c.assign(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a[i * k + p];
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += a_ip * b[p * n + j];
    }
  }
}

std::vector<float> random_buffer(std::size_t size, util::Rng& rng) {
  std::vector<float> buffer(size);
  for (auto& v : buffer) v = rng.uniform_float(-1.0f, 1.0f);
  return buffer;
}

void expect_near_rel(const std::vector<float>& actual, const std::vector<float>& expected,
                     float rel_tol) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const float tol = rel_tol * std::max(1.0f, std::abs(expected[i]));
    ASSERT_NEAR(actual[i], expected[i], tol) << "index " << i;
  }
}

class GemmOracle : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmOracle, BlockedMatchesNaiveSerialAndParallel) {
  const auto [mi, ki, ni] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  const auto k = static_cast<std::size_t>(ki);
  const auto n = static_cast<std::size_t>(ni);
  util::Rng rng{2026};
  const std::vector<float> a = random_buffer(m * k, rng);
  const std::vector<float> b = random_buffer(k * n, rng);
  std::vector<float> reference;
  naive_matmul(a, b, reference, m, k, n);

  // Transposed operands for the variant kernels.
  std::vector<float> a_t(k * m), b_t(n * k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p) a_t[p * m + i] = a[i * k + p];
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) b_t[j * k + p] = b[p * n + j];

  // 1 thread is the serial path; 2, 3 and 4 split by rows or, when there are
  // fewer 64-row blocks than threads, by columns, unevenly at 3.
  std::vector<float> serial_c, serial_ta, serial_tb;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    std::vector<float> c(m * n), c_ta(m * n), c_tb(m * n);
    kernel_threads::run_at(threads, [&] {
      matmul(a.data(), b.data(), c.data(), m, k, n);
      matmul_trans_a(a_t.data(), b.data(), c_ta.data(), m, k, n);
      matmul_trans_b(a.data(), b_t.data(), c_tb.data(), m, k, n);
    });
    expect_near_rel(c, reference, 1e-4f);
    expect_near_rel(c_ta, reference, 1e-4f);
    expect_near_rel(c_tb, reference, 1e-4f);

    // Thread-count invariance must be exact, not approximate: the blocked
    // kernels accumulate every C element in the same order however the rows
    // or columns are split.
    if (threads == 1) {
      serial_c = c;
      serial_ta = c_ta;
      serial_tb = c_tb;
      continue;
    }
    ASSERT_EQ(c, serial_c) << threads << " threads: matmul diverged from 1 thread";
    ASSERT_EQ(c_ta, serial_ta) << threads << " threads: matmul_trans_a diverged from 1 thread";
    ASSERT_EQ(c_tb, serial_tb) << threads << " threads: matmul_trans_b diverged from 1 thread";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmOracle,
    ::testing::Values(std::make_tuple(1, 1, 1),      // degenerate
                      std::make_tuple(3, 5, 7),      // below one micro-tile
                      std::make_tuple(4, 16, 16),    // exactly one micro-tile row
                      std::make_tuple(65, 257, 33),  // crosses kMc and kKc by one
                      std::make_tuple(200, 3, 2),    // tall-skinny
                      std::make_tuple(2, 3, 530),    // short-fat, crosses kNc
                      std::make_tuple(31, 64, 10),   // classifier head shape
                      // Conv forward shapes W[C_out, patch] * cols: too few
                      // row blocks for the pool, so the columns split.
                      std::make_tuple(32, 25, 12544),  // conv1, 16 images
                      std::make_tuple(64, 800, 5096),  // conv2, 26 images
                      std::make_tuple(128, 25, 5099),  // 2 row blocks, edge tile
                      std::make_tuple(128, 800, 1571)));

TEST(Ops, MatmulDeterministicAcrossRuns) {
  util::Rng rng{7};
  const std::size_t m = 37, k = 129, n = 23;
  const std::vector<float> a = random_buffer(m * k, rng);
  const std::vector<float> b = random_buffer(k * n, rng);
  std::vector<float> first(m * n), again(m * n);
  matmul(a.data(), b.data(), first.data(), m, k, n);
  for (int run = 0; run < 3; ++run) {
    matmul(a.data(), b.data(), again.data(), m, k, n);
    ASSERT_EQ(again, first) << "run " << run;
  }
}

TEST(Ops, ParallelElementwiseMatchesSerial) {
  util::Rng rng{11};
  const std::size_t size = 100003;  // odd size, above the forced threshold
  const std::vector<float> a = random_buffer(size, rng);
  const std::vector<float> b = random_buffer(size, rng);

  KernelConfigGuard guard;
  parallel::KernelConfig serial_config;
  serial_config.threads = 1;
  parallel::set_kernel_config(serial_config);
  std::vector<float> expected_add(size), expected_axpy = a;
  add(a, b, expected_add);
  axpy(0.5f, b, expected_axpy);

  parallel::KernelConfig parallel_config;
  parallel_config.threads = 4;
  parallel_config.elementwise_min_size = 1;
  parallel::set_kernel_config(parallel_config);
  std::vector<float> out(size);
  add(a, b, out);
  EXPECT_EQ(out, expected_add);
  out = a;
  axpy(0.5f, b, out);
  EXPECT_EQ(out, expected_axpy);
}

TEST(Ops, BatchedIm2ColMatchesPerSample) {
  util::Rng rng{31};
  const ConvGeometry g{2, 7, 6, 3, 1};
  const std::size_t pixels = g.out_h() * g.out_w();
  const std::size_t count = 3;
  const std::vector<float> images =
      random_buffer(count * g.in_channels * g.in_h * g.in_w, rng);
  std::vector<float> batched(g.patch_size() * count * pixels);
  im2col_batch(images, g, count, batched.data());
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<float> sample(images.begin() + static_cast<std::ptrdiff_t>(
                                  s * g.in_channels * g.in_h * g.in_w),
                              images.begin() + static_cast<std::ptrdiff_t>(
                                  (s + 1) * g.in_channels * g.in_h * g.in_w));
    Tensor cols;
    im2col(sample, g, cols);
    for (std::size_t r = 0; r < g.patch_size(); ++r) {
      for (std::size_t c = 0; c < pixels; ++c) {
        ASSERT_EQ(batched[r * count * pixels + s * pixels + c], cols.at(r, c))
            << "sample " << s << " row " << r << " col " << c;
      }
    }
  }
}

// Element-by-element lowering with a bounds check per element: the reference
// for what im2col_batch and col2im_batch_accumulate compute, additions in
// the same per-element order.
void reference_im2col_batch(const std::vector<float>& images, const ConvGeometry& g,
                            std::size_t count, std::vector<float>& columns) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), pixels = oh * ow;
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  const auto pad = static_cast<std::ptrdiff_t>(g.padding);
  columns.assign(g.patch_size() * count * pixels, -1.0f);
  for (std::size_t s = 0; s < count; ++s) {
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t kh = 0; kh < g.kernel; ++kh) {
        for (std::size_t kw = 0; kw < g.kernel; ++kw) {
          const std::size_t row = (c * g.kernel + kh) * g.kernel + kw;
          for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
              const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y + kh) - pad;
              const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(x + kw) - pad;
              const bool inside = sy >= 0 && sy < static_cast<std::ptrdiff_t>(g.in_h) &&
                                  sx >= 0 && sx < static_cast<std::ptrdiff_t>(g.in_w);
              columns[row * count * pixels + s * pixels + y * ow + x] =
                  inside ? images[s * image_size + (c * g.in_h + static_cast<std::size_t>(sy)) *
                                                       g.in_w +
                                  static_cast<std::size_t>(sx)]
                         : 0.0f;
            }
          }
        }
      }
    }
  }
}

void reference_col2im_batch(const std::vector<float>& columns, const ConvGeometry& g,
                            std::size_t count, std::vector<float>& grads) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), pixels = oh * ow;
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  const auto pad = static_cast<std::ptrdiff_t>(g.padding);
  for (std::size_t s = 0; s < count; ++s) {
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t kh = 0; kh < g.kernel; ++kh) {
        for (std::size_t kw = 0; kw < g.kernel; ++kw) {
          const std::size_t row = (c * g.kernel + kh) * g.kernel + kw;
          for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
              const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(y + kh) - pad;
              const std::ptrdiff_t dx = static_cast<std::ptrdiff_t>(x + kw) - pad;
              if (dy < 0 || dy >= static_cast<std::ptrdiff_t>(g.in_h) || dx < 0 ||
                  dx >= static_cast<std::ptrdiff_t>(g.in_w)) {
                continue;
              }
              grads[s * image_size + (c * g.in_h + static_cast<std::size_t>(dy)) * g.in_w +
                    static_cast<std::size_t>(dx)] +=
                  columns[row * count * pixels + s * pixels + y * ow + x];
            }
          }
        }
      }
    }
  }
}

class ConvLowering : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(ConvLowering, BatchedLoweringMatchesReferenceAtOneAndFourThreads) {
  const ConvGeometry g = GetParam();
  constexpr std::size_t kCount = 7;
  const std::size_t pixels = g.out_h() * g.out_w();
  util::Rng rng{41};
  const std::vector<float> images = random_buffer(kCount * g.in_channels * g.in_h * g.in_w, rng);
  const std::vector<float> column_grads = random_buffer(g.patch_size() * kCount * pixels, rng);
  // col2im accumulates: start every gradient from the same nonzero values.
  const std::vector<float> grads0 = random_buffer(images.size(), rng);

  std::vector<float> expected_columns;
  reference_im2col_batch(images, g, kCount, expected_columns);
  std::vector<float> expected_grads = grads0;
  reference_col2im_batch(column_grads, g, kCount, expected_grads);

  for (const std::size_t threads : {1u, 4u}) {
    std::vector<float> columns(expected_columns.size(), -1.0f);
    std::vector<float> grads = grads0;
    kernel_threads::run_at(threads, [&] {
      im2col_batch(images, g, kCount, columns.data());
      col2im_batch_accumulate(column_grads.data(), g, kCount, grads);
    });
    ASSERT_EQ(columns, expected_columns) << threads << " threads: im2col_batch";
    ASSERT_EQ(grads, expected_grads) << threads << " threads: col2im_batch_accumulate";
  }
}

// Odd sizes and more samples than threads, at padding 0 and 2; the last
// geometry is one column wide, so some kernel columns read only padding.
INSTANTIATE_TEST_SUITE_P(Geometries, ConvLowering,
                         ::testing::Values(ConvGeometry{3, 9, 8, 5, 0},
                                           ConvGeometry{3, 9, 8, 5, 2},
                                           ConvGeometry{2, 3, 1, 5, 2}));

TEST(Ops, MatmulTransAAccumulates) {
  const Tensor a = Tensor::from_data({1, 2}, {1, 2});  // A [k=1, m=2]
  const Tensor b = Tensor::from_data({1, 3}, {1, 1, 1});
  Tensor c{{2, 3}, 10.0f};
  matmul_trans_a_accumulate(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 12.0f);
}

TEST(Ops, ElementwiseOperations) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{4, 5, 6};
  std::vector<float> out(3);
  add(a, b, out);
  EXPECT_EQ(out, (std::vector<float>{5, 7, 9}));
  sub(a, b, out);
  EXPECT_EQ(out, (std::vector<float>{-3, -3, -3}));
  out = a;
  axpy(2.0f, b, out);
  EXPECT_EQ(out, (std::vector<float>{9, 12, 15}));
  scale(out, 0.5f);
  EXPECT_EQ(out, (std::vector<float>{4.5f, 6.0f, 7.5f}));
}

TEST(Ops, Argmax) {
  const std::vector<float> v{1.0f, 5.0f, 3.0f, 5.0f};
  EXPECT_EQ(argmax(v), 1u);  // first of the ties
}

TEST(Ops, RowHelpers) {
  Tensor rows = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<float> acc(3, 0.0f);
  add_rows_into(rows, acc);
  EXPECT_EQ(acc, (std::vector<float>{5, 7, 9}));
  const std::vector<float> bias{10, 20, 30};
  add_bias_rows(rows, bias);
  EXPECT_FLOAT_EQ(rows.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(rows.at(1, 2), 36.0f);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder) {
  const Tensor logits = Tensor::from_data({2, 3}, {1, 2, 3, 1000, 1001, 1002});
  Tensor probs;
  softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (const float v : probs.row(r)) total += v;
    EXPECT_NEAR(total, 1.0f, 1e-5f);
    EXPECT_LT(probs.at(r, 0), probs.at(r, 1));
    EXPECT_LT(probs.at(r, 1), probs.at(r, 2));
  }
  // Numerical stability: huge logits must not produce NaN.
  for (const float v : probs.data()) EXPECT_FALSE(std::isnan(v));
}

TEST(Ops, Im2ColNoPaddingKnownValues) {
  // 1 channel, 3x3 image, 2x2 kernel -> 4 patches of size 4.
  const std::vector<float> image{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const ConvGeometry g{1, 3, 3, 2, 0};
  Tensor cols;
  im2col(image, g, cols);
  ASSERT_EQ(cols.dim(0), 4u);
  ASSERT_EQ(cols.dim(1), 4u);
  // Patch row 0 = top-left kernel element over output pixels {0,1,3,4}.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 4.0f);
  // Patch row 3 = bottom-right kernel element over {4,5,7,8}.
  EXPECT_FLOAT_EQ(cols.at(3, 0), 4.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Ops, Im2ColPaddingProducesZerosAtBorder) {
  const std::vector<float> image{1, 1, 1, 1};  // 2x2 all-ones
  const ConvGeometry g{1, 2, 2, 3, 1};         // 3x3 kernel, pad 1 -> out 2x2
  Tensor cols;
  im2col(image, g, cols);
  ASSERT_EQ(cols.dim(0), 9u);
  ASSERT_EQ(cols.dim(1), 4u);
  // Top-left kernel element at output (0,0) reads padded zero.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  // Center kernel element always reads the image.
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(4, 3), 1.0f);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property that
  // guarantees correct convolution gradients).
  util::Rng rng{123};
  const ConvGeometry g{2, 5, 6, 3, 1};
  std::vector<float> x(g.in_channels * g.in_h * g.in_w);
  for (auto& v : x) v = rng.uniform_float(-1.0f, 1.0f);
  Tensor cols;
  im2col(x, g, cols);
  Tensor y{cols.shape()};
  for (auto& v : y.data()) v = rng.uniform_float(-1.0f, 1.0f);

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  std::vector<float> x_grad(x.size(), 0.0f);
  col2im_accumulate(y, g, x_grad);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * x_grad[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, ConvGeometryOutputSizes) {
  const ConvGeometry same{1, 28, 28, 5, 2};
  EXPECT_EQ(same.out_h(), 28u);
  EXPECT_EQ(same.out_w(), 28u);
  EXPECT_EQ(same.patch_size(), 25u);
  const ConvGeometry valid{3, 10, 8, 3, 0};
  EXPECT_EQ(valid.out_h(), 8u);
  EXPECT_EQ(valid.out_w(), 6u);
  EXPECT_EQ(valid.patch_size(), 27u);
}

}  // namespace
}  // namespace fedguard::tensor
