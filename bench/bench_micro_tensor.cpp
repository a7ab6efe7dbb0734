// Micro-benchmarks of the numeric substrate: GEMM variants, im2col, optimizer
// steps, and full layer forward/backward passes at the shapes used by the
// paper's models.

#include <benchmark/benchmark.h>

#include <string>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "parallel/kernel_config.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedguard;
using tensor::Tensor;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  util::Rng rng{seed};
  for (auto& v : t.data()) v = rng.uniform_float(-1.0f, 1.0f);
  return t;
}

// Convention for threaded benches: the LAST benchmark argument is the kernel
// thread count; the serial-fallback thresholds are zeroed so the parallel
// dispatch path is always measured (threads = 1 still runs the serial loop
// nest — kernel_parallel_ranges collapses a single chunk).
void set_kernel_threads(std::size_t threads) {
  parallel::KernelConfig config;
  config.threads = threads;
  config.gemm_min_flops = 1;
  config.elementwise_min_size = 1;
  config.distance_min_elements = 1;
  parallel::set_kernel_config(config);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_Matmul)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

// Per-ISA-tier GEMM rows: the same 256^3 single-thread shape pinned to each
// kernel tier this CPU supports, so BENCH_kernels.json tracks the SIMD
// speedup (acceptance bar: widest tier >= 2x the serial GFLOP/s). The tier
// is encoded as an op-name suffix (BM_Matmul_serial / _avx2 / _avx512);
// merge_kernel_bench.py turns it into the kernel_arch record field.
void BM_MatmulKernelArch(benchmark::State& state, tensor::kernels::KernelArch arch) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  tensor::kernels::set_kernel_arch(arch);
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto);
  parallel::set_kernel_config(parallel::KernelConfig{});
}

const int register_arch_gemm = [] {
  namespace kernels = fedguard::tensor::kernels;
  for (const kernels::KernelArch arch : {kernels::KernelArch::Serial,
                                         kernels::KernelArch::Avx2,
                                         kernels::KernelArch::Avx512}) {
    if (!kernels::kernel_arch_available(arch)) continue;
    const std::string name =
        std::string{"BM_Matmul_"} + std::string{kernels::to_string(arch)};
    benchmark::RegisterBenchmark(name.c_str(),
                                 [arch](benchmark::State& s) { BM_MatmulKernelArch(s, arch); })
        ->Args({256, 1})
        ->Unit(benchmark::kMicrosecond);
  }
  return 0;
}();

void BM_MatmulTransA(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor a = random_tensor({n, n}, 14);
  const Tensor b = random_tensor({n, n}, 15);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul_trans_a(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_MatmulTransA)->Args({256, 1})->Args({256, 4})->Unit(benchmark::kMicrosecond);

void BM_MatmulTransB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor a = random_tensor({n, n}, 3);
  const Tensor b = random_tensor({n, n}, 4);
  Tensor c{{n, n}};
  for (auto _ : state) {
    tensor::matmul_trans_b(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_MatmulTransB)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({256, 4})
    ->Unit(benchmark::kMicrosecond);

// Per-tier A * B^T rows (m x k x n, then threads) at the shapes the round
// workloads run: the CVAE encoder and decoder forward (8x794x96, 8x96x794),
// the MLP fc1 forward in training and evaluation (16x784x128, 256x784x128),
// the paper CNN's fc1 forward (16x3136x512) and its conv2 weight gradient
// (64x3136x800).
void BM_MatmulTransBKernelArch(benchmark::State& state, tensor::kernels::KernelArch arch) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  set_kernel_threads(static_cast<std::size_t>(state.range(3)));
  tensor::kernels::set_kernel_arch(arch);
  const Tensor a = random_tensor({m, k}, 18);
  const Tensor b = random_tensor({n, k}, 19);
  Tensor c{{m, n}};
  for (auto _ : state) {
    tensor::matmul_trans_b(a, b, c);
    benchmark::DoNotOptimize(c.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
  tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto);
  parallel::set_kernel_config(parallel::KernelConfig{});
}

// One optimizer step over a single flat parameter of the given size: SGD with
// the clients' momentum 0.9 at the MLP's 101,770 and the paper CNN's
// 1,663,370 parameters, Adam at the small-scale CVAE's 154,974. No items
// counter: merge_kernel_bench.py would read it as GFLOP/s.
void BM_SgdStepKernelArch(benchmark::State& state, tensor::kernels::KernelArch arch) {
  const auto size = static_cast<std::size_t>(state.range(0));
  tensor::kernels::set_kernel_arch(arch);
  nn::Parameter param{{size}, "w"};
  param.value = random_tensor({size}, 20);
  param.grad = random_tensor({size}, 21);
  nn::Sgd sgd{{&param}, 1e-6f, 0.9f};
  for (auto _ : state) {
    sgd.step();
    benchmark::DoNotOptimize(param.value.raw());
    benchmark::ClobberMemory();
  }
  tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto);
}

void BM_AdamStepKernelArch(benchmark::State& state, tensor::kernels::KernelArch arch) {
  const auto size = static_cast<std::size_t>(state.range(0));
  tensor::kernels::set_kernel_arch(arch);
  nn::Parameter param{{size}, "w"};
  param.value = random_tensor({size}, 22);
  param.grad = random_tensor({size}, 23);
  nn::Adam adam{{&param}, 1e-6f};
  for (auto _ : state) {
    adam.step();
    benchmark::DoNotOptimize(param.value.raw());
    benchmark::ClobberMemory();
  }
  tensor::kernels::set_kernel_arch(tensor::kernels::KernelArch::Auto);
}

const int register_arch_client_step = [] {
  namespace kernels = fedguard::tensor::kernels;
  for (const kernels::KernelArch arch : {kernels::KernelArch::Serial,
                                         kernels::KernelArch::Avx2,
                                         kernels::KernelArch::Avx512}) {
    if (!kernels::kernel_arch_available(arch)) continue;
    const std::string tier{kernels::to_string(arch)};
    benchmark::RegisterBenchmark(
        ("BM_MatmulTransB_" + tier).c_str(),
        [arch](benchmark::State& s) { BM_MatmulTransBKernelArch(s, arch); })
        ->Args({8, 794, 96, 1})
        ->Args({8, 96, 794, 1})
        ->Args({16, 784, 128, 1})
        ->Args({256, 784, 128, 1})
        ->Args({16, 3136, 512, 1})
        ->Args({64, 3136, 800, 1})
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_SgdStep_" + tier).c_str(),
                                 [arch](benchmark::State& s) { BM_SgdStepKernelArch(s, arch); })
        ->Arg(101770)
        ->Arg(1663370)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_AdamStep_" + tier).c_str(),
                                 [arch](benchmark::State& s) { BM_AdamStepKernelArch(s, arch); })
        ->Arg(154974)
        ->Unit(benchmark::kMicrosecond);
  }
  return 0;
}();

void BM_Im2Col(benchmark::State& state) {
  // The paper CNN's first layer geometry: 1x28x28, 5x5 kernel, pad 2.
  const tensor::ConvGeometry g{1, 28, 28, 5, 2};
  const Tensor image = random_tensor({g.in_channels, g.in_h, g.in_w}, 5);
  Tensor columns;
  for (auto _ : state) {
    tensor::im2col(image.data(), g, columns);
    benchmark::DoNotOptimize(columns.raw());
  }
}
BENCHMARK(BM_Im2Col)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng{6};
  nn::Conv2d conv{1, 32, 5, 28, 28, rng, 2};
  const Tensor input = random_tensor({batch, 1, 28, 28}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input).raw());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_Conv2dBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng{8};
  nn::Conv2d conv{1, 32, 5, 28, 28, rng, 2};
  const Tensor input = random_tensor({batch, 1, 28, 28}, 9);
  const Tensor output = conv.forward(input);
  const Tensor grad = random_tensor(output.shape(), 10);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(grad).raw());
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(1)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_LinearForward(benchmark::State& state) {
  // The paper CNN's dominant FC layer: 3136 -> 512.
  util::Rng rng{11};
  nn::Linear linear{3136, 512, rng};
  const Tensor input = random_tensor({32, 3136}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear.forward(input).raw());
  }
}
BENCHMARK(BM_LinearForward)->Unit(benchmark::kMicrosecond);

void BM_Axpy(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Tensor x = random_tensor({size}, 16);
  Tensor y = random_tensor({size}, 17);
  for (auto _ : state) {
    tensor::axpy(0.001f, x.data(), y.data());
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
  parallel::set_kernel_config(parallel::KernelConfig{});
}
BENCHMARK(BM_Axpy)
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_SoftmaxRows(benchmark::State& state) {
  const Tensor logits = random_tensor({256, 10}, 13);
  Tensor probs;
  for (auto _ : state) {
    tensor::softmax_rows(logits, probs);
    benchmark::DoNotOptimize(probs.raw());
  }
}
BENCHMARK(BM_SoftmaxRows)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
