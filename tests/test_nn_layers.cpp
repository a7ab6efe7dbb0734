// Finite-difference gradient verification for every layer: the definitive
// correctness check of the manual backprop implementation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "data/synthetic_mnist.hpp"
#include "kernel_threads.hpp"
#include "models/classifier.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/sequential.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels/kernel_arch.hpp"
#include "util/rng.hpp"

namespace fedguard::nn {
namespace {

using tensor::Tensor;

// Scalar objective: L = sum(w .* f(x)) with fixed random weights w, so that
// dL/dout = w and gradients are easy to seed.
struct GradCheck {
  static constexpr float kEps = 1e-3f;
  static constexpr float kTolerance = 2e-2f;  // relative, float32 FD noise

  static Tensor random_tensor(std::vector<std::size_t> shape, util::Rng& rng,
                              float lo = -1.0f, float hi = 1.0f) {
    Tensor t{std::move(shape)};
    for (auto& v : t.data()) v = rng.uniform_float(lo, hi);
    return t;
  }

  static double loss(Module& module, const Tensor& input, const Tensor& weights) {
    const Tensor out = module.forward(input);
    double total = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      total += static_cast<double>(out[i]) * weights[i];
    }
    return total;
  }

  // Verify dL/dinput and dL/dparams against central finite differences, and
  // that the parameter-only pass leaves the same parameter gradients bit for
  // bit.
  static void run(Module& module, Tensor input, util::Rng& rng) {
    const Tensor probe = module.forward(input);
    Tensor weights = random_tensor(probe.shape(), rng);

    module.zero_grad();
    (void)module.forward(input);
    const Tensor grad_input = module.backward(weights);
    ASSERT_TRUE(grad_input.same_shape(input));
    expect_parameter_only_pass_matches(module, input, weights);

    auto check = [&](float analytic, float& slot, const char* what, std::size_t index) {
      const float saved = slot;
      slot = saved + kEps;
      const double up = loss(module, input, weights);
      slot = saved - kEps;
      const double down = loss(module, input, weights);
      slot = saved;
      const double numeric = (up - down) / (2.0 * kEps);
      const double scale = std::max({std::abs(numeric), std::abs((double)analytic), 1.0});
      EXPECT_NEAR(analytic, numeric, kTolerance * scale)
          << what << " index " << index;
    };

    // Subsample coordinates for large tensors to keep tests fast.
    const std::size_t input_stride = std::max<std::size_t>(1, input.size() / 24);
    for (std::size_t i = 0; i < input.size(); i += input_stride) {
      check(grad_input[i], input[i], "input", i);
    }
    for (Parameter* p : module.parameters()) {
      const std::size_t stride = std::max<std::size_t>(1, p->size() / 24);
      for (std::size_t i = 0; i < p->size(); i += stride) {
        check(p->grad[i], p->value[i], p->name.c_str(), i);
      }
    }
  }

  // Expects the gradients of the backward() just run; leaves those of a
  // fresh forward + backward_parameters() in their place.
  static void expect_parameter_only_pass_matches(Module& module, const Tensor& input,
                                                 const Tensor& grad_output) {
    std::vector<Tensor> full;
    for (Parameter* p : module.parameters()) full.push_back(p->grad);
    module.zero_grad();
    (void)module.forward(input);
    module.backward_parameters(grad_output);
    const std::vector<Parameter*> params = module.parameters();
    ASSERT_EQ(params.size(), full.size());
    for (std::size_t k = 0; k < params.size(); ++k) {
      EXPECT_EQ(std::memcmp(params[k]->grad.raw(), full[k].raw(), full[k].size() * sizeof(float)),
                0)
          << params[k]->name << " gradient differs from backward()";
    }
  }
};

TEST(GradCheckLayer, Linear) {
  util::Rng rng{101};
  Linear layer{7, 5, rng};
  GradCheck::run(layer, GradCheck::random_tensor({3, 7}, rng), rng);
}

TEST(GradCheckLayer, LinearNoBias) {
  util::Rng rng{102};
  Linear layer{4, 6, rng, /*with_bias=*/false};
  EXPECT_EQ(layer.parameters().size(), 1u);
  GradCheck::run(layer, GradCheck::random_tensor({2, 4}, rng), rng);
}

TEST(GradCheckLayer, Conv2dValid) {
  util::Rng rng{103};
  Conv2d layer{2, 3, 3, 6, 6, rng, /*padding=*/0};
  GradCheck::run(layer, GradCheck::random_tensor({2, 2, 6, 6}, rng), rng);
}

TEST(GradCheckLayer, Conv2dPadded) {
  util::Rng rng{104};
  Conv2d layer{1, 4, 5, 8, 8, rng, /*padding=*/2};
  GradCheck::run(layer, GradCheck::random_tensor({2, 1, 8, 8}, rng), rng);
}

TEST(GradCheckLayer, Conv2dAboveChunkCap) {
  // 16*5*5 patch rows x 32*32 pixels = 409,600 column floats per sample, so
  // the 4M-float column cap fits 10 samples and a batch of 11 runs two chunks.
  util::Rng rng{111};
  Conv2d layer{16, 2, 5, 32, 32, rng, /*padding=*/2};
  GradCheck::run(layer, GradCheck::random_tensor({11, 16, 32, 32}, rng), rng);
}

TEST(GradCheckLayer, ReLU) {
  util::Rng rng{105};
  ReLU layer;
  // Keep inputs away from the kink at 0 for a clean finite difference.
  Tensor input = GradCheck::random_tensor({4, 9}, rng);
  for (auto& v : input.data()) {
    if (std::abs(v) < 0.05f) v = 0.2f;
  }
  GradCheck::run(layer, input, rng);
}

TEST(GradCheckLayer, Sigmoid) {
  util::Rng rng{106};
  Sigmoid layer;
  GradCheck::run(layer, GradCheck::random_tensor({3, 8}, rng, -2.0f, 2.0f), rng);
}

TEST(GradCheckLayer, Tanh) {
  util::Rng rng{107};
  Tanh layer;
  GradCheck::run(layer, GradCheck::random_tensor({3, 8}, rng, -2.0f, 2.0f), rng);
}

TEST(GradCheckLayer, MaxPool) {
  util::Rng rng{108};
  MaxPool2d layer{2};
  // Distinct values avoid argmax ties that break finite differences.
  Tensor input{{1, 2, 4, 4}};
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i) * 0.1f + rng.uniform_float(0.0f, 0.01f);
  }
  GradCheck::run(layer, input, rng);
}

TEST(GradCheckLayer, SequentialMlp) {
  util::Rng rng{109};
  Sequential net;
  net.emplace<Linear>(6, 10, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(10, 4, rng);
  Tensor input = GradCheck::random_tensor({3, 6}, rng);
  // Nudge ReLU pre-activations away from zero indirectly by larger inputs.
  for (auto& v : input.data()) v *= 2.0f;
  GradCheck::run(net, input, rng);
}

TEST(GradCheckLayer, SequentialConvStack) {
  util::Rng rng{110};
  Sequential net;
  net.emplace<Conv2d>(1, 3, 3, 6, 6, rng, 1);
  net.emplace<Sigmoid>();  // smooth activation keeps the FD check clean
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(3 * 3 * 3, 5, rng);
  GradCheck::run(net, GradCheck::random_tensor({2, 1, 6, 6}, rng), rng);
}

TEST(Layer, TrainStepSkipsInputGradientBelowFirstWeightedLayer) {
#if !defined(FEDGUARD_TRACE_ENABLED)
  GTEST_SKIP() << "tracing compiled out (FEDGUARD_TRACE=OFF)";
#else
  // The MLP is Flatten, Linear, ReLU, Linear: only the top Linear's dX = dY*W
  // is read, so a training step runs one matmul, and Flatten gets no
  // backward pass at all.
  models::Classifier classifier{models::ClassifierArch::Mlp, models::ImageGeometry{}, 3};
  const Tensor images{{4, 1, 28, 28}, 0.5f};
  const std::vector<int> labels{0, 1, 2, 3};
  obs::TraceSession session{std::string{}};
  (void)classifier.train_batch(images, labels, 0.05f);
  std::size_t matmuls = 0;
  std::size_t flatten_backward = 0;
  for (const obs::TraceEventRecord& event : session.take_events()) {
    if (event.phase != 'B') continue;
    if (event.category == "kernel.gemm" && event.name == "matmul") ++matmuls;
    if (event.category == "layer.backward" && event.name == "0:Flatten") ++flatten_backward;
  }
  EXPECT_EQ(matmuls, 1u);
  EXPECT_EQ(flatten_backward, 0u);
#endif
}

TEST(Layer, MaxPoolForwardValues) {
  MaxPool2d pool{2};
  const Tensor input = Tensor::from_data(
      {1, 1, 4, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor out = pool.forward(input);
  ASSERT_EQ(out.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(out[2], 14.0f);
  EXPECT_FLOAT_EQ(out[3], 16.0f);
}

TEST(Layer, MaxPoolDropsPartialWindows) {
  MaxPool2d pool{2};
  const Tensor input{{1, 1, 5, 5}, 1.0f};
  const Tensor out = pool.forward(input);
  EXPECT_EQ(out.dim(2), 2u);
  EXPECT_EQ(out.dim(3), 2u);
}

TEST(Layer, FlattenRoundTrip) {
  Flatten flatten;
  const Tensor input{{2, 3, 4, 5}, 1.0f};
  const Tensor out = flatten.forward(input);
  EXPECT_EQ(out.shape(), (std::vector<std::size_t>{2, 60}));
  const Tensor back = flatten.backward(out);
  EXPECT_EQ(back.shape(), input.shape());
}

TEST(Layer, LinearShapeValidation) {
  util::Rng rng{111};
  Linear layer{4, 2, rng};
  const Tensor bad{{3, 5}};
  EXPECT_THROW((void)layer.forward(bad), std::invalid_argument);
}

TEST(Layer, SequentialParameterAggregation) {
  util::Rng rng{114};
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(4, 2, rng);
  EXPECT_EQ(net.parameters().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(net.parameter_count(), 3u * 4 + 4 + 4 * 2 + 2);
  EXPECT_EQ(net.weight_parameter_count(), 3u * 4 + 4 * 2);
}

TEST(Layer, ZeroGradClearsAllGradients) {
  util::Rng rng{115};
  Linear layer{3, 2, rng};
  const Tensor input = GradCheck::random_tensor({2, 3}, rng);
  (void)layer.forward(input);
  (void)layer.backward(Tensor{{2, 2}, 1.0f});
  bool any_nonzero = false;
  for (Parameter* p : layer.parameters()) {
    for (const float g : p->grad.data()) any_nonzero |= g != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  layer.zero_grad();
  for (Parameter* p : layer.parameters()) {
    for (const float g : p->grad.data()) EXPECT_FLOAT_EQ(g, 0.0f);
  }
}

// ---- Thread-count invariance of the conv stack ------------------------------
//
// Outside pool workers the conv lowering, the GEMMs, the scatter and gather,
// ReLU and max pooling fan out onto the kernel pool; every output element is
// still computed by the same arithmetic, so 4 threads match 1 bit for bit.

std::vector<float> values(const Tensor& t) { return {t.data().begin(), t.data().end()}; }

TEST(LayerThreads, Conv2dForwardAndBackwardMatchAcrossThreadCounts) {
  util::Rng rng{120};
  Conv2d conv{3, 8, 5, 11, 10, rng, 2};
  const Tensor input = GradCheck::random_tensor({6, 3, 11, 10}, rng);
  const Tensor grad_output = GradCheck::random_tensor({6, 8, 11, 10}, rng);
  struct Pass {
    Tensor out, grad_input, weight_grad, bias_grad;
  };
  const auto run = [&] {
    conv.zero_grad();
    Pass pass;
    pass.out = conv.forward(input);
    pass.grad_input = conv.backward(grad_output);
    pass.weight_grad = conv.parameters()[0]->grad;
    pass.bias_grad = conv.parameters()[1]->grad;
    return pass;
  };
  const Pass one = kernel_threads::run_at(1, run);
  for (const std::size_t threads : {3u, 4u}) {
    const Pass many = kernel_threads::run_at(threads, run);
    EXPECT_EQ(values(many.out), values(one.out)) << threads << " threads: forward";
    EXPECT_EQ(values(many.grad_input), values(one.grad_input))
        << threads << " threads: dX";
    EXPECT_EQ(values(many.weight_grad), values(one.weight_grad))
        << threads << " threads: dW";
    EXPECT_EQ(values(many.bias_grad), values(one.bias_grad))
        << threads << " threads: db";
  }
}

TEST(LayerThreads, ReluAndMaxPoolForwardMatchAcrossThreadCounts) {
  util::Rng rng{121};
  // 15,345 floats: ReLU's ranges are whole 4096-float grains but the last,
  // and the odd map sizes leave max pooling a dropped row and column.
  const Tensor input = GradCheck::random_tensor({5, 3, 33, 31}, rng);
  const Tensor grad = GradCheck::random_tensor({5, 3, 16, 15}, rng);
  const auto run = [&] {
    ReLU relu;
    MaxPool2d pool{2};
    const Tensor activated = relu.forward(input);
    const Tensor pooled = pool.forward(activated);
    // backward routes each gradient through the argmax forward recorded.
    return std::vector<Tensor>{activated, relu.backward(activated), pooled,
                               pool.backward(grad)};
  };
  const std::vector<Tensor> one = kernel_threads::run_at(1, run);
  for (const std::size_t threads : {3u, 4u}) {
    const std::vector<Tensor> many = kernel_threads::run_at(threads, run);
    for (std::size_t k = 0; k < one.size(); ++k) {
      EXPECT_EQ(values(many[k]), values(one[k])) << threads << " threads, output " << k;
    }
  }
}

// ---- Conv golden --------------------------------------------------------------
//
// A digest of the Table II CNN through three train_batch steps at batch 16
// and a 50-image evaluation forward: the losses, the trained parameters and
// the logits, as float bits. The MLP goldens of test_update_pipeline never
// reach a conv layer, so this is the pin on the conv path. One digest per
// kernel tier, each pinned from single-threaded conv layers; every kernel
// thread count must reproduce it.
//
// Regenerate (only when a change is *supposed* to alter the science):
//   FEDGUARD_GOLDEN_PRINT=1 ./test_nn_layers --gtest_filter='ConvGolden.*'

#if defined(NDEBUG) && !defined(FEDGUARD_SANITIZE_ACTIVE)
constexpr bool kCanonicalBuild = true;  // matches the build the pins came from
#else
constexpr bool kCanonicalBuild = false;
#endif

void fnv1a_floats(std::uint64_t& h, std::span<const float> values) {
  for (const float f : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
}

std::uint64_t paper_cnn_digest() {
  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kSteps = 3;
  constexpr std::size_t kEval = 50;
  const data::Dataset train = data::generate_synthetic_mnist(kBatch * kSteps, 1201);
  const data::Dataset test = data::generate_synthetic_mnist(kEval, 1202);
  models::Classifier classifier{models::ClassifierArch::PaperCnn, models::ImageGeometry{}, 1203};
  std::uint64_t h = 1469598103934665603ull;
  std::vector<std::size_t> indices(kBatch);
  for (std::size_t step = 0; step < kSteps; ++step) {
    std::iota(indices.begin(), indices.end(), step * kBatch);
    const data::Dataset::Batch batch = train.gather(indices);
    const float loss = classifier.train_batch(batch.images, batch.labels, 0.05f, 0.9f);
    fnv1a_floats(h, {&loss, 1});
  }
  fnv1a_floats(h, classifier.parameters_flat());
  indices.resize(kEval);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  fnv1a_floats(h, classifier.forward(test.gather(indices).images).data());
  return h;
}

TEST(ConvGolden, PaperCnnTrainAndEvalDigestPinnedOnEveryTier) {
  using tensor::kernels::KernelArch;
  const std::map<KernelArch, std::uint64_t> pinned = {
      {KernelArch::Serial, 0xe58eb444748a31d8ull},
      {KernelArch::Avx2, 0xe556d9fefc7b0066ull},
      {KernelArch::Avx512, 0x0ee5c5298a94ec0bull},
  };
  const bool print = std::getenv("FEDGUARD_GOLDEN_PRINT") != nullptr;
  const KernelArch active = tensor::kernels::active_kernel_arch();
  for (const auto& [arch, digest] : pinned) {
    const std::string tier{tensor::kernels::to_string(arch)};
    if (!tensor::kernels::kernel_arch_available(arch)) {
      std::printf("ConvGolden: the %s tier is not available here, not checked\n", tier.c_str());
      continue;
    }
    // Outside the pinning build only thread invariance holds, and one tier
    // shows it (sanitizer builds run this at a fraction of the speed).
    if (!kCanonicalBuild && arch != active) continue;
    tensor::kernels::set_kernel_arch(arch);
    const std::uint64_t one = kernel_threads::run_at(1, paper_cnn_digest);
    for (const std::size_t threads : {3u, 4u}) {
      EXPECT_EQ(kernel_threads::run_at(threads, paper_cnn_digest), one)
          << tier << ": " << threads << " threads diverged from 1 thread";
    }
    if (print) {
      std::printf("GOLDEN[conv/%s] %016llx\n", tier.c_str(),
                  static_cast<unsigned long long>(one));
    } else if (kCanonicalBuild) {
      EXPECT_EQ(one, digest) << tier << ": the conv path's digest moved";
    }
  }
  tensor::kernels::set_kernel_arch(KernelArch::Auto);
}

}  // namespace
}  // namespace fedguard::nn
