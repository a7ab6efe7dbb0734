#include "nn/parameter_vector.hpp"

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace fedguard::nn {
namespace {

Sequential make_net(std::uint64_t seed) {
  util::Rng rng{seed};
  Sequential net;
  net.emplace<Linear>(4, 6, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(6, 3, rng);
  return net;
}

TEST(ParameterVector, FlattenSizeMatchesParameterCount) {
  Sequential net = make_net(1);
  EXPECT_EQ(flatten_parameters(net).size(), net.parameter_count());
  EXPECT_EQ(net.parameter_count(), 4u * 6 + 6 + 6 * 3 + 3);
}

TEST(ParameterVector, RoundTripRestoresExactly) {
  Sequential net = make_net(2);
  const std::vector<float> original = flatten_parameters(net);

  // Perturb, then restore.
  std::vector<float> perturbed = original;
  for (auto& v : perturbed) v += 1.0f;
  unflatten_parameters(net, perturbed);
  EXPECT_EQ(flatten_parameters(net), perturbed);
  unflatten_parameters(net, original);
  EXPECT_EQ(flatten_parameters(net), original);
}

TEST(ParameterVector, TransfersBetweenIdenticalArchitectures) {
  Sequential a = make_net(3);
  Sequential b = make_net(4);
  EXPECT_NE(flatten_parameters(a), flatten_parameters(b));
  unflatten_parameters(b, flatten_parameters(a));
  EXPECT_EQ(flatten_parameters(a), flatten_parameters(b));

  // Functional equivalence after transfer.
  util::Rng rng{5};
  tensor::Tensor input{{2, 4}};
  for (auto& v : input.data()) v = rng.uniform_float(-1.0f, 1.0f);
  const tensor::Tensor out_a = a.forward(input);
  const tensor::Tensor out_b = b.forward(input);
  for (std::size_t i = 0; i < out_a.size(); ++i) EXPECT_FLOAT_EQ(out_a[i], out_b[i]);
}

TEST(ParameterVector, SizeMismatchThrows) {
  Sequential net = make_net(6);
  std::vector<float> too_short(net.parameter_count() - 1, 0.0f);
  EXPECT_THROW(unflatten_parameters(net, too_short), std::invalid_argument);
  std::vector<float> too_long(net.parameter_count() + 1, 0.0f);
  EXPECT_THROW(unflatten_parameters(net, too_long), std::invalid_argument);
}

TEST(ParameterVector, WireBytesIncludesPrefix) {
  EXPECT_EQ(parameter_wire_bytes(0), 8u);
  EXPECT_EQ(parameter_wire_bytes(100), 8u + 400u);
}

TEST(ParameterVector, FlattenOrderIsDeclarationOrder) {
  util::Rng rng{9};
  Sequential net;
  auto& first = net.emplace<Linear>(2, 2, rng);
  net.emplace<Linear>(2, 1, rng);
  const std::vector<float> flat = flatten_parameters(net);
  // First 4 entries are the first layer's weight matrix.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(flat[i], first.weight().value[i]);
  }
}

}  // namespace
}  // namespace fedguard::nn
