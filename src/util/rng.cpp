#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

namespace fedguard::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53-bit mantissa construction gives uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

float Rng::uniform_float(float lo, float hi) noexcept {
  return lo + (hi - lo) * static_cast<float>(uniform());
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire rejection sampling for unbiased bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double Rng::gamma(double shape) noexcept {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(std::span<const double> alpha) noexcept {
  std::vector<double> out(alpha.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out[i] = gamma(alpha[i]);
    total += out[i];
  }
  if (total <= 0.0) {
    // Degenerate draw: fall back to uniform simplex point.
    const double uniform_mass = 1.0 / static_cast<double>(alpha.size());
    for (auto& v : out) v = uniform_mass;
    return out;
  }
  for (auto& v : out) v /= total;
  return out;
}

std::size_t Rng::categorical(std::span<const double> weights) noexcept {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0.0);
  const double u = uniform() * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (u < cumulative) return i;
  }
  return weights.size() - 1;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) noexcept {
  std::vector<std::size_t> indices;
  sample_without_replacement(n, k, indices);
  return indices;
}

void Rng::sample_without_replacement(std::size_t n, std::size_t k,
                                     std::vector<std::size_t>& out) noexcept {
  assert(k <= n);
  // Partial Fisher-Yates over an index table; O(n) memory, O(n + k) time.
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_int(n - i));
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

}  // namespace fedguard::util
