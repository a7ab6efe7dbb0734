#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace fedguard::util {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

float mean(std::span<const float> values) noexcept {
  if (values.empty()) return 0.0f;
  double total = 0.0;
  for (const float v : values) total += v;
  return static_cast<float>(total / static_cast<double>(values.size()));
}

double variance(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  const double m = mean(values);
  double total = 0.0;
  for (const double v : values) total += (v - m) * (v - m);
  return total / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double total = 0.0;
  for (const double v : values) total += (v - m) * (v - m);
  return std::sqrt(total / static_cast<double>(values.size() - 1));
}

namespace {
template <typename T>
double median_impl(std::span<const T> values) {
  if (values.empty()) return 0.0;
  std::vector<T> copy(values.begin(), values.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(mid), copy.end());
  if (copy.size() % 2 == 1) return static_cast<double>(copy[mid]);
  const auto upper = static_cast<double>(copy[mid]);
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(mid) - 1, copy.end());
  return 0.5 * (static_cast<double>(copy[mid - 1]) + upper);
}
}  // namespace

double median(std::span<const double> values) { return median_impl(values); }
float median(std::span<const float> values) { return static_cast<float>(median_impl(values)); }

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  const double pos = q * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, copy.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return copy[lo] * (1.0 - frac) + copy[hi] * frac;
}

TrailingStats trailing_stats(std::span<const double> series, std::size_t window) {
  TrailingStats out;
  if (series.empty()) return out;
  const std::size_t count = std::min(window, series.size());
  const auto tail = series.subspan(series.size() - count, count);
  out.mean = mean(tail);
  out.stddev = stddev(tail);
  out.count = count;
  return out;
}

double l2_norm(std::span<const float> v) noexcept {
  double total = 0.0;
  for (const float x : v) total += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(total);
}

double squared_distance(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    total += d * d;
  }
  return total;
}

double l2_distance(std::span<const float> a, std::span<const float> b) noexcept {
  return std::sqrt(squared_distance(a, b));
}

double dot(std::span<const float> a, std::span<const float> b) noexcept {
  assert(a.size() == b.size());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return total;
}

double cosine_similarity(std::span<const float> a, std::span<const float> b) noexcept {
  const double na = l2_norm(a);
  const double nb = l2_norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

}  // namespace fedguard::util
