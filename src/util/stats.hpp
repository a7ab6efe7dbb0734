#pragma once
// Small descriptive-statistics helpers used by the experiment reporters
// (Table IV averages, trailing-window statistics) and by the defenses.

#include <cstddef>
#include <span>
#include <vector>

namespace fedguard::util {

/// Arithmetic mean; returns 0 for an empty range.
[[nodiscard]] double mean(std::span<const double> values) noexcept;
[[nodiscard]] float mean(std::span<const float> values) noexcept;

/// Sample standard deviation (n-1 denominator); returns 0 for n < 2.
[[nodiscard]] double stddev(std::span<const double> values) noexcept;

/// Population variance (n denominator); returns 0 for empty.
[[nodiscard]] double variance(std::span<const double> values) noexcept;

/// Median (copies & partially sorts); returns 0 for empty.
[[nodiscard]] double median(std::span<const double> values);
[[nodiscard]] float median(std::span<const float> values);

/// q-quantile with linear interpolation, q in [0,1]; returns 0 for empty.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Summary over the trailing `window` entries of a series (Table IV uses the
/// last 40 rounds). If the series is shorter than `window`, uses all of it.
struct TrailingStats {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] TrailingStats trailing_stats(std::span<const double> series, std::size_t window);

/// Euclidean norm of a vector.
[[nodiscard]] double l2_norm(std::span<const float> v) noexcept;
/// Euclidean distance between equal-length vectors.
[[nodiscard]] double l2_distance(std::span<const float> a, std::span<const float> b) noexcept;
/// Squared Euclidean distance between equal-length vectors.
[[nodiscard]] double squared_distance(std::span<const float> a, std::span<const float> b) noexcept;
/// Dot product of equal-length vectors (double accumulator).
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b) noexcept;
/// Cosine similarity; returns 0 when either vector is zero.
[[nodiscard]] double cosine_similarity(std::span<const float> a, std::span<const float> b) noexcept;

}  // namespace fedguard::util
