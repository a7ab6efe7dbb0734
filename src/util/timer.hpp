#pragma once
// Monotonic (steady_clock) stopwatch — NOT wall-clock; immune to NTP steps.
// Round loops in src/fl and src/net time themselves with obs::now_ns() (the
// same steady clock) so Table V's round_seconds and trace span durations share
// one time source; Stopwatch remains for benches and coarse CLI timing, and
// fedguard-lint (rule no-raw-stopwatch) keeps it out of the instrumented
// layers.

#include <chrono>

namespace fedguard::util {

class Stopwatch {
 public:
  Stopwatch() noexcept : start_{clock::now()} {}

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  void reset() noexcept { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace fedguard::util
