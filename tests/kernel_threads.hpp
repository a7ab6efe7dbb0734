#pragma once
// Test-only helper that runs a computation at a chosen kernel thread count
// with every fan-out threshold at 1, so each parallel path of the kernels
// runs even on small test shapes. Results of the kernels must not depend on
// the thread count, so tests compare such runs bit for bit.

#include <cstddef>
#include <utility>

#include "parallel/kernel_config.hpp"

namespace fedguard::kernel_threads {

/// Returns body() computed on a kernel pool of `threads` threads with every
/// threshold forced to 1; the process-wide kernel config is restored after.
template <typename Body>
auto run_at(std::size_t threads, Body&& body) {
  struct Restore {
    parallel::KernelConfig saved = parallel::kernel_config();
    ~Restore() { parallel::set_kernel_config(saved); }
  } restore;
  parallel::KernelConfig config;
  config.threads = threads;
  config.gemm_min_flops = 1;
  config.elementwise_min_size = 1;
  config.distance_min_elements = 1;
  parallel::set_kernel_config(config);
  return std::forward<Body>(body)();
}

}  // namespace fedguard::kernel_threads
