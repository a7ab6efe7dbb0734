#pragma once
// Process-wide configuration for the numeric compute kernels (blocked GEMM,
// elementwise spans, aggregator distance passes). The tensor and defense
// layers consult this to decide (a) how many threads the kernel pool runs and
// (b) below which problem size a kernel stays serial — fine-grained fan-out
// on tiny inputs costs more than it saves.
//
// Resolution order for the thread count:
//   1. an explicit `threads > 0` set programmatically or via the experiment
//      descriptor key `kernel_threads`,
//   2. the FEDGUARD_THREADS environment variable (read once per process),
//   3. std::thread::hardware_concurrency().
//
// The kernel pool is distinct from parallel::global_pool(): the global pool
// runs coarse client tasks, the kernel pool runs fine-grained tile work.
// Kernels called from inside any pool worker (see in_worker_thread()) fall
// back to serial execution, so client-level and kernel-level parallelism
// never deadlock by waiting on each other.

#include <cstddef>
#include <functional>

namespace fedguard::parallel {

class ThreadPool;

struct KernelConfig {
  /// Kernel pool size; 0 = auto (FEDGUARD_THREADS, else hardware threads).
  std::size_t threads = 0;
  /// GEMMs with fewer than this many flops (2*m*k*n) run serially.
  std::size_t gemm_min_flops = std::size_t{1} << 22;
  /// Elementwise work touching fewer floats than this runs serially: span
  /// ops (axpy/add/sub/scale), the conv lowering and the ReLU, max-pool
  /// and conv scatter passes, and the root's merge and η step.
  std::size_t elementwise_min_size = std::size_t{1} << 16;
  /// Aggregator distance passes touching fewer than this many floats
  /// (count * dim) run serially.
  std::size_t distance_min_elements = std::size_t{1} << 15;
};

/// Snapshot of the current process-wide kernel configuration.
[[nodiscard]] KernelConfig kernel_config() noexcept;

/// Replace the process-wide kernel configuration. Intended for startup /
/// bench setup; changing the thread count rebuilds the kernel pool on the
/// next kernel_pool() call, which must not race in-flight kernels.
void set_kernel_config(const KernelConfig& config) noexcept;

/// Resolved kernel thread count (always >= 1); see resolution order above.
[[nodiscard]] std::size_t kernel_threads() noexcept;

/// Parse a FEDGUARD_THREADS-style value; returns 0 (meaning "auto") for
/// null, empty, non-numeric, or non-positive input. Exposed for tests.
[[nodiscard]] std::size_t threads_from_env_value(const char* text) noexcept;

/// The pool the numeric kernels dispatch onto (lazily sized to
/// kernel_threads()).
[[nodiscard]] ThreadPool& kernel_pool();

/// True when fanning out `work_elements` of kernel work is worthwhile:
/// more than one kernel thread, not already inside a pool worker, and the
/// work meets the given serial-fallback threshold.
[[nodiscard]] bool should_parallelize(std::size_t work_elements,
                                      std::size_t threshold) noexcept;

/// Split [0, count) into at most kernel_threads() contiguous subranges whose
/// sizes are multiples of `grain` (except the last) and run `body(begin, end)`
/// for each on the kernel pool, the calling thread taking ranges too: several
/// threads may fan out onto the one pool at once, and a caller whose helpers
/// are stuck behind other callers' work runs its own ranges. A helper that
/// claims ranges runs them in one `pool.task` trace span; one that finds them
/// all claimed records none. Runs serially (one body call covering the whole
/// range) when fan-out is not worthwhile. `count == 0` is a no-op.
void kernel_parallel_ranges(std::size_t count, std::size_t grain,
                            const std::function<void(std::size_t, std::size_t)>& body);

/// Elements per range of a span op's fan-out (ranges are whole multiples).
inline constexpr std::size_t kElementwiseGrain = 4096;

/// Runs body(begin, end) over [0, count) for elementwise work that touches
/// `floats` floats in all: through kernel_parallel_ranges(count, grain, body)
/// when should_parallelize(floats, elementwise_min_size), otherwise as one
/// inline body(0, count) call, which builds no std::function.
template <typename Body>
void elementwise_ranges(std::size_t count, std::size_t grain, std::size_t floats,
                        const Body& body) {
  if (count == 0) return;
  if (!should_parallelize(floats, kernel_config().elementwise_min_size)) {
    body(std::size_t{0}, count);
    return;
  }
  kernel_parallel_ranges(count, grain, body);
}

}  // namespace fedguard::parallel
