#include "parallel/kernel_config.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::parallel {

namespace {

// The config is read on every kernel launch (including tiny elementwise
// spans), so the fields live in relaxed atomics rather than behind a mutex.
struct AtomicConfig {
  std::atomic<std::size_t> threads{KernelConfig{}.threads};
  std::atomic<std::size_t> gemm_min_flops{KernelConfig{}.gemm_min_flops};
  std::atomic<std::size_t> elementwise_min_size{KernelConfig{}.elementwise_min_size};
  std::atomic<std::size_t> distance_min_elements{KernelConfig{}.distance_min_elements};
};

AtomicConfig& atomic_config() {
  static AtomicConfig instance;
  return instance;
}

std::size_t env_threads() {
  // Read once: the environment is process-wide startup configuration, not a
  // runtime knob.
  static const std::size_t value = threads_from_env_value(std::getenv("FEDGUARD_THREADS"));
  return value;
}

std::size_t hardware_threads() {
  static const std::size_t value =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return value;
}

struct PoolState {
  util::Mutex mutex;
  std::unique_ptr<ThreadPool> pool FEDGUARD_GUARDED_BY(mutex);
  std::size_t pool_threads FEDGUARD_GUARDED_BY(mutex) = 0;
};

PoolState& pool_state() {
  static PoolState instance;
  return instance;
}

/// One fan-out of kernel_parallel_ranges. The calling thread and its helper
/// tasks claim chunks from `next`, so a caller never sits idle behind other
/// callers' tasks in the shared queue while a chunk of its own is unclaimed.
/// Helpers hold the state by shared_ptr: one that starts after the call
/// returned finds every chunk claimed and never touches the caller's body.
struct FanOut {
  FanOut(std::size_t chunk_count, std::size_t chunk_stride, std::size_t item_count,
         const std::function<void(std::size_t, std::size_t)>& chunk_body)
      : chunks{chunk_count}, stride{chunk_stride}, count{item_count}, body{&chunk_body} {}

  /// Claims the next chunk; a result >= chunks means none was left.
  std::size_t claim() { return next.fetch_add(1); }

  /// Runs `chunk`, if it is one, then claims and runs chunks until none is
  /// left unclaimed.
  void work(std::size_t chunk) {
    for (; chunk < chunks; chunk = claim()) {
      const std::size_t begin = chunk * stride;
      const std::size_t end = std::min(count, begin + stride);
      std::exception_ptr error;
      try {
        if (begin < end) (*body)(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      const util::MutexLock lock{mutex};
      if (error && !first_error) first_error = error;
      if (++finished == chunks) all_finished.notify_all();
    }
  }

  /// Blocks until every chunk has run; rethrows the first chunk's exception.
  void wait() {
    std::exception_ptr error;
    {
      const util::MutexLock lock{mutex};
      while (finished < chunks) all_finished.wait(mutex);
      error = first_error;
    }
    if (error) std::rethrow_exception(error);
  }

  const std::size_t chunks;
  const std::size_t stride;
  const std::size_t count;
  const std::function<void(std::size_t, std::size_t)>* body;
  std::atomic<std::size_t> next{0};
  util::Mutex mutex;
  util::CondVar all_finished;
  std::size_t finished FEDGUARD_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error FEDGUARD_GUARDED_BY(mutex);
};

}  // namespace

std::size_t threads_from_env_value(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || parsed <= 0) return 0;
  return static_cast<std::size_t>(parsed);
}

KernelConfig kernel_config() noexcept {
  const AtomicConfig& a = atomic_config();
  KernelConfig config;
  config.threads = a.threads.load(std::memory_order_relaxed);
  config.gemm_min_flops = a.gemm_min_flops.load(std::memory_order_relaxed);
  config.elementwise_min_size = a.elementwise_min_size.load(std::memory_order_relaxed);
  config.distance_min_elements = a.distance_min_elements.load(std::memory_order_relaxed);
  return config;
}

void set_kernel_config(const KernelConfig& config) noexcept {
  AtomicConfig& a = atomic_config();
  a.threads.store(config.threads, std::memory_order_relaxed);
  a.gemm_min_flops.store(config.gemm_min_flops, std::memory_order_relaxed);
  a.elementwise_min_size.store(config.elementwise_min_size, std::memory_order_relaxed);
  a.distance_min_elements.store(config.distance_min_elements, std::memory_order_relaxed);
}

std::size_t kernel_threads() noexcept {
  const std::size_t configured =
      atomic_config().threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  if (const std::size_t env = env_threads(); env > 0) return env;
  return hardware_threads();
}

ThreadPool& kernel_pool() {
  const std::size_t want = kernel_threads();
  PoolState& s = pool_state();
  const util::MutexLock lock{s.mutex};
  if (!s.pool || s.pool_threads != want) {
    s.pool.reset();  // join the old workers before replacing them
    s.pool = std::make_unique<ThreadPool>(want, "kernel");
    s.pool_threads = want;
  }
  return *s.pool;
}

bool should_parallelize(std::size_t work_elements, std::size_t threshold) noexcept {
  if (work_elements < threshold) return false;
  if (in_worker_thread()) return false;
  return kernel_threads() > 1;
}

void kernel_parallel_ranges(std::size_t count, std::size_t grain,
                            const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t threads = in_worker_thread() ? 1 : kernel_threads();
  const std::size_t blocks = (count + grain - 1) / grain;
  const std::size_t chunks = std::min(threads, blocks);
  if (chunks <= 1) {
    body(0, count);
    return;
  }
  const std::size_t blocks_per_chunk = (blocks + chunks - 1) / chunks;
  const std::size_t stride = blocks_per_chunk * grain;
  const auto fan_out = std::make_shared<FanOut>(chunks, stride, count, body);
  ThreadPool& pool = kernel_pool();
  for (std::size_t helper = 1; helper < chunks; ++helper) {
    (void)pool.submit([fan_out] {
      // A helper that starts after the caller claimed every chunk did no
      // work and records no span; the caller's own chunks run in its span.
      const std::size_t chunk = fan_out->claim();
      if (chunk >= fan_out->chunks) return;
      FEDGUARD_TRACE_SPAN("pool.task", "task");
      fan_out->work(chunk);
    });
  }
  fan_out->work(fan_out->claim());
  fan_out->wait();
}

}  // namespace fedguard::parallel
