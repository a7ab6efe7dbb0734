#pragma once
// Fixed-size worker pool used to execute the client work items of a federated
// round concurrently. On the paper's testbed each of the m=50 sampled clients
// runs on its own process; here each becomes a pool task.
//
// Design notes:
//  - submit() returns std::future so callers can propagate exceptions from
//    client training back to the simulation loop.
//  - The pool is also usable as a plain bulk executor via run_batch().

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::parallel {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 selects std::thread::hardware_concurrency()
  /// (minimum 1). `name` labels this pool's metrics (pool_queue_depth,
  /// pool_tasks_total, pool_task_seconds, pool_worker_busy_ns_total — see
  /// docs/OBSERVABILITY.md); distinct pools must use distinct names.
  explicit ThreadPool(std::size_t threads = 0, const char* name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future yields its result (or exception).
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& task) {
    using R = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      const util::MutexLock lock{mutex_};
      if (stopping_) throw std::runtime_error{"ThreadPool: submit after shutdown"};
      tasks_.emplace([packaged] { (*packaged)(); });
    }
    queue_depth_.add(1);
    condition_.notify_one();
    return result;
  }

  /// Run `count` tasks produced by `factory(i)` and wait for all of them,
  /// each in one `pool.task` trace span. Rethrows the first exception
  /// encountered (after all tasks finish). `count == 0` returns immediately
  /// without touching the queue or its lock.
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& factory);

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  std::queue<std::function<void()>> tasks_ FEDGUARD_GUARDED_BY(mutex_);
  util::CondVar condition_;
  bool stopping_ FEDGUARD_GUARDED_BY(mutex_) = false;
  // Registry handles, resolved once at construction — the per-task cost is
  // relaxed atomic adds only.
  obs::Gauge queue_depth_;
  obs::Counter tasks_total_;
  obs::Histogram task_seconds_;
  std::vector<obs::Counter> worker_busy_ns_;
};

/// Global pool shared by the simulation (lazily constructed, sized from
/// hardware concurrency). Intended for coarse-grained client tasks only.
[[nodiscard]] ThreadPool& global_pool();

/// Parallel loop over [begin, end) with static chunking on the given pool.
/// Falls back to a serial loop when the range is small or the pool has a
/// single thread. An empty or inverted range (begin >= end) is a no-op.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// True on any ThreadPool worker thread (of any pool). The numeric kernels
/// use this to fall back to serial execution instead of fanning out from
/// inside a pool task — a nested run_batch that blocks a worker on futures
/// other workers must drain can deadlock the pool.
[[nodiscard]] bool in_worker_thread() noexcept;

}  // namespace fedguard::parallel
