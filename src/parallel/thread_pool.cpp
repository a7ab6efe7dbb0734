#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "obs/trace.hpp"

namespace fedguard::parallel {

namespace {
thread_local bool t_in_worker = false;
}  // namespace

bool in_worker_thread() noexcept { return t_in_worker; }

ThreadPool::ThreadPool(std::size_t threads, const char* name) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  auto& registry = obs::Registry::global();
  const std::string label = std::string{"{pool=\""} + name + "\"}";
  queue_depth_ = registry.gauge("pool_queue_depth" + label);
  tasks_total_ = registry.counter("pool_tasks_total" + label);
  task_seconds_ = registry.histogram("pool_task_seconds" + label);
  worker_busy_ns_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    worker_busy_ns_.push_back(
        registry.counter(std::string{"pool_worker_busy_ns_total{pool=\""} + name +
                         "\",worker=\"" + std::to_string(i) + "\"}"));
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock{mutex_};
    stopping_ = true;
  }
  condition_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      const util::MutexLock lock{mutex_};
      while (!stopping_ && tasks_.empty()) condition_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    queue_depth_.sub(1);
    const std::uint64_t start_ns = obs::now_ns();
    task();
    const std::uint64_t busy_ns = obs::now_ns() - start_ns;
    tasks_total_.add(1);
    task_seconds_.observe(static_cast<double>(busy_ns) * 1e-9);
    worker_busy_ns_[worker_index].add(busy_ns);
  }
}

void ThreadPool::run_batch(std::size_t count, const std::function<void(std::size_t)>& factory) {
  if (count == 0) return;  // before the lock: an empty batch must be free

  if (thread_count() == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) factory(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit([&factory, i] {
      FEDGUARD_TRACE_SPAN("pool.task", "task");
      factory(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool() {
  static ThreadPool pool{0, "clients"};
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t threads = pool.thread_count();
  if (threads == 1 || count < 2) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunks = std::min(threads, count);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  pool.run_batch(chunks, [&](std::size_t chunk) {
    const std::size_t lo = begin + chunk * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace fedguard::parallel
