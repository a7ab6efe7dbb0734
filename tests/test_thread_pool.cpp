#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/kernel_config.hpp"

namespace fedguard::parallel {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool{2};
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool{2};
  auto future = pool.submit([]() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, RunBatchExecutesAll) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(64);
  pool.run_batch(64, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunBatchRethrowsFirstError) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.run_batch(8,
                              [](std::size_t i) {
                                if (i == 3) throw std::logic_error{"bad"};
                              }),
               std::logic_error);
}

TEST(ThreadPool, SingleThreadedPoolRunsSerially) {
  ThreadPool pool{1};
  std::vector<int> order;
  pool.run_batch(5, [&order](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, CoversExactRange) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 10, 90, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0) << "i=" << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool{2};
  int calls = 0;
  parallel_for(pool, 5, 5, [&calls](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// Regression: run_batch(0) must return without touching the queue mutex, so
// it stays safe (and cheap) even when called from a worker of the same pool
// while the pool is under load.
TEST(ThreadPool, EmptyBatchIsNoopEvenFromWorker) {
  ThreadPool pool{2};
  int calls = 0;
  pool.run_batch(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  auto nested = pool.submit([&pool] {
    // Would deadlock if the empty batch enqueued work and waited on it.
    pool.run_batch(0, [](std::size_t) {});
    return 1;
  });
  EXPECT_EQ(nested.get(), 1);
}

// Regression: an inverted range (begin > end) must behave exactly like an
// empty one — no tasks, no wraparound from unsigned subtraction.
TEST(ParallelFor, InvertedRangeDoesNotWrapAround) {
  ThreadPool pool{4};
  std::atomic<int> calls{0};
  parallel_for(pool, 1000, 0, [&calls](std::size_t) { calls.fetch_add(1); });
  parallel_for(pool, std::numeric_limits<std::size_t>::max(), 1,
               [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, InWorkerThreadFlagSetInsideWorkers) {
  EXPECT_FALSE(in_worker_thread());
  ThreadPool pool{2};
  auto inside = pool.submit([] { return in_worker_thread(); });
  EXPECT_TRUE(inside.get());
  // Still false on the caller's thread afterwards.
  EXPECT_FALSE(in_worker_thread());
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool{4};
  std::atomic<long long> total{0};
  parallel_for(pool, 0, 1000, [&total](std::size_t i) {
    total.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(total.load(), 999LL * 1000 / 2);
}

TEST(GlobalPool, IsSingletonAndUsable) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
  auto future = a.submit([] { return 7; });
  EXPECT_EQ(future.get(), 7);
}

// A worker updates its pool_* instruments after the task that completed a
// batch returns, so it can still be running when the batch's caller exits.
// In a fresh process whose first registry user is the kernel pool, the
// registry is built after the pool's owner; if exit destroyed it first, that
// worker would write into freed cells. Each child runs kernel-pool batches
// and exits straight away, and must exit cleanly every time.
TEST(ThreadPoolDeathTest, KernelPoolBatchesThenExitIsClean) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr std::size_t kBatches = 64;
  constexpr std::size_t kRanges = 4;
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_EXIT(
        {
          KernelConfig config;
          config.threads = kRanges;
          set_kernel_config(config);
          std::atomic<std::size_t> covered{0};
          for (std::size_t batch = 0; batch < kBatches; ++batch) {
            kernel_parallel_ranges(kRanges, 1, [&covered](std::size_t begin, std::size_t end) {
              covered.fetch_add(end - begin);
            });
          }
          // NOLINTNEXTLINE(concurrency-mt-unsafe) exit-time static destruction is under test
          std::exit(covered.load() == kRanges * kBatches ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "")
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace fedguard::parallel
