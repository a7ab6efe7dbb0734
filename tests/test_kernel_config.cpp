#include "parallel/kernel_config.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace fedguard::parallel {
namespace {

class KernelConfigTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kernel_config(); }
  void TearDown() override { set_kernel_config(saved_); }

 private:
  KernelConfig saved_;
};

TEST_F(KernelConfigTest, DefaultsAreSane) {
  set_kernel_config(KernelConfig{});
  const KernelConfig config = kernel_config();
  EXPECT_EQ(config.threads, 0u);  // auto
  EXPECT_GT(config.gemm_min_flops, 0u);
  EXPECT_GT(config.elementwise_min_size, 0u);
  EXPECT_GT(config.distance_min_elements, 0u);
  EXPECT_GE(kernel_threads(), 1u);
}

TEST_F(KernelConfigTest, SetAndGetRoundTrips) {
  KernelConfig config;
  config.threads = 3;
  config.gemm_min_flops = 123;
  config.elementwise_min_size = 456;
  config.distance_min_elements = 789;
  set_kernel_config(config);
  const KernelConfig readback = kernel_config();
  EXPECT_EQ(readback.threads, 3u);
  EXPECT_EQ(readback.gemm_min_flops, 123u);
  EXPECT_EQ(readback.elementwise_min_size, 456u);
  EXPECT_EQ(readback.distance_min_elements, 789u);
  EXPECT_EQ(kernel_threads(), 3u);
}

TEST(ThreadsFromEnvValue, ParsesLikeTheEnvOverride) {
  EXPECT_EQ(threads_from_env_value(nullptr), 0u);
  EXPECT_EQ(threads_from_env_value(""), 0u);
  EXPECT_EQ(threads_from_env_value("4"), 4u);
  EXPECT_EQ(threads_from_env_value("1"), 1u);
  EXPECT_EQ(threads_from_env_value("0"), 0u);
  EXPECT_EQ(threads_from_env_value("-2"), 0u);
  EXPECT_EQ(threads_from_env_value("abc"), 0u);
  EXPECT_EQ(threads_from_env_value("4x"), 0u);
}

TEST_F(KernelConfigTest, KernelPoolTracksConfiguredThreadCount) {
  KernelConfig config;
  config.threads = 2;
  set_kernel_config(config);
  EXPECT_EQ(kernel_pool().thread_count(), 2u);
  config.threads = 3;
  set_kernel_config(config);
  EXPECT_EQ(kernel_pool().thread_count(), 3u);
}

TEST_F(KernelConfigTest, ShouldParallelizeHonorsThresholdAndThreadCount) {
  KernelConfig config;
  config.threads = 4;
  set_kernel_config(config);
  EXPECT_TRUE(should_parallelize(1000, 100));
  EXPECT_FALSE(should_parallelize(99, 100));
  EXPECT_TRUE(should_parallelize(100, 100));  // threshold is inclusive

  config.threads = 1;
  set_kernel_config(config);
  EXPECT_FALSE(should_parallelize(1000, 100)) << "one thread never fans out";
}

TEST_F(KernelConfigTest, ShouldParallelizeFalseInsideWorker) {
  KernelConfig config;
  config.threads = 4;
  set_kernel_config(config);
  auto inside = kernel_pool().submit([] { return should_parallelize(1 << 30, 1); });
  EXPECT_FALSE(inside.get()) << "kernels nested inside a pool worker must stay serial";
}

TEST_F(KernelConfigTest, ParallelRangesCoverExactlyOnce) {
  KernelConfig config;
  config.threads = 4;
  set_kernel_config(config);
  for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{1001}}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{64}}) {
      std::vector<std::atomic<int>> hits(count);
      kernel_parallel_ranges(count, grain, [&hits](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST_F(KernelConfigTest, ParallelRangesAlignToGrain) {
  KernelConfig config;
  config.threads = 4;
  set_kernel_config(config);
  const std::size_t grain = 64;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  kernel_parallel_ranges(1000, grain, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock{mutex};
    ranges.emplace_back(begin, end);
  });
  ASSERT_FALSE(ranges.empty());
  std::set<std::size_t> begins;
  for (const auto& [begin, end] : ranges) {
    EXPECT_LT(begin, end);
    EXPECT_EQ(begin % grain, 0u) << "range start not grain-aligned";
    begins.insert(begin);
  }
  EXPECT_EQ(begins.size(), ranges.size()) << "overlapping ranges";
}

TEST_F(KernelConfigTest, ParallelRangesFromConcurrentCallersCoverExactlyOnce) {
  // Socket client threads and the round thread fan out onto the one pool at
  // the same time.
  KernelConfig config;
  config.threads = 4;
  set_kernel_config(config);
  constexpr std::size_t kCount = 1001;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int caller = 0; caller < 4; ++caller) hits.emplace_back(kCount);
  std::vector<std::thread> callers;
  for (std::size_t caller = 0; caller < hits.size(); ++caller) {
    callers.emplace_back([&hits, caller] {
      for (int call = 0; call < 50; ++call) {
        kernel_parallel_ranges(kCount, 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) hits[caller][i].fetch_add(1);
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& caller_hits : hits) {
    for (const std::atomic<int>& hit : caller_hits) ASSERT_EQ(hit.load(), 50);
  }
}

TEST_F(KernelConfigTest, CallerRunsItsOwnRangesWhileThePoolIsBusy) {
  KernelConfig config;
  config.threads = 2;
  set_kernel_config(config);
  ThreadPool& pool = kernel_pool();
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::future<void>> blockers;
  for (std::size_t worker = 0; worker < pool.thread_count(); ++worker) {
    blockers.push_back(pool.submit([released] { released.wait(); }));
  }
  std::vector<std::atomic<int>> hits(100);
  std::future<void> call = std::async(std::launch::async, [&hits] {
    kernel_parallel_ranges(hits.size(), 1, [&hits](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
  });
  // Every worker is parked, so only the caller can run the ranges.
  const bool finished = call.wait_for(std::chrono::seconds{30}) == std::future_status::ready;
  release.set_value();
  call.get();
  for (std::future<void>& blocker : blockers) blocker.get();
  EXPECT_TRUE(finished) << "the caller waited on a busy pool instead of running its ranges";
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST_F(KernelConfigTest, ParallelRangesRethrowAfterEveryRangeRan) {
  KernelConfig config;
  config.threads = 4;
  set_kernel_config(config);
  std::vector<std::atomic<int>> hits(1000);
  EXPECT_THROW(kernel_parallel_ranges(hits.size(), 1,
                                      [&hits](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                 if (begin == 0) throw std::runtime_error{"first range"};
               }),
               std::runtime_error);
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST_F(KernelConfigTest, ParallelRangesEmptyIsNoop) {
  int calls = 0;
  kernel_parallel_ranges(0, 16, [&calls](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace fedguard::parallel
