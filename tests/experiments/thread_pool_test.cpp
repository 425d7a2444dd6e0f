#include "experiments/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/shard_executor.hpp"

namespace paradyn::experiments {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ReturnsTaskValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(
      {
        try {
          f.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  // The pool stays usable after a task threw.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&ran] { ++ran; });
    // No explicit wait: the destructor must run all queued tasks.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, HardwareJobsAtLeastOne) { EXPECT_GE(ThreadPool::hardware_jobs(), 1u); }

TEST(ShardPoolExecutor, EveryLaneFinishesBeforeAThrowLeaves) {
  // The window body lives in ShardSet::run's frame; a throw that left while
  // other lanes still ran it would let them call a destroyed function.
  for (const std::size_t thrower : {0u, 2u}) {
    std::atomic<int> finished{0};
    const std::function<void(std::size_t)> body = [&](std::size_t s) {
      if (s == thrower) throw std::runtime_error("shard " + std::to_string(s));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++finished;
    };
    ThreadPool pool(3);  // joined before `body` goes, whatever the executor does
    const des::ShardSet::Executor exec = shard_pool_executor(pool, 4);
    EXPECT_THROW(exec(4, body), std::runtime_error) << thrower;
    EXPECT_EQ(finished.load(), 3) << thrower;
  }
}

}  // namespace
}  // namespace paradyn::experiments
