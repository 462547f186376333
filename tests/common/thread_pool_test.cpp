#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sieve {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&sum](std::size_t i) { sum.fetch_add(int(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ParallelForRethrowsIterationException) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&hits](std::size_t i) {
                                  hits[i].fetch_add(1);
                                  if (i == 37) throw std::runtime_error("37");
                                }),
               std::runtime_error);
  // The failure stops nothing else: every index still ran exactly once.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // And the pool is still usable.
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&sum](std::size_t i) { sum.fetch_add(int(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ParallelForFewerIndicesThanWorkersCoversEachOnce) {
  ThreadPool pool(8);
  for (std::size_t n : {1u, 2u, 3u, 7u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n << ":" << i;
  }
}

TEST(ThreadPool, ParallelForOfOneRunsOnCaller) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(1, [&ran_on](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, ParallelForInsideTaskOnOneWorkerPoolCompletes) {
  // The only worker issues the loop, so no helper can ever start while it
  // runs: the caller has to drain every index itself.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  auto done = pool.Submit([&] {
    pool.ParallelFor(16, [&sum](std::size_t i) { sum.fetch_add(int(i)); });
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  done.get();
  EXPECT_EQ(sum.load(), 120);
}

TEST(ThreadPool, NestedParallelForOnSaturatedPoolCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.ParallelFor(8, [&](std::size_t outer) {
    pool.ParallelFor(8, [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LateHelperClaimsNothingAfterReturn) {
  // Both workers are parked, so the loop's helper tasks queue behind them
  // and the caller runs every iteration. The helpers start only after
  // ParallelFor returned and must not call fn again.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::future<void>> parked;
  for (int w = 0; w < 2; ++w) parked.push_back(pool.Submit([gate] { gate.wait(); }));
  const auto caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<bool> off_caller{false};
  pool.ParallelFor(8, [&](std::size_t) {
    calls.fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.store(true);
  });
  EXPECT_EQ(calls.load(), 8);
  EXPECT_FALSE(off_caller.load());
  release.set_value();
  for (auto& f : parked) f.get();
  pool.Submit([] {}).get();  // the FIFO queue has run both helpers by now
  pool.Submit([] {}).get();
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, ZeroRequestedThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.Submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, DrainsTasksOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor must run all 50
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace sieve
