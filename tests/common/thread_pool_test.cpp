#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sieve {
namespace {

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
  // The caller holds index 0 until the only worker has claimed index 1, so
  // the inner loop is issued from the worker itself: no helper can ever
  // start while it runs, and the worker has to drain every index alone.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_entered{false};
  std::atomic<int> sum{0};
  pool.ParallelFor(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      while (!worker_entered.load()) std::this_thread::yield();
      return;
    }
    worker_entered.store(true);
    pool.ParallelFor(16, [&sum](std::size_t i) { sum.fetch_add(int(i)); });
  });
  EXPECT_TRUE(worker_entered.load());
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
  // Both workers are parked in a loop issued from another thread, so the
  // next loop's helper tasks queue behind them and the caller runs every
  // iteration. The helpers start only after ParallelFor returned, and the
  // pool's destructor drains them: none may call fn again.
  std::atomic<int> calls{0};
  std::atomic<bool> off_caller{false};
  {
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> parked{0};
    std::thread parker([&] {
      pool.ParallelFor(3, [&](std::size_t) {
        parked.fetch_add(1);
        gate.wait();
      });
    });
    // The parker and both workers each hold one index.
    while (parked.load() < 3) std::this_thread::yield();
    const auto caller = std::this_thread::get_id();
    pool.ParallelFor(8, [&](std::size_t) {
      calls.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.store(true);
    });
    EXPECT_EQ(calls.load(), 8);
    EXPECT_FALSE(off_caller.load());
    release.set_value();
    parker.join();
  }  // the destructor runs both late helpers before joining
  EXPECT_EQ(calls.load(), 8);
  EXPECT_FALSE(off_caller.load());
}

TEST(ThreadPool, ZeroRequestedThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> sum{0};
  pool.ParallelFor(4, [&sum](std::size_t i) { sum.fetch_add(int(i)); });
  EXPECT_EQ(sum.load(), 6);
}

}  // namespace
}  // namespace sieve
