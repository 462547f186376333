#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace sieve {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// One ParallelFor call's shared state. Helper tasks hold it by shared_ptr,
/// so a helper that starts after the loop returned still has a live index to
/// read; it claims nothing and never touches `fn`.
struct ParallelLoop {
  ParallelLoop(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(fn) {}

  /// Claim and run iterations until none are left. An exception is recorded
  /// (first one wins) and still counts its iteration as finished, so the
  /// caller never waits on it.
  void Drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Under the lock, so the caller cannot test the count and then
        // start waiting between the increment and this notify.
        std::lock_guard<std::mutex> lock(mutex);
        all_finished.notify_all();
      }
    }
  }

  /// Block until every iteration has finished.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    all_finished.wait(lock, [this] {
      return finished.load(std::memory_order_acquire) == n;
    });
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;  // valid until finished == n
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::mutex mutex;
  std::condition_variable all_finished;
  std::exception_ptr error;  // guarded by mutex until finished == n
};

}  // namespace

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto loop = std::make_shared<ParallelLoop>(n, fn);
  // The caller drains too, so n - 1 helpers already give every iteration its
  // own thread; more helpers than workers could only queue behind each other.
  const std::size_t helpers = std::min(n - 1, workers_.size());
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t h = 0; h < helpers; ++h) {
        tasks_.push([loop] { loop->Drain(); });
      }
    }
    for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }
  loop->Drain();
  // Every index is claimed by now; wait only for iterations still running on
  // helpers. Helpers that have not started yet are not waited for.
  loop->Wait();
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace sieve
