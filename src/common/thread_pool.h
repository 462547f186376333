// Fixed-size thread pool used by the dataflow engine and parallel sweeps.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sieve {

/// A fixed-size pool of worker threads running ParallelFor's helper tasks
/// FIFO. Destruction drains outstanding tasks before joining (graceful
/// shutdown).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(i) for i in [0, n) and wait for all to finish. The calling
  /// thread runs iterations too, next to at most min(n - 1, size()) helper
  /// tasks that claim indices from one shared counter, so a call made from
  /// inside a pool task completes even when every worker is busy. The first
  /// exception thrown by an iteration is rethrown here after all iterations
  /// finished.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace sieve
