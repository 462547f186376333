// Wall-clock stopwatch used by the runtime's stage timing and the benches.
#pragma once

#include <chrono>
#include <cstdint>

namespace sieve {

/// Monotonic stopwatch. Start() resets; Elapsed*() read without stopping.
class Stopwatch {
 public:
  Stopwatch() { Start(); }

  void Start() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }
  std::uint64_t ElapsedNanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sieve
