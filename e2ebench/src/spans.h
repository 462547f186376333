// In-memory span recording for the traced run.
//
// Every span has a name, a start, an end and a parent; the spans of one
// frame share a (camera, frame) id. Each thread records into its own
// SpanLog (no locking on the hot path); logs are merged and written out as a
// Chrome trace when the benchmark ends. A layer's self time is its span's
// duration minus the part of that interval its direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (steady clock).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";      ///< static string: no allocation per span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;    ///< == start_ns for instants
  std::int32_t parent = -1;   ///< index in the same log, -1 for a root
  std::uint32_t camera = 0;   ///< frame identity: (camera, frame)
  std::uint64_t frame = 0;
  bool instant = false;
};

/// One thread's spans. Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread = 0) : thread_(thread) {}

  std::int32_t Begin(const char* name, std::int32_t parent = -1,
                     std::uint32_t camera = 0, std::uint64_t frame = 0);
  void End(std::int32_t index) { spans_[std::size_t(index)].end_ns = NowNs(); }
  void Instant(const char* name, std::uint32_t camera, std::uint64_t frame,
               std::int64_t at_ns);
  /// Append a finished span with explicit times (tests, merged sources).
  std::int32_t Add(const Span& span);

  std::uint32_t thread() const noexcept { return thread_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Reserve room for `n` spans and touch it, so that first-touch page
  /// faults do not land inside the spans recorded later.
  void Reserve(std::size_t n);

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

/// Scoped span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent = -1,
             std::uint32_t camera = 0, std::uint64_t frame = 0)
      : log_(log),
        index_(log ? log->Begin(name, parent, camera, frame) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Length of [begin, end) covered by the union of `intervals`, each clipped
/// to [begin, end). Overlapping intervals count once.
std::int64_t CoveredNs(std::int64_t begin, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>>
                           intervals);

/// Self time of every span of one log: its duration minus the part of it
/// that its direct children cover (instants have no duration).
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Write every log as a Chrome trace_event JSON file.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace e2e
