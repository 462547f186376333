#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace e2e {

std::int32_t SpanLog::Begin(const char* name, std::int32_t parent,
                            std::uint32_t camera, std::uint64_t frame) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.camera = camera;
  span.frame = frame;
  spans_.push_back(span);
  // Stamp last, so the bookkeeping above is not inside the span.
  spans_.back().start_ns = spans_.back().end_ns = NowNs();
  return std::int32_t(spans_.size() - 1);
}

void SpanLog::Instant(const char* name, std::uint32_t camera,
                      std::uint64_t frame, std::int64_t at_ns) {
  Span span;
  span.name = name;
  span.camera = camera;
  span.frame = frame;
  span.start_ns = at_ns;
  span.end_ns = at_ns;
  span.instant = true;
  spans_.push_back(span);
}

void SpanLog::Reserve(std::size_t n) {
  if (n <= spans_.capacity()) return;
  const std::size_t size = spans_.size();
  spans_.resize(n);
  spans_.resize(size);
}

std::int32_t SpanLog::Add(const Span& span) {
  spans_.push_back(span);
  return std::int32_t(spans_.size() - 1);
}

std::int64_t CoveredNs(
    std::int64_t begin, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  for (auto& [b, e] : intervals) {
    b = std::max(b, begin);
    e = std::min(e, end);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = begin;  // end of the union so far
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && !s.instant) {
      children[std::size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.instant) continue;
    self[i] = (s.end_ns - s.start_ns) -
              CoveredNs(s.start_ns, s.end_ns, std::move(children[i]));
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      std::fprintf(f, "%s{\"name\":\"%s\",\"ts\":%.3f,", first ? "" : ",\n",
                   s.name, double(s.start_ns - origin) / 1e3);
      if (s.instant) {
        std::fprintf(f, "\"ph\":\"i\",\"s\":\"t\",");
      } else {
        std::fprintf(f, "\"ph\":\"X\",\"dur\":%.3f,",
                     double(s.end_ns - s.start_ns) / 1e3);
      }
      std::fprintf(f,
                   "\"pid\":1,\"tid\":%u,\"args\":{\"camera\":%u,"
                   "\"frame\":%llu,\"span\":%zu,\"parent\":%d}}",
                   log->thread(), s.camera,
                   static_cast<unsigned long long>(s.frame), i, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
