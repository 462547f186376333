// Result printing: one human-readable line per metric (with its sample
// count), then, as the last line, the JSON result: {"correct", "attempted",
// "failed", "metrics"}.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stats.h"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or base of a ratio, printed only
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "");
  /// Adds a percentile metric; an unreportable one is recorded as a failed
  /// check (too few samples beyond it) and left out.
  void AddPercentile(std::string name, const PercentileResult& p,
                     std::string unit);
  /// Latencies are printed with their sample counts outside the JSON
  /// result: on a shared box their run-to-run spread is wider than any
  /// bound the gate allows (README.md). One its samples cannot support
  /// fails like a percentile metric.
  void AddLatency(const std::string& name, const WindowedMedianResult& m,
                  const std::string& unit);
  void AddLatency(const std::string& name, const PercentileResult& p,
                  const std::string& unit);
  void Fail(std::string why) { failures_.push_back(std::move(why)); }
  void Line(std::string text) { lines_.push_back(std::move(text)); }

  const std::vector<std::string>& failures() const { return failures_; }

  /// Print the human-readable lines, the metric table and the final JSON
  /// line to stdout.
  void Print(std::size_t attempted, std::size_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::vector<std::string> failures_;
};

}  // namespace e2e
