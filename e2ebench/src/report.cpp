#include "report.h"

#include <cmath>
#include <cstdio>

namespace e2e {

void Report::Add(std::string name, double value, std::string unit,
                 std::string note) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    return;
  }
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Report::AddPercentile(std::string name, const PercentileResult& p,
                           std::string unit) {
  const std::string note = "n=" + std::to_string(p.samples) +
                           " beyond=" + std::to_string(p.beyond);
  if (!p.reportable) {
    Fail(name + ": too few samples beyond the percentile (" + note + ")");
    return;
  }
  Add(std::move(name), p.value, std::move(unit), note);
}

void Report::AddLatency(const std::string& name,
                        const WindowedMedianResult& m,
                        const std::string& unit) {
  char line[192];
  std::snprintf(line, sizeof line, "%s: %.6f %s (n=%zu windows=%zu)",
                name.c_str(), m.value, unit.c_str(), m.samples, m.windows);
  if (!m.reportable) Fail(name + ": too few windows with a reportable median");
  Line(line);
}

void Report::AddLatency(const std::string& name, const PercentileResult& p,
                        const std::string& unit) {
  char line[192];
  std::snprintf(line, sizeof line, "%s: %.6f %s (n=%zu beyond=%zu)",
                name.c_str(), p.value, unit.c_str(), p.samples, p.beyond);
  if (!p.reportable) Fail(name + ": too few samples beyond the percentile");
  Line(line);
}

void Report::Print(std::size_t attempted, std::size_t failed) const {
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failures_.empty() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace e2e
