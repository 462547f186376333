// Percentiles under the benchmark's sample-count rule.
//
// A percentile is reported only when at least kMinBeyond samples rank above
// it, and always together with its sample count: a p99 needs 1000 samples, a
// p95 200, a median 20. Fewer samples cannot tell the tail from noise.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

inline constexpr std::size_t kMinBeyond = 10;

struct PercentileResult {
  double value = 0.0;        ///< nearest-rank percentile (0 when no samples)
  std::size_t samples = 0;   ///< sample count
  std::size_t beyond = 0;    ///< samples ranked above the percentile
  bool reportable = false;   ///< beyond >= kMinBeyond
};

/// Nearest-rank percentile `q` in (0, 1) of `samples`: the value at rank
/// ceil(q * n) of the sorted samples.
PercentileResult Percentile(std::vector<double> samples, double q);

/// The smallest sample count for which Percentile(q) is reportable.
std::size_t MinSamplesFor(double q);

/// Plain median (mean of the middle two for an even count; 0 when empty).
double Median(std::vector<double> values);

/// A sample and when it was taken, in seconds from the start of the run.
struct TimedSample {
  double t_s = 0.0;
  double value = 0.0;
};

std::vector<double> Values(const std::vector<TimedSample>& samples);

/// Windows a windowed median needs before it is reported.
inline constexpr std::size_t kMinWindows = 5;

struct WindowedMedianResult {
  double value = 0.0;        ///< median of the per-window medians
  std::size_t samples = 0;   ///< sample count
  std::size_t windows = 0;   ///< windows whose own median was reportable
  bool reportable = false;   ///< windows >= kMinWindows
};

/// The run cut into `window_s`-second windows; the median of each window
/// whose median is reportable, then the median of those. A neighbour's CPU
/// burst that covers fewer than half of the windows does not move it.
WindowedMedianResult WindowedMedian(const std::vector<TimedSample>& samples,
                                    double window_s);

}  // namespace e2e
