#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace e2e {
namespace {

// 1-based nearest rank of percentile q among n samples. The epsilon keeps
// q * n from rounding up past an exact integer (0.99 * 1000 is not exact).
std::size_t Rank(double q, std::size_t n) {
  const double r = std::ceil(q * double(n) - 1e-9);
  return std::clamp<std::size_t>(std::size_t(std::max(r, 1.0)), 1, n);
}

}  // namespace

PercentileResult Percentile(std::vector<double> samples, double q) {
  PercentileResult out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = Rank(q, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.reportable = out.beyond >= kMinBeyond;
  return out;
}

std::size_t MinSamplesFor(double q) {
  std::size_t n = 1;
  while (n - Rank(q, n) < kMinBeyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double> Values(const std::vector<TimedSample>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const TimedSample& s : samples) v.push_back(s.value);
  return v;
}

WindowedMedianResult WindowedMedian(const std::vector<TimedSample>& samples,
                                    double window_s) {
  std::map<long long, std::vector<double>> windows;
  for (const TimedSample& s : samples) {
    windows[static_cast<long long>(std::floor(s.t_s / window_s))].push_back(
        s.value);
  }
  std::vector<double> medians;
  for (auto& [index, values] : windows) {
    const PercentileResult p = Percentile(std::move(values), 0.5);
    if (p.reportable) medians.push_back(p.value);
  }
  WindowedMedianResult out;
  out.samples = samples.size();
  out.windows = medians.size();
  out.reportable = out.windows >= kMinWindows;
  out.value = Median(std::move(medians));
  return out;
}

}  // namespace e2e
