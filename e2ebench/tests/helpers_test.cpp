// Tests of the benchmark's own helpers: the percentile sample-count rule,
// windowed medians, and self time with nested and overlapping child spans.
#include <gtest/gtest.h>

#include <vector>

#include "spans.h"
#include "stats.h"

namespace e2e {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(double(i));  // unsorted
  return v;
}

TEST(Percentile, NearestRankValue) {
  const PercentileResult p50 = Percentile(Ramp(100), 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.reportable);
  EXPECT_EQ(Percentile(Ramp(1000), 0.99).value, 990.0);
  EXPECT_EQ(Percentile(Ramp(200), 0.95).value, 190.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 over the 24 samples a chaos run once reported: nothing beyond it.
  const PercentileResult small = Percentile(Ramp(24), 0.99);
  EXPECT_EQ(small.samples, 24u);
  EXPECT_EQ(small.beyond, 0u);
  EXPECT_FALSE(small.reportable);

  EXPECT_FALSE(Percentile(Ramp(999), 0.99).reportable);
  EXPECT_TRUE(Percentile(Ramp(1000), 0.99).reportable);
  EXPECT_EQ(Percentile(Ramp(1000), 0.99).beyond, 10u);
  EXPECT_FALSE(Percentile(Ramp(199), 0.95).reportable);
  EXPECT_TRUE(Percentile(Ramp(200), 0.95).reportable);
  EXPECT_FALSE(Percentile(Ramp(19), 0.5).reportable);
  EXPECT_TRUE(Percentile(Ramp(20), 0.5).reportable);
}

TEST(Percentile, MinSamplesMatchesRule) {
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.95), 200u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const std::size_t n = MinSamplesFor(q);
    EXPECT_TRUE(Percentile(Ramp(n), q).reportable) << q;
    EXPECT_FALSE(Percentile(Ramp(n - 1), q).reportable) << q;
  }
}

TEST(Percentile, EmptyIsNotReportable) {
  const PercentileResult p = Percentile({}, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.reportable);
}

TEST(WindowedMedian, MedianOfWindowMedians) {
  std::vector<TimedSample> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 20; ++i) {
      samples.push_back({w * 2.0 + i * 0.05, double(w * 100 + i)});
    }
  }
  const WindowedMedianResult m = WindowedMedian(samples, 2.0);
  EXPECT_EQ(m.samples, 100u);
  EXPECT_EQ(m.windows, 5u);
  EXPECT_TRUE(m.reportable);
  EXPECT_EQ(m.value, 209.0);  // window medians 9, 109, 209, 309, 409
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(WindowedMedian, NoisyMinorityOfWindowsDoesNotMoveIt) {
  std::vector<TimedSample> samples;
  for (int w = 0; w < 7; ++w) {
    const double level = w < 2 ? 1000.0 : 1.0;  // two windows of noise
    for (int i = 0; i < 20; ++i) samples.push_back({w + i * 0.01, level});
  }
  EXPECT_EQ(WindowedMedian(samples, 1.0).value, 1.0);
}

TEST(WindowedMedian, SparseWindowsAreSkippedAndCountedAgainstIt) {
  std::vector<TimedSample> samples;
  for (int w = 0; w < 10; ++w) {
    const int n = w < 4 ? 20 : 19;  // only 4 windows support a median
    for (int i = 0; i < n; ++i) samples.push_back({double(w), 1.0});
  }
  const WindowedMedianResult m = WindowedMedian(samples, 1.0);
  EXPECT_EQ(m.windows, 4u);
  EXPECT_FALSE(m.reportable);
}

TEST(CoveredNs, UnionOfOverlappingIntervals) {
  EXPECT_EQ(CoveredNs(0, 100, {}), 0);
  EXPECT_EQ(CoveredNs(0, 100, {{10, 20}, {30, 40}}), 20);
  EXPECT_EQ(CoveredNs(0, 100, {{10, 30}, {20, 40}}), 30);   // overlap once
  EXPECT_EQ(CoveredNs(0, 100, {{10, 60}, {20, 30}}), 50);   // contained
  EXPECT_EQ(CoveredNs(0, 100, {{-50, 10}, {90, 150}}), 20); // clipped
  EXPECT_EQ(CoveredNs(0, 100, {{120, 150}}), 0);            // outside
}

Span At(const char* name, std::int64_t start, std::int64_t end,
        std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimes, NestedChildrenCountOnlyAtTheirParent) {
  SpanLog log;
  log.Add(At("frame", 0, 100, -1));    // 0
  log.Add(At("layer", 10, 60, 0));     // 1
  log.Add(At("inner", 20, 40, 1));     // 2: grandchild of 0
  log.Add(At("layer", 70, 90, 0));     // 3
  const auto self = SelfTimesNs(log.spans());
  EXPECT_EQ(self[0], 100 - 50 - 20);   // grandchild already inside span 1
  EXPECT_EQ(self[1], 50 - 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTimes, OverlappingChildrenAreNotCountedTwice) {
  SpanLog log;
  log.Add(At("reader", 0, 100, -1));
  log.Add(At("call", 10, 50, 0));
  log.Add(At("call", 30, 70, 0));      // overlaps the first call
  log.Add(At("call", 90, 130, 0));     // runs past the parent's end
  const auto self = SelfTimesNs(log.spans());
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[3], 40);
}

TEST(SelfTimes, InstantsHaveNoDurationAndCoverNothing) {
  SpanLog log;
  log.Add(At("frame", 0, 100, -1));
  Span instant = At("event", 50, 50, 0);
  instant.instant = true;
  log.Add(instant);
  const auto self = SelfTimesNs(log.spans());
  EXPECT_EQ(self[0], 100);
  EXPECT_EQ(self[1], 0);
}

TEST(SpanLog, ScopedSpansNestThroughParentIndex) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "frame");
    ScopedSpan inner(&log, "layer", outer.index(), 3, 7);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].camera, 3u);
  EXPECT_EQ(log.spans()[1].frame, 7u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  ScopedSpan untraced(nullptr, "nothing");
  EXPECT_EQ(untraced.index(), -1);
}

}  // namespace
}  // namespace e2e
