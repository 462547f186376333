#include "dataflow/pipeline.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace sieve::dataflow {
namespace {

FlowFile NumberedFile(std::uint64_t n) {
  FlowFile f;
  f.SetU64("n", n);
  return f;
}

TEST(FlowFile, AttributeRoundTrip) {
  FlowFile f;
  f.SetAttribute("key", "value");
  EXPECT_EQ(f.GetAttribute("key").value(), "value");
  EXPECT_FALSE(f.GetAttribute("missing").has_value());
}

TEST(FlowFile, U64Attributes) {
  FlowFile f;
  f.SetU64("frame", 123456789012345ull);
  EXPECT_EQ(f.GetU64("frame").value(), 123456789012345ull);
  f.SetAttribute("bad", "not-a-number");
  EXPECT_FALSE(f.GetU64("bad").has_value());
}

TEST(Pipeline, StartWithoutSinkFails) {
  Pipeline p;
  std::size_t n = 0;
  ASSERT_TRUE(p.AttachSource("src", [&n]() -> std::optional<FlowFile> {
    if (n++ < 3) return FlowFile{};
    return std::nullopt;
  }).ok());
  const Status started = p.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(p.Finish().ok()) << "a flow that never started cannot finish";
}

TEST(Pipeline, SourceToSinkDeliversEverything) {
  Pipeline p;
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 100) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 100u);
  EXPECT_EQ(stats->front().out, 100u);
  EXPECT_EQ(stats->back().in, 100u);
}

TEST(Pipeline, StagesTransformInOrder) {
  Pipeline p;
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 10) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage("double", [](FlowFile f) -> std::optional<FlowFile> {
    f.SetU64("n", *f.GetU64("n") * 2);
    return f;
  });
  p.AddStage("plus-one", [](FlowFile f) -> std::optional<FlowFile> {
    f.SetU64("n", *f.GetU64("n") + 1);
    return f;
  });
  std::mutex m;
  std::set<std::uint64_t> values;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(m);
    values.insert(*f.GetU64("n"));
  });
  ASSERT_TRUE(p.Start().ok());
  ASSERT_TRUE(p.Finish().ok());
  ASSERT_EQ(values.size(), 10u);
  for (std::uint64_t n = 0; n < 10; ++n) {
    EXPECT_TRUE(values.contains(n * 2 + 1));
  }
}

TEST(Pipeline, FilterStageDropsItems) {
  Pipeline p;
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 50) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage("evens-only", [](FlowFile f) -> std::optional<FlowFile> {
    if (*f.GetU64("n") % 2 != 0) return std::nullopt;
    return f;
  });
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 25u);
  EXPECT_EQ((*stats)[1].in, 50u);
  EXPECT_EQ((*stats)[1].out, 25u);
}

TEST(Pipeline, ParallelStageProcessesEverythingOnce) {
  Pipeline p(4);
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 200) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage(
      "work",
      [](FlowFile f) -> std::optional<FlowFile> { return f; }, 4);
  std::mutex m;
  std::multiset<std::uint64_t> seen;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(m);
    seen.insert(*f.GetU64("n"));
  });
  ASSERT_TRUE(p.Start().ok());
  ASSERT_TRUE(p.Finish().ok());
  EXPECT_EQ(seen.size(), 200u);
  for (std::uint64_t n = 0; n < 200; ++n) EXPECT_EQ(seen.count(n), 1u);
}

TEST(Pipeline, BackpressureLimitsQueueDepth) {
  Pipeline p(2);  // tiny connections
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("fast-src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 100) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage("slow", [](FlowFile f) -> std::optional<FlowFile> {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return f;
  });
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 100u);
  for (const auto& s : *stats) {
    EXPECT_LE(s.peak_queue, 2u) << s.name;
  }
}

TEST(Pipeline, StatsNamesInOrder) {
  Pipeline p;
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("camera", [&produced]() -> std::optional<FlowFile> {
    if (produced < 1) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage("edge", [](FlowFile f) -> std::optional<FlowFile> { return f; });
  p.SetSink("cloud", [](FlowFile) {});
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 3u);
  EXPECT_EQ((*stats)[0].name, "camera");
  EXPECT_EQ((*stats)[1].name, "edge");
  EXPECT_EQ((*stats)[2].name, "cloud");
}

TEST(Pipeline, EmptySourceCompletesCleanly) {
  Pipeline p;
  ASSERT_TRUE(
      p.AttachSource("empty", [] { return std::optional<FlowFile>{}; }).ok());
  p.SetSink("sink", [](FlowFile) { FAIL() << "nothing should arrive"; });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->back().in, 0u);
}

TEST(Pipeline, SecondStartOrFinishFails) {
  // The first run consumes the source and stat state; a silent rerun would
  // report an empty flow as success. It must be an error instead.
  Pipeline p;
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < 5) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  ASSERT_TRUE(p.Start().ok());
  ASSERT_TRUE(p.Finish().ok());
  EXPECT_EQ(received.load(), 5u);

  const Status restarted = p.Start();
  ASSERT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.code(), ErrorCode::kFailedPrecondition);
  auto refinished = p.Finish();
  ASSERT_FALSE(refinished.ok());
  EXPECT_EQ(refinished.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(received.load(), 5u) << "a second run must not process anything";
}

TEST(Pipeline, MultiSourceFanInMergesEverything) {
  Pipeline p(4);
  // Three cameras with distinct id ranges fan into one chain.
  std::array<std::size_t, 3> produced{0, 0, 0};
  for (std::size_t cam = 0; cam < 3; ++cam) {
    ASSERT_TRUE(p.AttachSource("camera-" + std::to_string(cam),
                               [cam, &produced]() -> std::optional<FlowFile> {
                                 if (produced[cam] < 40) {
                                   return NumberedFile(cam * 1000 +
                                                       produced[cam]++);
                                 }
                                 return std::nullopt;
                               })
                    .ok());
  }
  p.AddStage("tag", [](FlowFile f) -> std::optional<FlowFile> { return f; });
  std::mutex m;
  std::set<std::uint64_t> seen;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(m);
    seen.insert(*f.GetU64("n"));
  });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  // Stats: 3 sources, the stage, the sink — in that order.
  ASSERT_EQ(stats->size(), 5u);
  for (std::size_t cam = 0; cam < 3; ++cam) {
    EXPECT_EQ((*stats)[cam].name, "camera-" + std::to_string(cam));
    EXPECT_EQ((*stats)[cam].out, 40u);
  }
  EXPECT_EQ((*stats)[3].in, 120u);
  EXPECT_EQ(stats->back().in, 120u);
  ASSERT_EQ(seen.size(), 120u);
  for (std::size_t cam = 0; cam < 3; ++cam) {
    for (std::uint64_t n = 0; n < 40; ++n) {
      EXPECT_TRUE(seen.contains(cam * 1000 + n));
    }
  }
}

TEST(Pipeline, StreamingAttachWhileRunning) {
  Pipeline p(4);
  std::atomic<std::size_t> received{0};
  p.SetSink("sink", [&received](FlowFile) { received.fetch_add(1); });
  ASSERT_TRUE(p.Start().ok());
  EXPECT_FALSE(p.Start().ok()) << "Start is one-shot";

  // Attach two live sources after the workers are already running.
  for (int cam = 0; cam < 2; ++cam) {
    auto produced = std::make_shared<std::size_t>(0);
    ASSERT_TRUE(p.AttachSource("live-" + std::to_string(cam),
                               [produced]() -> std::optional<FlowFile> {
                                 if (*produced < 30) {
                                   return NumberedFile((*produced)++);
                                 }
                                 return std::nullopt;
                               })
                    .ok());
  }
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(received.load(), 60u);
  ASSERT_EQ(stats->size(), 3u);  // two sources + sink
  EXPECT_FALSE(p.AttachSource("late", [] { return std::nullopt; }).ok());
  EXPECT_FALSE(p.Finish().ok()) << "Finish is one-shot";
}

TEST(Pipeline, OrderedParallelStagePreservesInputOrder) {
  // Workers get adversarial per-item delays (later items finish sooner), so
  // unsequenced workers would almost surely reorder; the stage's ordered
  // gate must deliver the exact input sequence anyway.
  constexpr std::size_t kItems = 200;
  Pipeline p(/*queue_capacity=*/8);
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < kItems) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage(
      "jitter",
      [](FlowFile f) -> std::optional<FlowFile> {
        const std::uint64_t n = f.GetU64("n").value_or(0);
        std::this_thread::sleep_for(std::chrono::microseconds((3 - n % 4) * 400));
        return f;
      },
      /*parallelism=*/4);
  std::vector<std::uint64_t> order;
  std::mutex order_mutex;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(f.GetU64("n").value_or(0));
  });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(order.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(order[i], i) << "ordered stage emitted out of order";
  }
}

TEST(Pipeline, OrderedStageStillFilters) {
  constexpr std::size_t kItems = 120;
  Pipeline p(/*queue_capacity=*/4);
  std::size_t produced = 0;
  ASSERT_TRUE(p.AttachSource("src", [&produced]() -> std::optional<FlowFile> {
    if (produced < kItems) return NumberedFile(produced++);
    return std::nullopt;
  }).ok());
  p.AddStage(
      "drop-odd",
      [](FlowFile f) -> std::optional<FlowFile> {
        const std::uint64_t n = f.GetU64("n").value_or(0);
        std::this_thread::sleep_for(std::chrono::microseconds((n % 3) * 300));
        if (n % 2 == 1) return std::nullopt;  // dropped items advance the gate
        return f;
      },
      /*parallelism=*/3);
  std::vector<std::uint64_t> order;
  std::mutex order_mutex;
  p.SetSink("sink", [&](FlowFile f) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(f.GetU64("n").value_or(0));
  });
  ASSERT_TRUE(p.Start().ok());
  auto stats = p.Finish();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(order.size(), kItems / 2);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], 2 * i);
  }
}

}  // namespace
}  // namespace sieve::dataflow
