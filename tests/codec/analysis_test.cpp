#include "codec/analysis.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "runtime/executor.h"
#include "synth/scene.h"

namespace sieve::codec {
namespace {

synth::SyntheticVideo TestScene(std::uint64_t seed = 3, std::size_t frames = 200) {
  synth::SceneConfig c;
  c.width = 160;
  c.height = 120;
  c.num_frames = frames;
  c.seed = seed;
  c.mean_gap_seconds = 2.0;
  c.min_gap_seconds = 1.0;
  c.mean_dwell_seconds = 2.0;
  c.noise_sigma = 1.0;
  return synth::GenerateScene(c);
}

TEST(ScenecutBias, MonotoneInParameter) {
  double prev = -1;
  for (int sc = 0; sc <= 400; sc += 10) {
    const double bias = ScenecutBias(sc);
    EXPECT_GE(bias, prev);
    EXPECT_GE(bias, 0.0);
    EXPECT_LE(bias, 1.0);
    prev = bias;
  }
}

TEST(ScenecutBias, Extremes) {
  EXPECT_DOUBLE_EQ(ScenecutBias(0), 0.0);
  EXPECT_DOUBLE_EQ(ScenecutBias(400), 1.0);
  EXPECT_DOUBLE_EQ(ScenecutBias(-50), 0.0);
  EXPECT_DOUBLE_EQ(ScenecutBias(999), 1.0);
}

TEST(Analysis, CostsPerFrameMatchVideoLength) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  EXPECT_EQ(costs.size(), scene.video.frames.size());
}

TEST(Analysis, FirstFrameInterEqualsIntra) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  EXPECT_DOUBLE_EQ(costs[0].inter_cost, costs[0].intra_cost);
}

TEST(Analysis, InterNeverExceedsIntra) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  for (const auto& c : costs) {
    EXPECT_LE(c.inter_cost, c.intra_cost + 1e-9);
    EXPECT_GT(c.intra_cost, 0.0);
  }
}

TEST(Analysis, QuietFramesCheaperThanEventFrames) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto events = scene.truth.Events();
  ASSERT_GE(events.size(), 2u);

  // Max inter/intra ratio in a window around each transition vs quiet frames.
  double max_quiet = 0.0, max_transition = 0.0;
  for (std::size_t e = 1; e < events.size(); ++e) {
    const std::size_t s = events[e].start;
    for (std::size_t f = s > 6 ? s - 6 : 1; f < std::min(costs.size(), s + 7);
         ++f) {
      max_transition = std::max(max_transition,
                                costs[f].inter_cost / costs[f].intra_cost);
    }
  }
  for (std::size_t f = 1; f < costs.size(); ++f) {
    bool near_transition = false;
    for (std::size_t e = 1; e < events.size(); ++e) {
      const std::size_t s = events[e].start;
      if (f + 10 >= s && f <= s + 10) near_transition = true;
    }
    if (!near_transition) {
      max_quiet =
          std::max(max_quiet, costs[f].inter_cost / costs[f].intra_cost);
    }
  }
  EXPECT_GT(max_transition, 2.0 * max_quiet)
      << "object transitions must stand out of the quiet-frame noise floor";
}

TEST(Analysis, StreamingAnalyzerMatchesBatch) {
  const auto scene = TestScene();
  const auto batch = AnalyzeVideo(scene.video);
  FrameAnalyzer analyzer;
  for (std::size_t f = 0; f < scene.video.frames.size(); ++f) {
    const FrameCost cost = analyzer.Push(scene.video.frames[f]);
    EXPECT_DOUBLE_EQ(cost.intra_cost, batch[f].intra_cost) << "frame " << f;
    EXPECT_DOUBLE_EQ(cost.inter_cost, batch[f].inter_cost) << "frame " << f;
  }
}

TEST(Analysis, ResetForgetsHistory) {
  const auto scene = TestScene();
  FrameAnalyzer analyzer;
  analyzer.Push(scene.video.frames[0]);
  analyzer.Reset();
  const FrameCost cost = analyzer.Push(scene.video.frames[1]);
  EXPECT_DOUBLE_EQ(cost.inter_cost, cost.intra_cost)
      << "after reset the next frame has no predecessor";
}

// Golden analyzer costs: an FNV-1a hash over the raw IEEE bits of every
// FrameCost (intra then inter, frame by frame) of a seeded clip, recorded
// with the double-accumulating BlockIntraCost/DeadzoneSad and the clamped
// per-pixel Downsample2x (GCC 12, -O2, x86-64). Keyframe decisions alone
// could hide a cost drift that flips no decision; these pin every bit, for
// a serial and for a pooled analyzer.
struct CostGoldenCase {
  int width, height;
  std::uint64_t seed;
  std::uint64_t hash;
};
constexpr CostGoldenCase kCostGoldenCases[] = {
    {320, 240, 5, 0x37BBDED13A29D9A0ull},
    {160, 120, 6, 0x81D601C444618C08ull},
    {90, 70, 7, 0xFA07AFD74EC88AD9ull},  // half-res 45x35: partial blocks on both axes
};

std::uint64_t HashCosts(const std::vector<FrameCost>& costs) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const FrameCost& c : costs) {
    for (const double v : {c.intra_cost, c.inter_cost}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xFF;
        h *= 0x100000001B3ull;
      }
    }
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(AnalysisGolden, CostBitsMatchRecordedHash) {
  runtime::ThreadPoolExecutor pool(3);
  for (const CostGoldenCase& gc : kCostGoldenCases) {
    synth::SceneConfig c;
    c.width = gc.width;
    c.height = gc.height;
    c.num_frames = 60;
    c.seed = gc.seed;
    c.mean_gap_seconds = 0.5;
    c.min_gap_seconds = 0.2;
    c.mean_dwell_seconds = 0.5;
    c.min_dwell_seconds = 0.3;
    const auto scene = synth::GenerateScene(c);
    for (runtime::Executor* exec :
         {static_cast<runtime::Executor*>(nullptr),
          static_cast<runtime::Executor*>(&pool)}) {
      FrameAnalyzer analyzer;
      analyzer.set_executor(exec);
      std::vector<FrameCost> costs;
      for (const auto& frame : scene.video.frames) {
        costs.push_back(analyzer.Push(frame));
      }
      EXPECT_EQ(Hex(HashCosts(costs)), Hex(gc.hash))
          << gc.width << "x" << gc.height
          << (exec != nullptr ? " pooled" : " serial");
    }
  }
}

TEST(Placement, FirstFrameAlwaysKeyframe) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, 0, 2});
  ASSERT_FALSE(keyframes.empty());
  EXPECT_TRUE(keyframes[0]);
}

TEST(Placement, GopBoundForcesKeyframes) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{50, 0, 2});
  std::size_t since = 0;
  for (std::size_t i = 0; i < keyframes.size(); ++i) {
    if (keyframes[i]) {
      since = 0;
    } else {
      ++since;
      EXPECT_LT(since, 50u) << "GOP bound violated at frame " << i;
    }
  }
}

TEST(Placement, MinKeyintEnforced) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, 400, 5});
  std::size_t last_key = 0;
  for (std::size_t i = 1; i < keyframes.size(); ++i) {
    if (keyframes[i]) {
      EXPECT_GE(i - last_key, 5u);
      last_key = i;
    }
  }
}

class ScenecutMonotonicity : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenecutMonotonicity, MoreScenecutMeansMoreKeyframes) {
  const auto scene = TestScene(GetParam(), 180);
  const auto costs = AnalyzeVideo(scene.video);
  std::size_t prev_count = 0;
  for (int sc : {0, 100, 200, 250, 300, 350, 400}) {
    const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, sc, 1});
    std::size_t count = 0;
    for (bool k : keyframes) count += k;
    EXPECT_GE(count, prev_count) << "scenecut " << sc;
    prev_count = count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenecutMonotonicity,
                         testing::Values(1, 2, 3, 4, 5, 11, 42));

TEST(Placement, Scenecut400SelectsEveryChangedFrame) {
  // At scenecut 400 the bias is 1: every frame whose (noise-deadzoned) inter
  // cost is nonzero must become an I-frame.
  const auto scene = TestScene(8, 60);
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, 400, 1});
  for (std::size_t i = 1; i < costs.size(); ++i) {
    EXPECT_EQ(keyframes[i], costs[i].inter_cost > 0.0) << "frame " << i;
  }
}

TEST(Placement, IsKeyframeStreamingContract) {
  FrameCost quiet{1000.0, 5.0};
  FrameCost busy{1000.0, 600.0};
  KeyframeParams params{250, 250, 2};
  EXPECT_TRUE(IsKeyframe(quiet, params, 0));    // first frame
  EXPECT_FALSE(IsKeyframe(quiet, params, 1));   // min keyint
  EXPECT_FALSE(IsKeyframe(quiet, params, 10));  // below threshold
  EXPECT_TRUE(IsKeyframe(busy, params, 10));    // above threshold
  EXPECT_TRUE(IsKeyframe(quiet, params, 250));  // GOP bound
}


TEST(MinKeyint, ExplicitValueWins) {
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{250, 40, 7}), 7);
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{5000, 40, 1}), 1);
}

TEST(MinKeyint, AutoIsGopTenthClamped) {
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{250, 40, 0}), 12);  // clamp high
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{100, 40, 0}), 10);
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{50, 40, 0}), 5);
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{10, 40, 0}), 2);    // clamp low
}

TEST(MinKeyint, AutoSuppressesBackToBackScenecuts) {
  const auto scene = TestScene(19, 120);
  const auto costs = AnalyzeVideo(scene.video);
  KeyframeParams params{100, 400, 0};  // auto -> 10
  const auto keyframes = PlaceKeyframes(costs, params);
  std::size_t last = 0;
  bool first = true;
  for (std::size_t i = 0; i < keyframes.size(); ++i) {
    if (!keyframes[i]) continue;
    if (!first) {
      EXPECT_GE(i - last, 10u) << "frame " << i;
    }
    last = i;
    first = false;
  }
}

}  // namespace
}  // namespace sieve::codec
