#include "workload_cache.h"

#include <gtest/gtest.h>

namespace sieve::bench {
namespace {

core::VideoWorkload SampleWorkload() {
  core::VideoWorkload w;
  w.name = "jackson";
  w.fps = 29.97;
  w.total_frames = 432000;
  w.tuned.gop_size = 1200;
  w.tuned.scenecut = 85;
  w.semantic_iframes = 2890;
  w.semantic_bytes = 512345678;
  w.default_bytes = 456789012;
  w.uniform_selected = 2890;
  w.mse_selected = 7700;
  w.still_bytes = 18234;
  return w;
}

TEST(WorkloadCache, RoundTripsEveryField) {
  const core::VideoWorkload a = SampleWorkload();
  core::VideoWorkload b = SampleWorkload();
  b.name = "coral";
  b.fps = 30;
  b.tuned.scenecut = 0;
  const std::vector<core::VideoWorkload> written = {a, b};
  const auto parsed = ParseWorkloads(SerializeWorkloads(written));
  ASSERT_EQ(parsed.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    const core::VideoWorkload& in = written[i];
    const core::VideoWorkload& out = parsed[i];
    EXPECT_EQ(out.name, in.name);
    EXPECT_DOUBLE_EQ(out.fps, in.fps);
    EXPECT_EQ(out.total_frames, in.total_frames);
    EXPECT_EQ(out.tuned.gop_size, in.tuned.gop_size);
    EXPECT_EQ(out.tuned.scenecut, in.tuned.scenecut);
    EXPECT_EQ(out.semantic_iframes, in.semantic_iframes);
    EXPECT_EQ(out.semantic_bytes, in.semantic_bytes);
    EXPECT_EQ(out.default_bytes, in.default_bytes);
    EXPECT_EQ(out.uniform_selected, in.uniform_selected);
    EXPECT_EQ(out.mse_selected, in.mse_selected);
    EXPECT_EQ(out.still_bytes, in.still_bytes);
  }
}

TEST(WorkloadCache, RejectsStaleFifteenFieldLine) {
  // The earlier cache format also stored width, height, the summed I-frame
  // payload and the default encoding's I-frame count. Read as the current
  // format, its values would land in the wrong fields.
  const std::string stale =
      "# name w h fps total tuned_gop tuned_sc sem_if sem_bytes sem_if_bytes "
      "def_bytes def_if uniform mse still\n"
      "jackson 1920 1080 30 432000 1200 85 2890 512345678 61234567 "
      "456789012 1728 2890 7700 18234\n";
  EXPECT_TRUE(ParseWorkloads(stale).empty());
  // One stale line among current ones still rejects the whole cache.
  const std::string mixed = SerializeWorkloads({SampleWorkload()}) +
                            stale.substr(stale.find('\n') + 1);
  EXPECT_TRUE(ParseWorkloads(mixed).empty());
  // So does a line with fields missing.
  EXPECT_TRUE(ParseWorkloads("jackson 30 432000 1200\n").empty());
}

}  // namespace
}  // namespace sieve::bench
