#include "core/placements.h"

#include <gtest/gtest.h>

namespace sieve::core {
namespace {

/// A hand-built workload so placement math is exactly checkable.
VideoWorkload TestWorkload() {
  VideoWorkload w;
  w.name = "test";
  w.fps = 30;
  w.total_frames = 100000;
  w.semantic_iframes = 2000;        // 2%
  w.semantic_bytes = 500000000;     // 500 MB
  w.default_bytes = 450000000;      // semantic is ~11% larger
  w.uniform_selected = 2000;
  w.mse_selected = 5000;            // 2.5x the I-frames
  w.still_bytes = 20000;            // 20 KB per shipped frame
  return w;
}

TEST(Placements, NamesAreStable) {
  EXPECT_STREQ(PlacementName(Placement::kIFrameEdgeCloudNN),
               "I-frame edge + cloud NN");
  EXPECT_STREQ(PlacementName(Placement::kMseEdgeCloudNN), "MSE edge + cloud NN");
}

TEST(Placements, SemanticEncodingUsage) {
  EXPECT_TRUE(UsesSemanticEncoding(Placement::kIFrameEdgeCloudNN));
  EXPECT_TRUE(UsesSemanticEncoding(Placement::kIFrameCloudCloudNN));
  EXPECT_TRUE(UsesSemanticEncoding(Placement::kIFrameEdgeEdgeNN));
  EXPECT_FALSE(UsesSemanticEncoding(Placement::kUniformEdgeCloudNN));
  EXPECT_FALSE(UsesSemanticEncoding(Placement::kMseEdgeCloudNN));
}

TEST(Transfer, CameraToEdgeCarriesWholeStream) {
  const VideoWorkload w = TestWorkload();
  const std::vector<VideoWorkload> ws{w};
  const auto semantic = ComputeTransfer(Placement::kIFrameEdgeCloudNN, ws);
  const auto fallback = ComputeTransfer(Placement::kUniformEdgeCloudNN, ws);
  EXPECT_EQ(semantic.camera_to_edge_bytes, w.semantic_bytes);
  EXPECT_EQ(fallback.camera_to_edge_bytes, w.default_bytes);
  EXPECT_GT(semantic.camera_to_edge_bytes, fallback.camera_to_edge_bytes)
      << "semantic streams carry more I-frames (the paper's 12% overhead)";
}

TEST(Transfer, EdgeToCloudPerPlacement) {
  const VideoWorkload w = TestWorkload();
  const std::vector<VideoWorkload> ws{w};
  EXPECT_EQ(ComputeTransfer(Placement::kIFrameEdgeCloudNN, ws).edge_to_cloud_bytes,
            2000u * 20000u);
  EXPECT_EQ(
      ComputeTransfer(Placement::kIFrameCloudCloudNN, ws).edge_to_cloud_bytes,
      w.semantic_bytes);
  EXPECT_EQ(ComputeTransfer(Placement::kIFrameEdgeEdgeNN, ws).edge_to_cloud_bytes,
            0u);
  EXPECT_EQ(
      ComputeTransfer(Placement::kUniformEdgeCloudNN, ws).edge_to_cloud_bytes,
      2000u * 20000u);
  EXPECT_EQ(ComputeTransfer(Placement::kMseEdgeCloudNN, ws).edge_to_cloud_bytes,
            5000u * 20000u);
}

TEST(Transfer, MseTransfersMoreThanIFrames) {
  const std::vector<VideoWorkload> ws{TestWorkload()};
  const auto iframe = ComputeTransfer(Placement::kIFrameEdgeCloudNN, ws);
  const auto mse = ComputeTransfer(Placement::kMseEdgeCloudNN, ws);
  EXPECT_NEAR(double(mse.edge_to_cloud_bytes) / double(iframe.edge_to_cloud_bytes),
              2.5, 0.01);
}

TEST(Transfer, EdgeToCloudMuchSmallerThanInput) {
  // The paper's 7x reduction claim shape.
  const std::vector<VideoWorkload> ws{TestWorkload()};
  const auto r = ComputeTransfer(Placement::kIFrameEdgeCloudNN, ws);
  EXPECT_GT(double(r.camera_to_edge_bytes) / double(r.edge_to_cloud_bytes), 4.0);
}

TEST(Transfer, MultipleWorkloadsAccumulate) {
  const std::vector<VideoWorkload> ws{TestWorkload(), TestWorkload()};
  const auto r = ComputeTransfer(Placement::kIFrameEdgeCloudNN, ws);
  EXPECT_EQ(r.edge_to_cloud_bytes, 2u * 2000u * 20000u);
}

TEST(Workload, BuildFromJacksonProbe) {
  // Full workload construction on a small probe of the cheapest dataset.
  WorkloadOptions options;
  options.probe_frames = 180;
  options.target_frames = 36000;  // extrapolate 200x
  options.seed = 3;
  auto w = BuildWorkload(synth::DatasetId::kJacksonSquare, options);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->total_frames, 36000u);
  EXPECT_GT(w->semantic_iframes, 0u);
  EXPECT_LT(w->semantic_iframes, w->total_frames / 10);
  EXPECT_GT(w->semantic_bytes, 0u);
  EXPECT_GT(w->default_bytes, 0u);
  EXPECT_GT(w->still_bytes, 1000u);
  EXPECT_EQ(w->uniform_selected, w->semantic_iframes);
  EXPECT_GE(w->mse_selected, 1u);
  EXPECT_GT(w->tuned.scenecut + w->tuned.gop_size, 0);
}

}  // namespace
}  // namespace sieve::core
