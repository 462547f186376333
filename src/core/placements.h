// The five end-to-end placements of Section V-B, with exact byte accounting
// (Figure 5). Figure 4's throughput is measured on runtime::Runtime itself
// (bench/fig4_throughput.cpp), not modelled here.
//
// Workloads are built by really rendering + encoding a probe slice of each
// dataset with this library's codec, measuring every byte and selection
// count, then extrapolating linearly to the paper's frame counts (the probe
// is i.i.d. in time, so counts and bytes scale with duration).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "core/tuner.h"
#include "synth/datasets.h"

namespace sieve::core {

/// The five baselines of Figure 4/5, in the paper's order.
enum class Placement {
  kIFrameEdgeCloudNN = 0,  ///< 3-tier: seek+decode at edge, NN at cloud
  kIFrameCloudCloudNN = 1, ///< 2-tier: full video to cloud, all work there
  kIFrameEdgeEdgeNN = 2,   ///< 2-tier: everything at the edge
  kUniformEdgeCloudNN = 3, ///< decode all + uniform sampling at edge, NN cloud
  kMseEdgeCloudNN = 4,     ///< decode all + MSE threshold at edge, NN cloud
};

inline constexpr int kNumPlacements = 5;
const char* PlacementName(Placement p) noexcept;

/// Whether the placement consumes the semantically encoded stream (the
/// first three) or the default-encoded stream (uniform, MSE).
bool UsesSemanticEncoding(Placement p) noexcept;

/// Everything the end-to-end model needs to know about one camera feed,
/// measured on a probe slice and extrapolated to `total_frames`.
struct VideoWorkload {
  std::string name;
  double fps = 30.0;
  std::size_t total_frames = 0;

  // Semantic encoding (tuned parameters).
  codec::KeyframeParams tuned;
  std::size_t semantic_iframes = 0;
  std::size_t semantic_bytes = 0;  ///< whole semantic container

  // Default encoding (GOP 250 / scenecut 40).
  std::size_t default_bytes = 0;

  // Baseline selections on the default-encoded stream.
  std::size_t uniform_selected = 0;  ///< == semantic_iframes (fair budget)
  std::size_t mse_selected = 0;      ///< MSE threshold calibrated on training

  // Transfer unit: a selected frame resized to 300x300 and still-encoded.
  std::size_t still_bytes = 0;
};

struct WorkloadOptions {
  std::size_t probe_frames = 0;  ///< 0 = auto (covers several event cycles)
  std::size_t target_frames = 0; ///< 0 = the paper's 4h at dataset fps
  /// Probes at full 1080p are needlessly slow; geometry is downscaled so the
  /// probe width is at most this (object scale is relative, so event
  /// behaviour is unchanged) and byte counts are extrapolated by the pixel
  /// ratio (bits/pixel is stable across scales for this codec). 0 disables
  /// downscaling.
  int max_probe_width = 480;
  std::uint64_t seed = 1;
  /// Unlabeled feeds (Taipei, Amsterdam) use a fixed 1-frame-per-5s I rate,
  /// exactly as Section V-B prescribes.
  double unlabeled_iframe_period_s = 5.0;
  /// Labeled feeds calibrate the MSE threshold to reach this F1 on training
  /// data (Section V-B: "F1-score of 95% in the training set").
  double mse_target_f1 = 0.95;
  TunerGrid grid = TunerGrid::Extended();
};

/// Build a workload by rendering, tuning, and encoding a probe slice of the
/// dataset, then extrapolating to target_frames.
Expected<VideoWorkload> BuildWorkload(synth::DatasetId id,
                                      const WorkloadOptions& options = {});

/// Data-transfer accounting (Figure 5): bytes crossing each hop.
struct TransferReport {
  Placement placement;
  std::uint64_t camera_to_edge_bytes = 0;
  std::uint64_t edge_to_cloud_bytes = 0;
};
TransferReport ComputeTransfer(Placement placement,
                               std::span<const VideoWorkload> workloads);

}  // namespace sieve::core
