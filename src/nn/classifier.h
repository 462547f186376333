// The reference object-detection NN substitute.
//
// The paper treats YOLOv3 as a black box that maps a decompressed frame to
// a set of object labels at a fixed per-frame cost. We reproduce that
// contract with a seeded CNN backbone producing an embedding plus a
// nearest-centroid head calibrated on labelled training frames: calibration
// computes one centroid per label set seen in training; prediction embeds
// the frame and returns the nearest centroid's label set. On the synthetic
// datasets (distinct class silhouettes/chroma) this yields near-oracle
// labels. It is a ~1 ms CNN, not YOLOv3's ~1 s edge forward, which is why
// Figure 4's placement ordering differs from the paper (docs/placement.md).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "media/frame.h"
#include "nn/network.h"
#include "synth/ground_truth.h"
#include "synth/labels.h"

namespace sieve::nn {

struct ClassifierParams {
  int input_size = 96;       ///< frames resized to input_size^2 (even)
  int embedding_dim = 64;
  std::uint64_t seed = 0x51E5Eull;  // "SiEVE"
};

/// Embedding-based frame classifier with centroid calibration.
///
/// Const-thread-safe once fitted: Embed/Predict/Evaluate only read the
/// network and centroids (conv scratch is thread-local inside the layers),
/// so one instance may serve every runtime session concurrently. Fit() is a
/// mutation and must not race with predictions.
class FrameClassifier {
 public:
  explicit FrameClassifier(ClassifierParams params = {});

  /// Build the network input tensor for a frame (resize + YUV->3-channel
  /// float). This is the first half of Embed; the runtime's edge tier uses
  /// it to start a split forward pass (network().ForwardPrefix).
  Tensor InputTensor(const media::Frame& frame) const;

  /// Embed one frame (resize + YUV->3-channel float + backbone).
  std::vector<float> Embed(const media::Frame& frame) const;

  /// The centroid match alone: label set nearest to an already-computed
  /// embedding. Predict(frame) == PredictFromEmbedding(Embed(frame)); the
  /// runtime's cloud tier calls this after finishing a split forward pass
  /// (network().ForwardSuffix on a received activation).
  Expected<synth::LabelSet> PredictFromEmbedding(
      const std::vector<float>& embedding) const;

  /// Calibrate centroids from labelled frames. `stride` subsamples the
  /// training video (every stride-th frame) to bound calibration cost.
  Status Fit(const std::vector<media::Frame>& frames,
             const synth::GroundTruth& truth, std::size_t stride = 10);

  /// Predict the label set of a frame (empty LabelSet when the scene is
  /// empty). Requires Fit() first.
  Expected<synth::LabelSet> Predict(const media::Frame& frame) const;

  bool fitted() const noexcept { return !centroids_.empty(); }
  std::size_t centroid_count() const noexcept { return centroids_.size(); }
  const Network& network() const noexcept { return network_; }

  /// Classification accuracy over a labelled video (every stride-th frame).
  double Evaluate(const std::vector<media::Frame>& frames,
                  const synth::GroundTruth& truth,
                  std::size_t stride = 10) const;

 private:
  ClassifierParams params_;
  Network network_;
  std::map<std::uint8_t, std::vector<float>> centroids_;  // label bits -> centroid
};

}  // namespace sieve::nn
