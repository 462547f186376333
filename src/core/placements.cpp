#include "core/placements.h"

#include <algorithm>
#include <cmath>

#include "codec/encoder.h"
#include "codec/still.h"
#include "core/detectors.h"
#include "media/image_ops.h"
#include "synth/scene.h"
#include "vision/similarity.h"

namespace sieve::core {

const char* PlacementName(Placement p) noexcept {
  switch (p) {
    case Placement::kIFrameEdgeCloudNN: return "I-frame edge + cloud NN";
    case Placement::kIFrameCloudCloudNN: return "I-frame cloud + cloud NN";
    case Placement::kIFrameEdgeEdgeNN: return "I-frame edge + edge NN";
    case Placement::kUniformEdgeCloudNN: return "Uniform sampling edge + cloud NN";
    case Placement::kMseEdgeCloudNN: return "MSE edge + cloud NN";
  }
  return "unknown";
}

bool UsesSemanticEncoding(Placement p) noexcept {
  return p == Placement::kIFrameEdgeCloudNN ||
         p == Placement::kIFrameCloudCloudNN ||
         p == Placement::kIFrameEdgeEdgeNN;
}

namespace {

/// MSE threshold per Section V-B ("the threshold ... that achieves an
/// F1-score of 95% in the training set"): the *loosest sampling* (highest
/// threshold, fewest selections) whose training F1 still meets the target;
/// falls back to the max-F1 threshold when the target is unreachable.
double CalibrateMseThresholdForF1(const std::vector<double>& signal,
                                  const synth::GroundTruth& truth,
                                  double target_f1) {
  // Candidate thresholds: the distinct signal values (selection changes only
  // at these points). Evaluate a capped, evenly spaced subset.
  std::vector<double> sorted(signal.begin() + 1, signal.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  constexpr std::size_t kMaxCandidates = 160;
  const std::size_t step = std::max<std::size_t>(1, sorted.size() / kMaxCandidates);

  double best_ok_threshold = -1.0;
  double best_f1_threshold = -1.0, best_f1 = -1.0;
  for (std::size_t i = 0; i < sorted.size(); i += step) {
    const double threshold = sorted[i];
    const auto selected = vision::SelectByThreshold(signal, threshold);
    const DetectionQuality q = EvaluateSelection(truth, selected);
    if (q.f1 >= target_f1 && threshold > best_ok_threshold) {
      best_ok_threshold = threshold;
    }
    if (q.f1 > best_f1) {
      best_f1 = q.f1;
      best_f1_threshold = threshold;
    }
  }
  return best_ok_threshold >= 0 ? best_ok_threshold : best_f1_threshold;
}

std::size_t AutoProbeFrames(const synth::SceneConfig& config) {
  // Cover ~6 full event cycles so I-frame and selection rates are stable.
  const double cycle_s = config.mean_gap_seconds + config.mean_dwell_seconds +
                         2.0 * config.ramp_seconds;
  const double frames = 6.0 * cycle_s * config.fps;
  return std::size_t(std::clamp(frames, 900.0, 3600.0));
}

std::size_t Extrapolate(std::size_t probe_value, double scale) {
  return std::size_t(std::llround(double(probe_value) * scale));
}

}  // namespace

Expected<VideoWorkload> BuildWorkload(synth::DatasetId id,
                                      const WorkloadOptions& options) {
  const synth::DatasetSpec& spec = synth::GetDatasetSpec(id);
  VideoWorkload w;
  w.name = spec.name;
  w.fps = spec.fps;

  synth::SceneConfig config = synth::MakeDatasetConfig(id, 0, options.seed);
  const std::size_t probe_frames =
      options.probe_frames ? options.probe_frames : AutoProbeFrames(config);
  config.num_frames = probe_frames;
  // Downscale probe geometry (object scale is relative; event structure and
  // selection rates are unchanged; bytes extrapolate by pixel ratio).
  double pixel_scale = 1.0;
  if (options.max_probe_width > 0 && config.width > options.max_probe_width) {
    const double shrink = double(options.max_probe_width) / config.width;
    const int pw = (int(config.width * shrink) / 2) * 2;
    const int ph = (int(config.height * shrink) / 2) * 2;
    pixel_scale = double(spec.width) * spec.height / (double(pw) * ph);
    config.width = pw;
    config.height = ph;
  }

  w.total_frames = options.target_frames
                       ? options.target_frames
                       : std::size_t(4.0 * 3600.0 * spec.fps);  // 4h eval slice
  const double scale = double(w.total_frames) / double(probe_frames);
  const double byte_scale = scale * pixel_scale;

  const synth::SyntheticVideo video = synth::GenerateScene(config);
  const std::vector<codec::FrameCost> costs = codec::AnalyzeVideo(video.video);

  // --- Tuned semantic parameters -----------------------------------------
  if (spec.has_labels) {
    const TuningResult tuned = TuneFromCosts(costs, video.truth, options.grid);
    w.tuned.gop_size = tuned.best.gop_size;
    w.tuned.scenecut = tuned.best.scenecut;
  } else {
    // Fixed 1 I-frame per 5 seconds (Section V-B's unlabeled-feed setting).
    w.tuned.gop_size =
        std::max(1, int(spec.fps * options.unlabeled_iframe_period_s));
    w.tuned.scenecut = 0;
  }

  // --- Real encodes: semantic and default ---------------------------------
  codec::EncoderParams semantic_params;
  semantic_params.keyframe = w.tuned;
  auto semantic = codec::VideoEncoder(semantic_params).Encode(video.video);
  if (!semantic.ok()) return semantic.status();
  auto fallback = codec::VideoEncoder(codec::EncoderParams::DefaultEncoding())
                      .Encode(video.video);
  if (!fallback.ok()) return fallback.status();

  w.semantic_iframes = Extrapolate(semantic->IntraFrameCount(), scale);
  w.semantic_bytes = Extrapolate(semantic->bytes.size(), byte_scale);
  w.default_bytes = Extrapolate(fallback->bytes.size(), byte_scale);
  w.uniform_selected = w.semantic_iframes;  // equal transfer budget (paper)

  // --- MSE selection on the raw frames ------------------------------------
  const std::vector<double> mse_signal =
      vision::MseChangeSignal(video.video.frames);
  std::size_t probe_mse_selected;
  if (spec.has_labels) {
    const double threshold = CalibrateMseThresholdForF1(mse_signal, video.truth,
                                                        options.mse_target_f1);
    probe_mse_selected = vision::SelectByThreshold(mse_signal, threshold).size();
  } else {
    probe_mse_selected = std::max<std::size_t>(
        1, std::size_t(double(probe_frames) /
                       (spec.fps * options.unlabeled_iframe_period_s)));
  }
  w.mse_selected = Extrapolate(probe_mse_selected, scale);

  // --- Transfer unit: resized still ---------------------------------------
  // Pick an occupied frame (middle of the busiest event) so the still has
  // representative content.
  std::size_t sample_frame = probe_frames / 2;
  for (const auto& event : video.truth.Events()) {
    if (!event.labels.empty()) {
      sample_frame = (event.start + event.end) / 2;
      break;
    }
  }
  const media::Frame still_input =
      media::ResizeFrame(video.video.frames[sample_frame], 300, 300);
  w.still_bytes = codec::EncodeStill(still_input).size();

  return w;
}

TransferReport ComputeTransfer(Placement placement,
                               std::span<const VideoWorkload> workloads) {
  TransferReport report;
  report.placement = placement;
  for (const auto& w : workloads) {
    // Camera -> edge always carries the whole encoded stream.
    report.camera_to_edge_bytes +=
        UsesSemanticEncoding(placement) ? w.semantic_bytes : w.default_bytes;
    switch (placement) {
      case Placement::kIFrameEdgeCloudNN:
        report.edge_to_cloud_bytes +=
            std::uint64_t(w.semantic_iframes) * w.still_bytes;
        break;
      case Placement::kIFrameCloudCloudNN:
        report.edge_to_cloud_bytes += w.semantic_bytes;
        break;
      case Placement::kIFrameEdgeEdgeNN:
        break;  // nothing leaves the edge
      case Placement::kUniformEdgeCloudNN:
        report.edge_to_cloud_bytes +=
            std::uint64_t(w.uniform_selected) * w.still_bytes;
        break;
      case Placement::kMseEdgeCloudNN:
        report.edge_to_cloud_bytes +=
            std::uint64_t(w.mse_selected) * w.still_bytes;
        break;
    }
  }
  return report;
}

}  // namespace sieve::core
