// Figure 3: per-frame object-detection accuracy vs percentage of sampled
// frames, for SiEVE / SIFT / MSE on the labelled datasets (Jackson square,
// Coral reef; Venice summarized in text, included here as a third block).
//
// Protocol (Section V-A): for each dataset, the first half of the footage
// tunes SiEVE's (GOP, scenecut) grid; each grid cell yields one operating
// point (sampling %, accuracy) on the evaluation half. The baselines'
// thresholds are then calibrated to match each SiEVE sampling rate, and
// accuracy is compared at equal sampling budgets.
//
// Geometry is downscaled from the native resolutions (object scale is
// relative, so event/motion structure is preserved); durations are scaled
// from the paper's 4h+4h to minutes. Shape targets: SiEVE dominates both
// baselines per dataset; SIFT > MSE on the close-up Jackson feed; MSE >
// SIFT on the small-object Coral/Venice feeds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "codec/analysis.h"
#include "core/detectors.h"
#include "core/metrics.h"
#include "core/tuner.h"
#include "synth/datasets.h"
#include "vision/similarity.h"

namespace {

using namespace sieve;

struct OperatingPoint {
  double sampling_pct;
  double acc_sieve;
  double acc_sift;
  double acc_mse;
};

void RunDataset(synth::DatasetId id, std::size_t frames, int max_width) {
  const auto& spec = synth::GetDatasetSpec(id);
  synth::SceneConfig train_cfg = synth::MakeDatasetConfig(id, frames, 1);
  // Downscale geometry, preserving aspect and relative object scale.
  if (train_cfg.width > max_width) {
    const double s = double(max_width) / train_cfg.width;
    train_cfg.width = (int(train_cfg.width * s) / 2) * 2;
    train_cfg.height = (int(train_cfg.height * s) / 2) * 2;
  }
  synth::SceneConfig test_cfg = train_cfg;
  test_cfg.seed += 7777;  // unseen future traffic from the same camera

  const auto train = synth::GenerateScene(train_cfg);
  const auto test = synth::GenerateScene(test_cfg);
  const auto test_costs = codec::AnalyzeVideo(test.video);

  std::fprintf(stderr, "[fig3] %s: train events=%zu test events=%zu\n",
               spec.name.c_str(), train.truth.Events().size(),
               test.truth.Events().size());

  // Baseline change signals on the evaluation half.
  const auto mse_signal = vision::MseChangeSignal(test.video.frames);
  vision::SiftParams sift_params;
  sift_params.max_octaves = 3;
  sift_params.max_keypoints = 250;
  const auto sift_signal = vision::SiftChangeSignal(test.video.frames, sift_params);

  // SiEVE operating points: sweep the tuner grid, dedupe by sampling rate.
  core::TunerGrid grid = core::TunerGrid::Extended();
  grid.gop_sizes = {100, 250, 500, 1000, 5000};
  std::map<int, OperatingPoint> points;  // key: rounded per-mille sampling
  for (int gop : grid.gop_sizes) {
    for (int sc : grid.scenecuts) {
      const codec::KeyframeParams params{gop, sc, 2};
      const core::Selection sieve = core::SelectSieve(test_costs, params);
      const auto q = core::EvaluateSelection(test.truth, sieve.frames);
      const double pct = q.sample_rate * 100.0;
      if (pct < 0.2 || pct > 4.0) continue;  // the paper's 0.5%-3.5% band
      const int key = int(pct * 10.0);
      if (points.contains(key)) continue;

      const core::Selection mse = core::SelectBySignal(
          core::DetectorKind::kMse, mse_signal, sieve.frames.size());
      const core::Selection sift = core::SelectBySignal(
          core::DetectorKind::kSift, sift_signal, sieve.frames.size());
      OperatingPoint op;
      op.sampling_pct = pct;
      op.acc_sieve = q.accuracy;
      op.acc_mse = core::EvaluateSelection(test.truth, mse.frames).accuracy;
      op.acc_sift = core::EvaluateSelection(test.truth, sift.frames).accuracy;
      points[key] = op;
    }
  }

  std::printf("\n=== Figure 3: %s (%s, scaled to %dx%d, %zu eval frames) ===\n",
              spec.name.c_str(), spec.description.c_str(), test_cfg.width,
              test_cfg.height, test.truth.frame_count());
  std::printf("%-12s %-10s %-10s %-10s\n", "sampled_%", "SiEVE", "SIFT", "MSE");
  double sum_sieve = 0, sum_sift = 0, sum_mse = 0;
  for (const auto& [key, op] : points) {
    std::printf("%-12.2f %-10.4f %-10.4f %-10.4f\n", op.sampling_pct,
                op.acc_sieve, op.acc_sift, op.acc_mse);
    sum_sieve += op.acc_sieve;
    sum_sift += op.acc_sift;
    sum_mse += op.acc_mse;
  }
  if (!points.empty()) {
    const double n = double(points.size());
    std::printf("mean         %-10.4f %-10.4f %-10.4f   "
                "(SiEVE - SIFT = %+.1f%%, SiEVE - MSE = %+.1f%%)\n",
                sum_sieve / n, sum_sift / n, sum_mse / n,
                (sum_sieve - sum_sift) / n * 100.0,
                (sum_sieve - sum_mse) / n * 100.0);
  }
  // Each dataset takes minutes: make its table visible as soon as it is
  // done, also when stdout is a pipe or file (block-buffered).
  std::fflush(stdout);
}

}  // namespace

int main() {
  std::printf("SiEVE reproduction — Figure 3: accuracy at matched sampling "
              "rates (SiEVE vs SIFT vs MSE)\n");
  RunDataset(synth::DatasetId::kJacksonSquare, 1500, 480);
  RunDataset(synth::DatasetId::kCoralReef, 1500, 480);
  RunDataset(synth::DatasetId::kVenice, 1800, 480);
  return 0;
}
