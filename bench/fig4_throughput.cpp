// Figure 4: end-to-end throughput (processed frames per second) of the five
// placements on 1, 3 and 5 concurrent videos, measured on this system.
//
// Each video is a pre-encoded, downscaled dataset clip the edge already
// stores (post-event analysis), replayed by one session through
// PushEncoded. The three semantic placements run on runtime::Runtime
// itself, chosen by configuration alone:
//   3-tier      kCloud: seek + decode at the edge, NN in the cloud
//   edge-only   kEdge: everything at the edge, nothing crosses the WAN
//   cloud-only  kEdge with camera_to_edge = the WAN model: the whole video
//               crosses the WAN and the tiers behind it do all the work
// 3-tier and edge-only read the clip over a zero-cost hop (kStoredAtEdge).
// Every run uses the paper's worker counts (2 workers per edge stage, 4 per
// cloud stage: WAN senders and cloud NN) and real-time link waits
// (link_time_scale = 1). fps = frames pushed / wall time from the
// first open to the last drain.
//
// The decode-all baselines (uniform sampling, MSE) decode every frame of
// the default-encoded clip with codec::VideoDecoder, run their selector on
// every frame and classify the selected frames, on the edge's 2 workers.
// Their selected frames cross no WAN.
//
// Exit status is nonzero only for a wrong result: a session ledger that
// does not reconcile, a dropped frame, or semantic placements writing
// different databases for one clip. The paper's shape checks are printed
// PASS/FAIL and never set the exit status. docs/placement.md explains the
// measured ordering.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "codec/analysis.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "common/stopwatch.h"
#include "core/detectors.h"
#include "core/placements.h"
#include "core/tuner.h"
#include "nn/classifier.h"
#include "runtime/runtime.h"
#include "synth/datasets.h"

namespace {

using namespace sieve;
using core::Placement;

/// Cloud-only waits one 20 ms WAN RTT per frame, so the clip length sets
/// most of the run time (~12 s per cloud-only run).
constexpr std::size_t kClipFrames = 600;
constexpr int kClipWidth = 160;
constexpr int kEdgeWorkers = 2;
constexpr int kCloudWorkers = 4;  ///< WAN senders and cloud-NN workers
constexpr std::size_t kVideoCounts[] = {1, 3, 5};
/// The hop from the edge's own storage: no serialization, no RTT.
constexpr net::LinkModel kStoredAtEdge{
    std::numeric_limits<double>::infinity(), 0.0};

using Rows = std::map<std::size_t, synth::LabelSet>;

/// One dataset clip, encoded both ways, with the MSE threshold and the
/// database every semantic run of it must write.
struct Clip {
  std::string name;
  codec::EncodedVideo semantic;
  codec::EncodedVideo fallback;  ///< default encoding, for the baselines
  double mse_threshold = 0.0;    ///< selects as many frames as SiEVE does
  std::optional<Rows> rows;      ///< the first semantic run's database
};

/// Render dataset `id` downscaled to kClipWidth with its events packed
/// close together (a clip is seconds long, the datasets' gaps are up to
/// 18 s), pick its keyframe parameters like core::BuildWorkload, and
/// encode it both ways.
Expected<Clip> MakeClip(synth::DatasetId id, std::vector<media::Frame>* fit,
                        std::vector<synth::LabelSet>* fit_truth) {
  const synth::DatasetSpec& spec = synth::GetDatasetSpec(id);
  synth::SceneConfig config = synth::MakeDatasetConfig(id, kClipFrames, 1);
  config.width = kClipWidth;
  config.height = (kClipWidth * spec.height / spec.width) / 2 * 2;
  config.mean_gap_seconds = 1.0;
  config.min_gap_seconds = 0.5;
  config.mean_dwell_seconds = 1.5;
  config.min_dwell_seconds = 0.8;
  const synth::SyntheticVideo video = synth::GenerateScene(config);

  const core::WorkloadOptions policy;
  int gop_size = int(spec.fps * policy.unlabeled_iframe_period_s);
  int scenecut = 0;
  if (spec.has_labels) {
    const core::TuningResult tuned = core::TuneFromCosts(
        codec::AnalyzeVideo(video.video), video.truth, policy.grid);
    gop_size = tuned.best.gop_size;
    scenecut = tuned.best.scenecut;
  }
  auto semantic =
      codec::VideoEncoder(codec::EncoderParams::Semantic(gop_size, scenecut))
          .Encode(video.video);
  if (!semantic.ok()) return semantic.status();
  auto fallback = codec::VideoEncoder(codec::EncoderParams::DefaultEncoding())
                      .Encode(video.video);
  if (!fallback.ok()) return fallback.status();

  // Calibrate MSE on the decoded default stream the baseline will see.
  auto decoder = codec::VideoDecoder::Open(fallback->bytes);
  if (!decoder.ok()) return decoder.status();
  std::vector<media::Frame> decoded;
  while (!decoder->AtEnd()) {
    auto frame = decoder->DecodeNext();
    if (!frame.ok()) return frame.status();
    decoded.push_back(std::move(*frame));
  }
  Clip clip;
  clip.name = spec.name;
  clip.mse_threshold =
      core::SelectBySignal(core::DetectorKind::kMse,
                           vision::MseChangeSignal(decoded),
                           semantic->IntraFrameCount())
          .threshold;
  clip.semantic = std::move(*semantic);
  clip.fallback = std::move(*fallback);
  // Every 6th frame of every clip calibrates the one shared classifier.
  for (std::size_t f = 0; f < kClipFrames; f += 6) {
    fit->push_back(video.video.frames[f]);
    fit_truth->push_back(video.truth.label(f));
  }
  return clip;
}

struct Run {
  double fps = 0.0;
  double wall_s = 0.0;
  std::size_t frames = 0;
  std::size_t nn_frames = 0;  ///< frames that reached the classifier
  std::uint64_t camera_to_edge_bytes = 0;
  std::uint64_t edge_to_cloud_bytes = 0;
};

/// Replay clips [0, videos) concurrently through one Runtime. Returns
/// nullopt, after printing why, when any result is wrong.
std::optional<Run> RunSemantic(Placement placement, std::size_t videos,
                               std::vector<Clip>& clips,
                               const nn::FrameClassifier& classifier) {
  runtime::RuntimeConfig config;
  config.default_placement = placement == Placement::kIFrameEdgeCloudNN
                                 ? runtime::PlacementMode::kCloud
                                 : runtime::PlacementMode::kEdge;
  // The clip is a recording the edge already stores: where the tiers sit
  // with it, its hop costs nothing; cloud-only ships it over the WAN.
  config.camera_to_edge = placement == Placement::kIFrameCloudCloudNN
                              ? net::LinkModel::Wan()
                              : kStoredAtEdge;
  config.link_time_scale = 1.0;
  config.edge_parallelism = kEdgeWorkers;
  config.cloud_parallelism = kCloudWorkers;
  runtime::Runtime rt(config, &classifier);

  Stopwatch wall;
  std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
  for (std::size_t v = 0; v < videos; ++v) {
    const codec::ContainerHeader& header = clips[v].semantic.header;
    runtime::SessionConfig session;
    session.width = header.width;
    session.height = header.height;
    session.fps = header.fps;
    session.encoder.qp = header.qp;  // edge decode context
    auto opened = rt.OpenSession(clips[v].name, session);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", clips[v].name.c_str(),
                   opened.status().ToString().c_str());
      return std::nullopt;
    }
    sessions.push_back(std::move(*opened));
  }
  std::vector<runtime::SessionReport> reports(videos);
  std::vector<Status> pushed(videos);
  std::vector<std::thread> cameras;
  for (std::size_t v = 0; v < videos; ++v) {
    cameras.emplace_back([&, v] {
      const codec::EncodedVideo& video = clips[v].semantic;
      const std::span<const std::uint8_t> bytes(video.bytes);
      for (const codec::FrameRecord& r : video.records) {
        pushed[v] = sessions[v]->PushEncoded(
            r.type, r.index,
            bytes.subspan(r.payload_offset - codec::FrameRecord::kHeaderSize,
                          codec::FrameRecord::kHeaderSize + r.payload_size));
        if (!pushed[v].ok()) break;
      }
      reports[v] = sessions[v]->Drain();
    });
  }
  for (std::thread& t : cameras) t.join();
  Run run;
  run.wall_s = wall.ElapsedSeconds();
  if (auto stages = rt.Shutdown(); !stages.ok()) {
    std::fprintf(stderr, "shutdown: %s\n", stages.status().ToString().c_str());
    return std::nullopt;
  }

  bool correct = true;
  for (std::size_t v = 0; v < videos; ++v) {
    const runtime::SessionReport& r = reports[v];
    const std::size_t settled = r.frames_stored_edge + r.frames_delivered +
                                r.frames_dropped + r.frames_resumed;
    if (!pushed[v].ok() || r.frames_pushed != clips[v].semantic.records.size() ||
        r.frames_pushed != settled || r.frames_dropped != 0) {
      std::fprintf(stderr,
                   "%s %s: ledger does not reconcile (push %s, pushed %zu of "
                   "%zu, stored %zu + delivered %zu + dropped %zu + resumed "
                   "%zu)\n",
                   core::PlacementName(placement), clips[v].name.c_str(),
                   pushed[v].ToString().c_str(), r.frames_pushed,
                   clips[v].semantic.records.size(), r.frames_stored_edge,
                   r.frames_delivered, r.frames_dropped, r.frames_resumed);
      correct = false;
    }
    const Rows& rows = sessions[v]->db().rows();
    if (!clips[v].rows) clips[v].rows = rows;
    if (rows != *clips[v].rows) {
      std::fprintf(stderr, "%s %s: database differs from the first run's\n",
                   core::PlacementName(placement), clips[v].name.c_str());
      correct = false;
    }
    run.frames += r.frames_pushed;
    run.nn_frames += r.frames_delivered;
    run.camera_to_edge_bytes += r.camera_to_edge_bytes;
    run.edge_to_cloud_bytes += r.edge_to_cloud_bytes;
  }
  if (!correct) return std::nullopt;
  run.fps = double(run.frames) / run.wall_s;
  return run;
}

/// Decode every frame of clips [0, videos)' default encoding, select with
/// the placement's selector and classify the selection, on kEdgeWorkers
/// threads that each take whole videos. Returns nullopt, after printing
/// why, when a frame fails to decode or classify.
std::optional<Run> RunDecodeAll(Placement placement, std::size_t videos,
                                const std::vector<Clip>& clips,
                                const nn::FrameClassifier& classifier) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> decoded{0};
  std::atomic<std::size_t> nn_frames{0};
  std::atomic<bool> failed{false};
  Stopwatch wall;
  std::vector<std::thread> workers;
  for (int w = 0; w < std::min<int>(kEdgeWorkers, int(videos)); ++w) {
    workers.emplace_back([&] {
      for (std::size_t v = next++; v < videos; v = next++) {
        const Clip& clip = clips[v];
        const std::size_t frames = clip.fallback.records.size();
        const std::vector<std::size_t> uniform =
            core::SelectUniform(frames, clip.semantic.IntraFrameCount()).frames;
        core::OnlineSignalDetector mse(core::DetectorKind::kMse,
                                       clip.mse_threshold);
        auto decoder = codec::VideoDecoder::Open(clip.fallback.bytes);
        failed = failed || !decoder.ok();
        for (std::size_t f = 0; decoder.ok() && !decoder->AtEnd(); ++f) {
          auto frame = decoder->DecodeNext();
          if (!frame.ok()) break;
          ++decoded;
          const bool selected =
              placement == Placement::kMseEdgeCloudNN
                  ? mse.Push(*frame)
                  : std::binary_search(uniform.begin(), uniform.end(), f);
          if (!selected) continue;
          if (!classifier.Predict(*frame).ok()) failed = true;
          ++nn_frames;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  Run run;
  run.wall_s = wall.ElapsedSeconds();
  for (std::size_t v = 0; v < videos; ++v) {
    run.frames += clips[v].fallback.records.size();
  }
  if (failed || decoded != run.frames) {
    std::fprintf(stderr, "%s: decoded %zu of %zu frames%s\n",
                 core::PlacementName(placement), decoded.load(), run.frames,
                 failed ? ", a decode or classification failed" : "");
    return std::nullopt;
  }
  run.nn_frames = nn_frames;
  run.fps = double(run.frames) / run.wall_s;
  return run;
}

}  // namespace

int main() {
  std::printf("SiEVE reproduction — Figure 4: end-to-end throughput (fps), "
              "measured on runtime::Runtime\n");
  Stopwatch total;
  std::vector<Clip> clips;
  std::vector<media::Frame> fit;
  std::vector<synth::LabelSet> fit_truth;
  for (const synth::DatasetSpec& spec : synth::AllDatasetSpecs()) {
    auto clip = MakeClip(spec.id, &fit, &fit_truth);
    if (!clip.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   clip.status().ToString().c_str());
      return 1;
    }
    clips.push_back(std::move(*clip));
  }
  nn::FrameClassifier classifier;
  if (Status s = classifier.Fit(fit, synth::GroundTruth(std::move(fit_truth)), 1);
      !s.ok()) {
    std::fprintf(stderr, "classifier fit: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("clips: %zu frames each, %d px wide; workers: edge %d "
              "(transcode, NN), cloud %d (WAN, NN); "
              "link_time_scale 1; %u hardware threads\n",
              kClipFrames, kClipWidth, kEdgeWorkers, kCloudWorkers,
              std::thread::hardware_concurrency());
  for (const Clip& c : clips) {
    std::printf("  %-15s %dx%d  I-frames %zu  semantic %zu B  default %zu B\n",
                c.name.c_str(), c.semantic.header.width,
                c.semantic.header.height, c.semantic.IntraFrameCount(),
                c.semantic.bytes.size(), c.fallback.bytes.size());
  }
  std::printf("setup %.1f s\n\n", total.ElapsedSeconds());

  std::printf("%-34s %14s %14s %14s\n", "placement", "1 video", "3 videos",
              "5 videos");
  double fps[core::kNumPlacements][std::size(kVideoCounts)] = {};
  std::vector<std::string> details;
  for (int p = 0; p < core::kNumPlacements; ++p) {
    const Placement placement = Placement(p);
    std::printf("%-34s", core::PlacementName(placement));
    std::fflush(stdout);
    for (std::size_t g = 0; g < std::size(kVideoCounts); ++g) {
      const std::size_t videos = kVideoCounts[g];
      std::optional<Run> run =
          core::UsesSemanticEncoding(placement)
              ? RunSemantic(placement, videos, clips, classifier)
              : RunDecodeAll(placement, videos, clips, classifier);
      if (!run) {
        std::printf("\nwrong result: %s x%zu\n",
                    core::PlacementName(placement), videos);
        return 1;
      }
      fps[p][g] = run->fps;
      std::printf(" %10.0f fps", run->fps);
      std::fflush(stdout);
      char line[200];
      int n = std::snprintf(line, sizeof line,
                            "  %-34s x%zu: %5zu frames in %6.2f s, %3zu to "
                            "the NN",
                            core::PlacementName(placement), videos,
                            run->frames, run->wall_s, run->nn_frames);
      if (core::UsesSemanticEncoding(placement)) {
        std::snprintf(line + n, sizeof line - std::size_t(n),
                      ", camera->edge %7llu B, edge->cloud %6llu B",
                      (unsigned long long)run->camera_to_edge_bytes,
                      (unsigned long long)run->edge_to_cloud_bytes);
      }
      details.push_back(line);
    }
    std::printf("\n");
  }
  std::printf("\nruns:\n");
  for (const std::string& line : details) std::printf("%s\n", line.c_str());

  // The paper's shapes (Section V-B): 3-tier beats each 2-tier placement
  // and each decode-all baseline, at every video count.
  std::printf("\nshape checks (3-tier fps / other fps at 1, 3, 5 videos):\n");
  const int three_tier = int(Placement::kIFrameEdgeCloudNN);
  for (int p = 0; p < core::kNumPlacements; ++p) {
    if (p == three_tier) continue;
    bool holds = true;
    std::printf("  3-tier > %-34s", core::PlacementName(Placement(p)));
    for (std::size_t g = 0; g < std::size(kVideoCounts); ++g) {
      holds = holds && fps[three_tier][g] > fps[p][g];
      std::printf(" %7.2fx", fps[three_tier][g] / fps[p][g]);
    }
    std::printf("  %s\n", holds ? "PASS" : "FAIL");
  }
  std::printf("\nledgers reconciled, no drops, one database per clip across "
              "the semantic placements; total %.1f s\n",
              total.ElapsedSeconds());
  return 0;
}
