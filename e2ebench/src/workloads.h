// The benchmark's workloads: their inputs (generated from a seed), set-up,
// and the timed run that drives runtime::Runtime through its public API.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <string>
#include <vector>

#include "codec/encoder.h"
#include "dataflow/pipeline.h"
#include "media/frame.h"
#include "nn/classifier.h"
#include "runtime/runtime.h"
#include "spans.h"
#include "stats.h"
#include "synth/ground_truth.h"

namespace e2e {

using Rows = std::map<std::size_t, sieve::synth::LabelSet>;

/// Capture rate of every stream on the runtime's shared clock.
inline constexpr double kStreamFps = 30.0;

/// One workload's fixed shape; everything else comes from the seed.
struct WorkloadSpec {
  std::string name;
  int cameras = 1;
  int width = 160;
  int height = 120;
  /// Push raw frames through PushFrame (camera-side semantic encoder);
  /// otherwise the clips are pre-encoded at set-up and pushed with
  /// PushEncoded.
  bool live_encode = false;
  /// Open loop: each camera has its own feeder pushing on a fixed schedule
  /// of `camera_fps`. Closed loop: `feeders` threads push round-robin as
  /// fast as backpressure allows, over a fixed batch of frames sized for
  /// `nominal_fps` aggregate.
  bool open_loop = true;
  double camera_fps = 100.0;
  double nominal_fps = 1000.0;
  int feeders = 1;
  /// Each camera's stream cycles through `segments` independently generated
  /// clips of `clip_frames` frames (a camera cycling through presets): more
  /// distinct content per run at a bounded memory cost.
  std::size_t clip_frames = 300;
  std::size_t segments = 1;
  // Scene content (synth::SceneConfig knobs). Seconds between objects:
  // fixed in single-object scenes, the mean of Poisson arrivals in
  // concurrent ones; every object dwells `dwell_s` on screen.
  double gap_s = 4.0;
  double dwell_s = 3.0;
  bool concurrent = false;
  std::vector<sieve::synth::ObjectClass> classes;
  int gop = 250;       ///< semantic encoder: max frames between I-frames
  int scenecut = 40;   ///< semantic encoder: scenecut sensitivity
  bool mixed_placement = false;  ///< cloud / edge / auto round-robin
  bool journal = false;          ///< store journal on (default fsync policy)
  std::size_t history_cameras = 0;   ///< sealed history written at set-up
  std::size_t history_rows = 0;      ///< rows per history camera
  /// Closed-loop query reader threads running beside the ingest.
  int readers = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);
/// Run fn(i) for i in [0, n) on at most `nproc` (capped at 4) threads.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);
std::vector<std::string> WorkloadNames();

/// The camera-side semantic encoder settings of a workload.
sieve::codec::EncoderParams EncoderFor(const WorkloadSpec& spec);

/// One generated clip with its ground truth.
struct Segment {
  sieve::synth::GroundTruth truth;
  std::vector<sieve::media::Frame> frames;  ///< raw clip (live encode only)
  sieve::codec::EncodedVideo encoded;       ///< pre-encoded clip otherwise
};

struct CameraClip {
  std::string id;  ///< "cam-NN": also the runtime's source stage name
  std::vector<Segment> segments;
  /// Where this camera's stream starts in its segment cycle: cameras are
  /// staggered so their segment switches do not coincide.
  std::size_t offset = 0;
  sieve::runtime::PlacementMode placement = sieve::runtime::PlacementMode::kCloud;

  std::size_t segment_length() const {
    return segments.front().truth.frame_count();
  }
  /// The segment showing stream frame `i`, and `i`'s frame within it.
  std::pair<const Segment*, std::size_t> At(std::size_t i) const {
    const std::size_t n = segment_length();
    i += offset;
    return {&segments[(i / n) % segments.size()], i % n};
  }
};

/// Header + payload bytes of one frame of an encoded clip (what the camera
/// sends and PushEncoded takes).
std::span<const std::uint8_t> WireBytes(const sieve::codec::EncodedVideo& video,
                                        const sieve::codec::FrameRecord& record);

/// A sealed history camera written with store::JournalWriter.
struct HistoryCamera {
  std::string id;
  std::string route;
  double fps = 30.0;
  std::size_t total_frames = 0;
  Rows rows;
};

/// Everything generated from the seed: clips, the fitted classifier and
/// the history rows.
struct Inputs {
  std::vector<CameraClip> clips;
  std::unique_ptr<sieve::nn::FrameClassifier> classifier;  ///< null: fit failed
  std::vector<HistoryCamera> history;
  /// Pre-encode spans (codec.encode, one per frame) when built traced.
  SpanLog encode_log{2};
};

/// Generate scenes, fit the classifier, pre-encode and draw the history.
Inputs BuildInputs(const WorkloadSpec& spec, std::uint64_t seed, bool traced);

/// Write the history journals into `store_dir` (which must be fresh) and
/// boot a runtime over it with default knobs; boot includes recovery.
std::unique_ptr<sieve::runtime::Runtime> BootRuntime(
    const WorkloadSpec& spec, const Inputs& inputs,
    const std::string& store_dir, sieve::Status* status);

struct RunResult {
  // Latency samples, stamped with their time in the run.
  std::vector<TimedSample> push_latency_ms;
  std::vector<TimedSample> event_latency_ms;
  std::vector<TimedSample> query_latency_us;  ///< stamped from reader start
  std::vector<double> generator_lag_ms;
  std::size_t frames_pushed = 0;
  std::size_t push_failures = 0;
  std::size_t queries = 0;
  double reader_busy_s = 0.0;   ///< summed time inside query calls
  double reader_wall_s = 0.0;   ///< summed reader-thread wall time
  double window_s = 0.0;        ///< first push to last Drain
  /// Process user+sys CPU over the window, less the reader threads' own.
  double ingest_cpu_s = 0.0;
  std::vector<std::size_t> frames_per_camera;
  std::vector<sieve::runtime::SessionReport> reports;
  std::vector<sieve::dataflow::StageStats> stages;
  std::vector<Rows> dbs;
  std::vector<std::string> check_failures;
  /// Spans around every public runtime call (traced runs only).
  std::vector<std::unique_ptr<SpanLog>> logs;
};

/// One timed run: open sessions, push for ~`seconds`, drain, shut down, and
/// check the ledger and the live index against the drained databases.
RunResult RunWorkload(const WorkloadSpec& spec, const Inputs& inputs,
                      sieve::runtime::Runtime& runtime, std::uint64_t seed,
                      double seconds, bool traced);

/// Frames each camera pushes in a run of `seconds`.
std::size_t FramesPerCamera(const WorkloadSpec& spec, double seconds);

}  // namespace e2e
