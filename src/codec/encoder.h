// The semantic video encoder: the component SiEVE tunes.
//
// A conventional hybrid encoder (I/P frames, motion compensation, DCT +
// adaptive range coding) whose keyframe decision is driven by the two knobs
// the paper exposes to the operator: GOP size and scenecut threshold. With
// semantically tuned values, I-frames land on object enter/leave events and
// downstream analysis needs to decode nothing else.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "codec/analysis.h"
#include "codec/container.h"
#include "codec/frame_coding.h"
#include "common/bytes.h"
#include "common/status.h"
#include "media/frame.h"
#include "obs/trace.h"
#include "runtime/executor.h"

namespace sieve::codec {

struct EncoderParams {
  KeyframeParams keyframe;      ///< gop_size + scenecut + min_keyint
  int qp = 26;                  ///< quantizer (1..51)
  InterParams inter;            ///< motion search and skip settings
  AnalysisParams analysis;      ///< lookahead settings
  /// Back-compat executor knob, consulted only when no Executor is injected:
  /// 0 = the shared process-wide pool (runtime::SharedExecutor()), 1 =
  /// serial inline, n > 1 = a private pool of n workers. The bitstream is
  /// identical for every value and for every executor choice.
  int threads = 0;
  /// Route inter frames through the serial reference coder (unpruned search,
  /// single pass). Golden/debug path; slow.
  bool reference_inter = false;
  /// Frame-level pipelining: overlap frame N's serial entropy sweep (on a
  /// dedicated worker) with frame N+1's parallel pass 1. The handoff is the
  /// reconstructed reference — pass 1 of frame N+1 needs only frame N's
  /// recon, which pass 1 of frame N already produced; the deferred entropy
  /// sweep reads nothing but its own coefficient scratch. Bitstreams stay
  /// byte-identical to the non-pipelined path for every executor choice.
  /// Consumed by StreamingEncoder::PushFramePipelined (and by
  /// VideoEncoder::Encode, which switches to that entry point); the plain
  /// PushFrame stays synchronous regardless. Ignored under reference_inter.
  bool pipeline = false;

  static EncoderParams Defaults() { return EncoderParams{}; }
  /// The paper's "default encoding parameters": GOP 250, scenecut 40.
  static EncoderParams DefaultEncoding() {
    EncoderParams p;
    p.keyframe.gop_size = 250;
    p.keyframe.scenecut = 40;
    return p;
  }
  /// Semantic parameters chosen by the tuner.
  static EncoderParams Semantic(int gop_size, int scenecut) {
    EncoderParams p;
    p.keyframe.gop_size = gop_size;
    p.keyframe.scenecut = scenecut;
    return p;
  }
};

/// An encoded stream plus its frame index and the analysis trace.
struct EncodedVideo {
  ContainerHeader header;
  std::vector<std::uint8_t> bytes;     ///< full SVB container
  std::vector<FrameRecord> records;    ///< per-frame index (also in bytes)
  std::vector<FrameCost> costs;        ///< per-frame lookahead costs

  std::size_t size_bytes() const noexcept { return bytes.size(); }
  std::size_t IntraFrameCount() const noexcept {
    std::size_t n = 0;
    for (const auto& r : records) n += r.type == FrameType::kIntra ? 1 : 0;
    return n;
  }
  /// Fraction of frames that are I-frames (the paper's sample size SS).
  double IntraFrameRate() const noexcept {
    return records.empty() ? 0.0
                           : double(IntraFrameCount()) / double(records.size());
  }
};

/// Stateless whole-video encoder. An injected executor overrides the
/// `params.threads` resolution (see StreamingEncoder).
class VideoEncoder {
 public:
  explicit VideoEncoder(EncoderParams params = EncoderParams::Defaults(),
                        runtime::Executor* executor = nullptr)
      : params_(params), executor_(executor) {}

  const EncoderParams& params() const noexcept { return params_; }

  /// Encode a raw video into an SVB container.
  Expected<EncodedVideo> Encode(const media::RawVideo& video) const;

 private:
  EncoderParams params_;
  runtime::Executor* executor_;
};

/// Streaming encoder: push frames one at a time (the camera-side live path).
/// Keyframe decisions use the same streaming analyzer the batch path uses.
///
/// Threading: motion estimation and lookahead analysis fan out over an
/// injected runtime::Executor. Pass one explicitly (a fleet of encoders
/// sharing runtime::SharedExecutor() is the intended deployment) or leave it
/// null to resolve from `params.threads` via runtime::ResolveExecutor. The
/// encoder never constructs raw threads itself, and the bitstream is
/// byte-identical for every executor choice.
class StreamingEncoder {
 public:
  StreamingEncoder(EncoderParams params, int width, int height, double fps,
                   runtime::Executor* executor = nullptr);
  ~StreamingEncoder();
  StreamingEncoder(const StreamingEncoder&) = delete;
  StreamingEncoder& operator=(const StreamingEncoder&) = delete;

  /// Encodes one frame; returns its record (type reveals the decision).
  /// Synchronous: any in-flight pipelined entropy pass is drained first, so
  /// mixing PushFrame and PushFramePipelined on one stream is safe.
  Expected<FrameRecord> PushFrame(const media::Frame& frame);

  /// Pipelined push (params.pipeline): runs this frame's parallel pass 1
  /// immediately — overlapping the previous frame's serial entropy sweep,
  /// which is still running on a dedicated worker — then hands this frame's
  /// entropy off to the worker and returns. Records complete one frame
  /// behind: each call appends the records that finished (0 or 1; more after
  /// a mixed-call drain) to `done` in stream order, and Finish() drains the
  /// tail. The container bytes and records are byte-identical to a PushFrame
  /// stream. Falls back to synchronous encoding under reference_inter.
  Status PushFramePipelined(const media::Frame& frame,
                            std::vector<FrameRecord>* done = nullptr);

  /// The on-wire bytes of a frame returned by PushFrame: its fixed-size
  /// header plus entropy-coded payload, exactly as they appear in the final
  /// container. Valid until the next PushFrame/TrimBuffered/Finish call
  /// (the underlying buffer may grow); callers that need the bytes longer
  /// must copy. Only valid for records appended since the last trim.
  std::span<const std::uint8_t> WireBytes(const FrameRecord& record) const;

  /// Live-session mode: drop the container bytes, frame records, and
  /// analysis costs buffered so far. A 24/7 session copies each frame's
  /// WireBytes immediately and never calls Finish(), so trimming after
  /// every frame keeps steady-state memory bounded regardless of stream
  /// length. After any trim, Finish() no longer yields a valid container.
  void TrimBuffered();

  /// Finish the stream and release the container bytes. Drains any
  /// in-flight pipelined entropy pass first.
  EncodedVideo Finish();

  /// Attach this stream's trace track (obs::HashTrack of the owning
  /// session's route): encode-pass spans then join the session's per-frame
  /// span trees. 0 (default) records spans without a frame identity.
  void set_trace_track(std::uint64_t track) noexcept { trace_track_ = track; }

 private:
  /// One frame's deferred-entropy state: the pass-1 coefficient scratch, the
  /// fresh-per-frame adaptive models, and the payload the entropy worker
  /// writes. Two slots alternate — the worker drains one while the next
  /// frame's pass 1 fills the other — so steady state never allocates.
  struct PipelineSlot {
    ByteWriter payload;
    FrameModels models;
    IntraScratch intra;
    InterScratch inter;
    FrameType type = FrameType::kIntra;
    obs::TraceContext trace;  ///< identity for the deferred entropy span
  };

  /// Shared front half of both push paths: lookahead analysis plus the
  /// in-order keyframe decision (updates first_/frames_since_keyframe_).
  bool DecideKeyframe(const media::Frame& frame);
  /// Hand `slot`'s entropy sweep to the dedicated worker (spawned lazily via
  /// executor_->SpawnWorker on first use).
  void StartEntropy(PipelineSlot& slot);
  /// Join the in-flight entropy pass, append its frame to the container, and
  /// record it (also into `done` when non-null). No-op when nothing pends.
  void DrainPipeline(std::vector<FrameRecord>* done);
  void StopEntropyWorker();
  void EntropyWorkerLoop();

  EncoderParams params_;
  ContainerHeader header_;
  ContainerWriter writer_;
  CodingContext ctx_;
  FrameAnalyzer analyzer_;
  runtime::Executor* executor_ = nullptr;  ///< motion-estimation + lookahead workers
  std::unique_ptr<runtime::Executor> owned_executor_;  ///< for threads > 1
  InterScratch inter_scratch_;        ///< reused across frames: no per-frame allocs
  IntraScratch intra_scratch_;        ///< I-frame pass-1 coefficients, reused
  // recon_ double-buffers against recon_spare_: a frame's pass reads recon_
  // (the previous frame's reference) while writing recon_spare_, then the two
  // swap, so no push allocates a frame. A deferred entropy sweep
  // (PushFramePipelined) never touches either.
  media::Frame recon_;
  media::Frame recon_spare_;
  std::vector<FrameRecord> records_;
  std::vector<FrameCost> costs_;
  std::size_t frames_since_keyframe_ = 0;
  bool first_ = true;
  std::uint64_t trace_track_ = 0;  ///< see set_trace_track
  std::uint64_t frames_in_ = 0;    ///< frames pushed (trace frame index)

  // Pipeline state (PushFramePipelined).
  std::array<PipelineSlot, 2> slots_;
  int cur_slot_ = 0;
  bool entropy_pending_ = false;  ///< slots_[1 - cur_slot_] awaiting drain
  std::thread entropy_worker_;
  std::mutex pipe_mu_;
  std::condition_variable pipe_cv_;
  PipelineSlot* job_ = nullptr;   ///< guarded by pipe_mu_; null = worker idle
  bool stop_worker_ = false;      ///< guarded by pipe_mu_
};

}  // namespace sieve::codec
