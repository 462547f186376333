#include "codec/encoder.h"

#include <utility>

namespace sieve::codec {

Expected<EncodedVideo> VideoEncoder::Encode(const media::RawVideo& video) const {
  if (video.frames.empty()) return Status::Invalid("Encode: empty video");
  if (video.width % 2 != 0 || video.height % 2 != 0) {
    return Status::Invalid("Encode: dimensions must be even");
  }
  StreamingEncoder streaming(params_, video.width, video.height, video.fps,
                             executor_);
  if (params_.pipeline) {
    for (const auto& frame : video.frames) {
      Status st = streaming.PushFramePipelined(frame);
      if (!st.ok()) return st;
    }
  } else {
    for (const auto& frame : video.frames) {
      auto record = streaming.PushFrame(frame);
      if (!record.ok()) return record.status();
    }
  }
  return streaming.Finish();
}

StreamingEncoder::StreamingEncoder(EncoderParams params, int width, int height,
                                   double fps, runtime::Executor* executor)
    : params_(params),
      header_{width, height, fps, 0, std::uint8_t(params.qp)},
      writer_(header_),
      ctx_(CodingContext::ForQp(params.qp)),
      analyzer_(params.analysis),
      recon_(width, height),
      recon_spare_(width, height) {
  if (params_.inter.skip_sad_per_pixel == 0) {
    params_.inter.skip_sad_per_pixel = InterParams::AutoSkipThreshold(params_.qp);
  }
  // The reference path is the serial golden path by definition; otherwise an
  // injected executor wins, and the legacy `threads` knob resolves one
  // (0 = shared process pool, 1 = inline serial, n > 1 = private pool).
  if (params_.reference_inter) {
    executor_ = &runtime::InlineExecutor();
  } else if (executor != nullptr) {
    executor_ = executor;
  } else {
    runtime::ResolvedExecutor resolved = runtime::ResolveExecutor(params_.threads);
    executor_ = resolved.executor;
    owned_executor_ = std::move(resolved.owned);
  }
  analyzer_.set_executor(executor_);
}

StreamingEncoder::~StreamingEncoder() {
  // The worker finishes any in-flight sweep before exiting, so the slots it
  // references outlive its last access; the frame is simply never appended.
  StopEntropyWorker();
}

bool StreamingEncoder::DecideKeyframe(const media::Frame& frame) {
  const FrameCost cost = analyzer_.Push(frame);
  costs_.push_back(cost);
  const bool is_key =
      first_ || IsKeyframe(cost, params_.keyframe, frames_since_keyframe_);
  first_ = false;
  frames_since_keyframe_ = is_key ? 1 : frames_since_keyframe_ + 1;
  return is_key;
}

Expected<FrameRecord> StreamingEncoder::PushFrame(const media::Frame& frame) {
  if (frame.width() != header_.width || frame.height() != header_.height) {
    return Status::Invalid("PushFrame: frame size does not match stream");
  }
  // Mixed-call safety: a record still in flight from PushFramePipelined must
  // land in the container before this frame does.
  DrainPipeline(nullptr);
  const obs::TraceContext trace{trace_track_, frames_in_++};
  obs::TraceSpan analyze_span("encode/analyze", trace);
  const bool is_key = DecideKeyframe(frame);
  analyze_span.End();

  obs::TraceSpan pass_span("encode/pass", trace);
  pass_span.Arg("key", is_key ? 1 : 0);
  ByteWriter payload;
  RangeEncoder rc(&payload);
  FrameModels models;  // fresh per frame: payloads are self-contained
  // Every coding path below writes all of recon_spare_, so its previous
  // contents never leak into the new reconstruction.
  if (is_key) {
    // Same two-pass split as inter frames: the reference path pinned the
    // executor to inline-serial in the constructor, so the golden encode
    // stays single-threaded by construction.
    EncodeIntraFrame(rc, models, frame, ctx_, recon_spare_, executor_,
                     &intra_scratch_);
  } else if (params_.reference_inter) {
    EncodeInterFrameReference(rc, models, frame, recon_, ctx_, params_.inter,
                              recon_spare_);
  } else {
    EncodeInterFrame(rc, models, frame, recon_, ctx_, params_.inter,
                     recon_spare_, executor_, &inter_scratch_);
  }
  rc.Flush();
  pass_span.End();
  std::swap(recon_, recon_spare_);

  const FrameRecord record = writer_.AppendFrame(
      is_key ? FrameType::kIntra : FrameType::kInter,
      std::span<const std::uint8_t>(payload.data().data(), payload.size()));
  records_.push_back(record);
  return record;
}

Status StreamingEncoder::PushFramePipelined(const media::Frame& frame,
                                            std::vector<FrameRecord>* done) {
  if (params_.reference_inter) {
    // The golden path is single-pass serial by definition; keep it
    // synchronous (PushFrame drains any pending record first).
    auto record = PushFrame(frame);
    if (!record.ok()) return record.status();
    if (done != nullptr) done->push_back(*record);
    return Status::Ok();
  }
  if (frame.width() != header_.width || frame.height() != header_.height) {
    return Status::Invalid("PushFrame: frame size does not match stream");
  }
  const obs::TraceContext trace{trace_track_, frames_in_++};
  obs::TraceSpan analyze_span("encode/analyze", trace);
  const bool is_key = DecideKeyframe(frame);
  analyze_span.End();

  PipelineSlot& slot = slots_[std::size_t(cur_slot_)];
  slot.payload.Clear();
  slot.models = FrameModels{};  // fresh per frame: payloads are self-contained
  slot.type = is_key ? FrameType::kIntra : FrameType::kInter;
  slot.trace = trace;

  // Pass 1 runs here, overlapping the previous frame's entropy sweep on the
  // worker. It reads recon_ (the previous reconstruction, complete since the
  // previous pass 1) and writes recon_spare_; the in-flight sweep touches
  // neither.
  obs::TraceSpan pass1_span("encode/pass1", trace);
  pass1_span.Arg("key", is_key ? 1 : 0);
  if (is_key) {
    EncodeIntraFramePass1(frame, ctx_, recon_spare_, executor_, slot.intra);
  } else {
    EncodeInterFramePass1(frame, recon_, ctx_, params_.inter, recon_spare_,
                          executor_, slot.inter);
  }
  pass1_span.End();
  std::swap(recon_, recon_spare_);

  // Land the previous frame in the container (order!) before handing this
  // frame's sweep to the worker.
  DrainPipeline(done);
  StartEntropy(slot);
  cur_slot_ = 1 - cur_slot_;
  return Status::Ok();
}

void StreamingEncoder::StartEntropy(PipelineSlot& slot) {
  if (!entropy_worker_.joinable()) {
    entropy_worker_ = executor_->SpawnWorker([this] { EntropyWorkerLoop(); });
  }
  {
    std::lock_guard<std::mutex> lk(pipe_mu_);
    job_ = &slot;
  }
  pipe_cv_.notify_all();
  entropy_pending_ = true;
}

void StreamingEncoder::DrainPipeline(std::vector<FrameRecord>* done) {
  if (!entropy_pending_) return;
  {
    std::unique_lock<std::mutex> lk(pipe_mu_);
    pipe_cv_.wait(lk, [&] { return job_ == nullptr; });
  }
  PipelineSlot& slot = slots_[std::size_t(1 - cur_slot_)];
  const FrameRecord record = writer_.AppendFrame(
      slot.type,
      std::span<const std::uint8_t>(slot.payload.data().data(),
                                    slot.payload.size()));
  records_.push_back(record);
  if (done != nullptr) done->push_back(record);
  entropy_pending_ = false;
}

void StreamingEncoder::StopEntropyWorker() {
  if (!entropy_worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(pipe_mu_);
    stop_worker_ = true;
  }
  pipe_cv_.notify_all();
  entropy_worker_.join();
  stop_worker_ = false;  // a later pipelined push respawns the worker
}

void StreamingEncoder::EntropyWorkerLoop() {
  obs::SetThreadName("encode/entropy-worker");
  std::unique_lock<std::mutex> lk(pipe_mu_);
  for (;;) {
    pipe_cv_.wait(lk, [&] { return job_ != nullptr || stop_worker_; });
    if (job_ == nullptr) return;  // stop requested, nothing in flight
    PipelineSlot* slot = job_;
    lk.unlock();
    obs::TraceSpan entropy_span("encode/entropy", slot->trace);
    RangeEncoder rc(&slot->payload);
    if (slot->type == FrameType::kIntra) {
      EncodeIntraFrameEntropy(rc, slot->models, slot->intra);
    } else {
      EncodeInterFrameEntropy(rc, slot->models, slot->inter);
    }
    rc.Flush();
    entropy_span.End();
    lk.lock();
    job_ = nullptr;
    pipe_cv_.notify_all();
  }
}

std::span<const std::uint8_t> StreamingEncoder::WireBytes(
    const FrameRecord& record) const {
  return writer_.bytes_view().subspan(
      record.payload_offset - writer_.trimmed_bytes() -
          FrameRecord::kHeaderSize,
      FrameRecord::kHeaderSize + record.payload_size);
}

void StreamingEncoder::TrimBuffered() {
  writer_.TrimBuffered();
  records_.clear();
  costs_.clear();
}

EncodedVideo StreamingEncoder::Finish() {
  DrainPipeline(nullptr);
  StopEntropyWorker();
  EncodedVideo out;
  header_.frame_count = std::uint32_t(records_.size());
  out.header = header_;
  out.bytes = writer_.Finish();
  out.records = std::move(records_);
  out.costs = std::move(costs_);
  return out;
}

}  // namespace sieve::codec
