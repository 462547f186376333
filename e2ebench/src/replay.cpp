#include "replay.h"

#include <filesystem>
#include <optional>

#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/still.h"
#include "core/results_db.h"
#include "core/seeker.h"
#include "media/image_ops.h"
#include "net/transport.h"
#include "nn/tensor.h"
#include "query/service.h"
#include "store/journal.h"
#include "store/recovery.h"

namespace e2e {

namespace sv = sieve;

ReplayResult Replay(const WorkloadSpec& spec, const Inputs& in,
                    const sv::runtime::RuntimeConfig& config,
                    const std::vector<std::size_t>& frames_per_camera,
                    const std::vector<std::size_t>& splits,
                    const std::string& journal_dir, bool traced) {
  ReplayResult r;
  SpanLog* log = traced ? &r.log : nullptr;
  const sv::nn::FrameClassifier& clf = *in.classifier;
  const std::size_t layers = clf.network().LayerCount();
  sv::net::ReliableTransport wan(config.edge_to_cloud, 0.0,
                                 sv::net::FaultPlan{});
  sv::query::QueryService query;
  std::error_code ec;
  std::filesystem::create_directories(journal_dir, ec);

  std::size_t total = 0;
  for (std::size_t n : frames_per_camera) total += n;
  if (log) log->Reserve(total * 4 + 64);

  const std::int64_t t0 = NowNs();
  for (std::size_t c = 0; c < in.clips.size(); ++c) {
    if (frames_per_camera[c] == 0) {
      r.dbs.emplace_back();
      continue;
    }
    const CameraClip& clip = in.clips[c];
    const std::uint32_t cam = std::uint32_t(c);
    const std::size_t split = splits[c];
    const std::string route = clip.id + "#replay";
    query.RegisterCamera(route, clip.id, sv::query::CameraClock{0.0, kStreamFps});
    auto journal = sv::store::JournalWriter::Open(
        journal_dir + "/" + sv::store::JournalFileName(route),
        sv::store::FsyncPolicy{});
    if (!journal.ok() ||
        !(*journal)->AppendRegister(route, clip.id, 0.0, kStreamFps).ok()) {
      r.failures.push_back("replay journal open failed for " + clip.id);
      return r;
    }
    std::optional<sv::codec::StreamingEncoder> encoder;
    if (spec.live_encode) {
      sv::codec::EncoderParams params = EncoderFor(spec);
      params.threads = 1;  // serial baseline
      encoder.emplace(params, spec.width, spec.height, kStreamFps);
    }
    sv::codec::ContainerHeader header;
    header.width = spec.width;
    header.height = spec.height;
    header.fps = kStreamFps;
    header.qp = std::uint8_t(EncoderFor(spec).qp);

    sv::core::ResultsDatabase db;
    sv::synth::LabelSet previous;
    // Reused across frames, so that freeing a frame's buffers happens inside
    // the next frame's layer spans rather than in the frame span's own time.
    std::vector<std::uint8_t> encoded;
    std::vector<std::uint8_t> container;
    for (std::size_t i = 0; i < frames_per_camera[c]; ++i) {
      ScopedSpan frame_span(log, "frame", -1, cam, i);
      const std::int32_t parent = frame_span.index();
      // The camera's wire bytes for this frame.
      sv::codec::FrameType type = sv::codec::FrameType::kInter;
      std::span<const std::uint8_t> wire;
      if (encoder) {
        ScopedSpan span(log, "codec.encode", parent, cam, i);
        const auto [seg, f] = clip.At(i);
        auto rec = encoder->PushFrame(seg->frames[f]);
        if (!rec.ok()) {
          r.failures.push_back("replay encode failed");
          return r;
        }
        type = rec->type;
        const auto bytes = encoder->WireBytes(*rec);
        encoded.assign(bytes.begin(), bytes.end());
        encoder->TrimBuffered();
        wire = encoded;
      }
      // Seek: the frame as a one-frame container, walked by the seeker. A
      // pre-encoded frame's bytes arrive here (the edge receiving them).
      std::optional<sv::codec::FrameRecord> selected;
      {
        ScopedSpan span(log, "core.seek", parent, cam, i);
        ++r.frames;
        if (!encoder) {
          const auto [seg, f] = clip.At(i);
          const sv::codec::FrameRecord& rec = seg->encoded.records[f];
          type = rec.type;
          wire = WireBytes(seg->encoded, rec);
        }
        sv::codec::ContainerWriter writer(header);
        writer.AppendFrame(type,
                           wire.subspan(sv::codec::FrameRecord::kHeaderSize));
        container = writer.Finish();
        auto report = sv::core::SeekIFrames(container);
        if (report.ok() && !report->iframes.empty()) {
          selected = report->iframes.front();
        }
      }
      if (!selected) continue;  // P-frame: stored edge-side
      ++r.iframes;
      sv::media::Frame decoded;
      {
        ScopedSpan span(log, "codec.decode_intra", parent, cam, i);
        auto frame = sv::codec::DecodeIntraFrameAt(container, *selected);
        if (!frame.ok()) {
          r.failures.push_back("replay I-frame decode failed");
          return r;
        }
        decoded = std::move(*frame);
      }
      std::vector<std::uint8_t> still;
      {
        ScopedSpan span(log, "codec.still_encode", parent, cam, i);
        still = sv::codec::EncodeStill(
            sv::media::ResizeFrame(decoded, config.nn_input_size,
                                   config.nn_input_size),
            config.still_qp);
      }
      r.still_bytes += still.size();
      auto send = [&](std::vector<std::uint8_t>& payload) {
        ScopedSpan span(log, "net.send", parent, cam, i);
        const sv::net::SendOutcome out =
            wan.Send(std::span<std::uint8_t>(payload),
                     double(i) / kStreamFps);
        r.wan_bytes += payload.size();
        r.wan_retries += std::uint64_t(out.attempts > 1 ? out.attempts - 1 : 0);
        return out.status.ok();
      };
      if (split == 0 && !send(still)) {
        r.failures.push_back("replay WAN send failed");
        return r;
      }
      sv::media::Frame still_frame;
      {
        ScopedSpan span(log, "codec.still_decode", parent, cam, i);
        auto decoded_still = sv::codec::DecodeStill(still);
        if (!decoded_still.ok()) {
          r.failures.push_back("replay still decode failed");
          return r;
        }
        still_frame = std::move(*decoded_still);
      }
      sv::nn::Tensor input;
      {
        ScopedSpan span(log, "nn.input", parent, cam, i);
        input = clf.InputTensor(still_frame);
      }
      sv::Expected<sv::synth::LabelSet> labels =
          sv::Status::Invalid("not classified");
      if (split >= layers) {
        ScopedSpan span(log, "nn.forward", parent, cam, i);
        labels = clf.PredictFromEmbedding(
            clf.network().Forward(input).values());
      } else {
        sv::nn::Tensor activation = std::move(input);
        if (split > 0) {
          {
            ScopedSpan span(log, "nn.prefix", parent, cam, i);
            activation = clf.network().ForwardPrefix(activation, split);
          }
          std::vector<std::uint8_t> payload;
          {
            ScopedSpan span(log, "nn.serialize", parent, cam, i);
            payload = sv::nn::SerializeTensor(activation);
          }
          if (!send(payload)) {
            r.failures.push_back("replay WAN send failed");
            return r;
          }
          ScopedSpan span(log, "nn.deserialize", parent, cam, i);
          auto parsed = sv::nn::DeserializeTensor(payload);
          if (!parsed.ok()) {
            r.failures.push_back("replay activation did not parse");
            return r;
          }
          activation = std::move(*parsed);
        }
        ScopedSpan span(log, "nn.suffix", parent, cam, i);
        labels = clf.PredictFromEmbedding(
            clf.network().ForwardSuffix(activation, split).values());
      }
      if (!labels.ok()) {
        r.failures.push_back("replay classification failed");
        return r;
      }
      ++r.classified;
      if (!(*labels == previous)) ++r.label_changes;
      previous = *labels;
      {
        ScopedSpan span(log, "core.db_insert", parent, cam, i);
        db.Insert(i, *labels);
      }
      {
        ScopedSpan span(log, "store.append", parent, cam, i);
        if (!(*journal)->AppendInsert(i, labels->bits()).ok()) {
          r.failures.push_back("replay journal append failed");
        }
      }
      {
        ScopedSpan span(log, "query.publish", parent, cam, i);
        query.Publish(route, db, i, *labels);
      }
    }
    {
      ScopedSpan span(log, "store.sync", -1, cam);
      if (!(*journal)->Sync().ok()) r.failures.push_back("replay sync failed");
    }
    (void)(*journal)->AppendSeal(frames_per_camera[c]);
    (void)(*journal)->Close();
    r.dbs.push_back(db.rows());
  }
  r.wall_s = double(NowNs() - t0) / 1e9;
  return r;
}

ReplayResult ReplayPerCamera(const WorkloadSpec& spec, const Inputs& in,
                             const sv::runtime::RuntimeConfig& config,
                             const std::vector<std::size_t>& frames_per_camera,
                             const std::vector<std::size_t>& splits,
                             const std::string& journal_dir) {
  const std::size_t cams = in.clips.size();
  std::vector<ReplayResult> parts(cams);
  const std::int64_t t0 = NowNs();
  ParallelFor(cams, [&](std::size_t c) {
    std::vector<std::size_t> only(cams, 0);
    only[c] = frames_per_camera[c];
    parts[c] = Replay(spec, in, config, only, splits,
                      journal_dir + "/" + in.clips[c].id, false);
  });
  ReplayResult r;
  for (std::size_t c = 0; c < cams; ++c) {
    ReplayResult& p = parts[c];
    r.dbs.push_back(c < p.dbs.size() ? std::move(p.dbs[c]) : Rows{});
    r.frames += p.frames;
    r.iframes += p.iframes;
    r.still_bytes += p.still_bytes;
    r.wan_bytes += p.wan_bytes;
    r.wan_retries += p.wan_retries;
    r.classified += p.classified;
    r.label_changes += p.label_changes;
    r.failures.insert(r.failures.end(), p.failures.begin(), p.failures.end());
  }
  r.wall_s = double(NowNs() - t0) / 1e9;
  return r;
}

}  // namespace e2e
