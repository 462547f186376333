#include "codec/still.h"

#include "codec/frame_coding.h"
#include "common/bytes.h"

namespace sieve::codec {

namespace {
constexpr std::uint8_t kStillMagic[4] = {'S', 'I', 'M', '1'};
}

std::vector<std::uint8_t> EncodeStill(const media::Frame& frame, int qp,
                                      runtime::Executor* executor) {
  ByteWriter out;
  out.PutBytes(std::span<const std::uint8_t>(kStillMagic, 4));
  out.PutU16(std::uint16_t(frame.width()));
  out.PutU16(std::uint16_t(frame.height()));
  out.PutU8(std::uint8_t(qp));

  // A still is never predicted from, so its reconstruction is not needed:
  // transform + quantize, then the entropy sweep.
  IntraScratch scratch;
  QuantizeIntraFrame(frame, CodingContext::ForQp(qp), executor, scratch);
  ByteWriter payload;
  RangeEncoder rc(&payload);
  FrameModels models;
  EncodeIntraFrameEntropy(rc, models, scratch);
  rc.Flush();

  out.PutU32(std::uint32_t(payload.size()));
  out.PutBytes(std::span<const std::uint8_t>(payload.data().data(),
                                             payload.size()));
  return out.Release();
}

Expected<media::Frame> DecodeStill(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  auto magic = reader.GetSpan(4);
  if (!magic.ok()) return magic.status();
  for (int i = 0; i < 4; ++i) {
    if ((*magic)[std::size_t(i)] != kStillMagic[i]) {
      return Status::Corrupt("SIM1: bad magic");
    }
  }
  auto w = reader.GetU16();
  auto h = reader.GetU16();
  auto qp = reader.GetU8();
  auto size = reader.GetU32();
  if (!w.ok() || !h.ok() || !qp.ok() || !size.ok()) {
    return Status::Corrupt("SIM1: truncated header");
  }
  auto payload = reader.GetSpan(*size);
  if (!payload.ok()) return payload.status();
  if (*w == 0 || *h == 0 || *w % 2 != 0 || *h % 2 != 0) {
    return Status::Corrupt("SIM1: invalid dimensions");
  }
  // Bound the decode allocation: a bit-flipped dimension field must not
  // turn into a multi-gigabyte frame. 2^26 pixels (~8K video) is far above
  // any legitimate still this codec produces.
  if (std::size_t(*w) * std::size_t(*h) > (std::size_t(1) << 26)) {
    return Status::Corrupt("SIM1: implausible dimensions");
  }

  RangeDecoder rc(*payload);
  FrameModels models;
  const CodingContext ctx = CodingContext::ForQp(*qp);
  media::Frame frame(*w, *h);
  DecodeIntraFrame(rc, models, ctx, frame);
  return frame;
}

media::Frame ReconstructStill(const media::Frame& frame, int qp) {
  IntraScratch scratch;
  media::Frame recon(frame.width(), frame.height());
  EncodeIntraFramePass1(frame, CodingContext::ForQp(qp), recon,
                        /*executor=*/nullptr, scratch);
  return recon;
}

}  // namespace sieve::codec
