// Decoder-differential tests: the pixels the encoder reconstructs must be
// the pixels a decoder produces from its bytes. The edge feeds its NN
// ReconstructStill's output in place of decoding a still it never ships, so
// ReconstructStill(f, qp) == DecodeStill(EncodeStill(f, qp)) is asserted
// over qps, over sizes that are and are not block multiples, and under every
// compiled and supported kernel table. The video decoder is held to the same
// contract against an independent replay of the encoder's pass 1, for I- and
// P-frames.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/frame_coding.h"
#include "codec/still.h"
#include "common/rng.h"
#include "common/simd/kernels.h"
#include "media/frame.h"
#include "media/image_ops.h"

namespace sieve::codec {
namespace {

bool SamePlane(const media::Plane& a, const media::Plane& b) {
  return a.SameSize(b) && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

bool SameFrame(const media::Frame& a, const media::Frame& b) {
  return SamePlane(a.y(), b.y()) && SamePlane(a.u(), b.u()) &&
         SamePlane(a.v(), b.v());
}

/// Blurred noise with a bright block moving with `t`: smooth areas, sharp
/// edges and, across t, motion for P-frames.
media::Frame TexturedFrame(int w, int h, std::uint64_t seed, int t = 0) {
  Rng rng(seed);
  media::Frame f(w, h);
  for (media::Plane* plane : {&f.y(), &f.u(), &f.v()}) {
    media::Plane noise(plane->width() + 32, plane->height());
    for (int y = 0; y < noise.height(); ++y) {
      for (int x = 0; x < noise.width(); ++x) {
        noise.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
      }
    }
    const media::Plane base = media::BoxBlur(noise, 2);
    const int shift = plane == &f.y() ? 2 * t : t;
    for (int y = 0; y < plane->height(); ++y) {
      for (int x = 0; x < plane->width(); ++x) {
        int v = base.at(x + shift, y);
        if (x > 8 + shift && x < 30 + shift && y > 6 && y < 22) v = 235;
        plane->at(x, y) = std::uint8_t(v);
      }
    }
  }
  return f;
}

std::vector<simd::KernelArch> RunnableArches() {
  std::vector<simd::KernelArch> out;
  for (simd::KernelArch arch : simd::CompiledArches()) {
    if (simd::ArchSupported(arch)) out.push_back(arch);
  }
  return out;
}

TEST(DecoderDifferential, ReconstructStillEqualsDecodedStill) {
  const int sizes[][2] = {{96, 96}, {160, 120}, {90, 66}};
  const int qps[] = {1, 10, 26, 40, 51};
  for (simd::KernelArch arch : RunnableArches()) {
    simd::ScopedKernelArch pin(arch);
    for (const auto& size : sizes) {
      const media::Frame frame = TexturedFrame(size[0], size[1], 0xD1FF);
      for (const int qp : qps) {
        SCOPED_TRACE(testing::Message()
                     << simd::KernelArchName(arch) << " " << size[0] << "x"
                     << size[1] << " qp " << qp);
        auto decoded = DecodeStill(EncodeStill(frame, qp));
        ASSERT_TRUE(decoded.ok());
        EXPECT_TRUE(SameFrame(ReconstructStill(frame, qp), *decoded));
      }
    }
  }
}

TEST(DecoderDifferential, ReconstructStillOfResizedFrameEqualsDecodedStill) {
  // The edge's exact path: a decoded I-frame resized to the NN input.
  const media::Frame resized =
      media::ResizeFrame(TexturedFrame(160, 120, 0xE00E), 96, 96);
  for (simd::KernelArch arch : RunnableArches()) {
    simd::ScopedKernelArch pin(arch);
    auto decoded = DecodeStill(EncodeStill(resized, 26));
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(SameFrame(ReconstructStill(resized, 26), *decoded))
        << simd::KernelArchName(arch);
  }
}

TEST(DecoderDifferential, VideoDecoderEqualsEncoderReconstruction) {
  for (const auto& size : {std::pair{96, 64}, std::pair{90, 66}}) {
    const auto [w, h] = size;
    media::RawVideo video;
    video.width = w;
    video.height = h;
    for (int t = 0; t < 9; ++t) video.frames.push_back(TexturedFrame(w, h, 7, t));
    EncoderParams params;
    params.keyframe.gop_size = 4;
    params.threads = 1;
    for (simd::KernelArch arch : RunnableArches()) {
      simd::ScopedKernelArch pin(arch);
      SCOPED_TRACE(testing::Message()
                   << simd::KernelArchName(arch) << " " << w << "x" << h);
      auto encoded = VideoEncoder(params).Encode(video);
      ASSERT_TRUE(encoded.ok());
      auto decoder = VideoDecoder::Open(encoded->bytes);
      ASSERT_TRUE(decoder.ok());

      // Replay the encoder's pass 1 on its own frame-type decisions: the
      // reconstruction every later frame predicts from.
      const CodingContext ctx = CodingContext::ForQp(params.qp);
      InterParams inter = params.inter;
      inter.skip_sad_per_pixel = InterParams::AutoSkipThreshold(params.qp);
      media::Frame prev;
      std::size_t intra = 0, predicted = 0;
      for (std::size_t i = 0; i < video.frames.size(); ++i) {
        const media::Frame& src = video.frames[i];
        media::Frame recon(w, h);
        if (encoded->records[i].type == FrameType::kIntra) {
          IntraScratch scratch;
          EncodeIntraFramePass1(src, ctx, recon, nullptr, scratch);
          EXPECT_TRUE(SameFrame(recon, ReconstructStill(src, params.qp)));
          ++intra;
        } else {
          InterScratch scratch;
          EncodeInterFramePass1(src, prev, ctx, inter, recon, nullptr, scratch);
          ++predicted;
        }
        auto out = decoder->DecodeNext();
        ASSERT_TRUE(out.ok());
        EXPECT_TRUE(SameFrame(*out, recon)) << "frame " << i;
        prev = std::move(recon);
      }
      EXPECT_GE(intra, 2u);
      EXPECT_GE(predicted, 2u);
    }
  }
}

}  // namespace
}  // namespace sieve::codec
