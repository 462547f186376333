// Golden codec bytes: FNV-1a hashes of still-image bytes, of a short video
// container and of ResizeFrame outputs, pinned to constants recorded before
// the range coder's per-bit calls moved inline and before ResizePlane hoisted
// its column tables. Every compiled and supported kernel arch must reproduce
// them exactly, so neither change (nor dispatch) can move a WAN byte, a
// stored frame or an NN input pixel.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "codec/encoder.h"
#include "codec/still.h"
#include "common/rng.h"
#include "common/simd/kernels.h"
#include "media/frame.h"
#include "media/image_ops.h"

namespace sieve::codec {
namespace {

// Recorded with the pre-inlining codec and the per-pixel ResizePlane (GCC 12,
// -O2, x86-64 baseline ISA).
struct StillCase {
  int width, height, qp;
  std::uint64_t hash;
};
constexpr StillCase kStillCases[] = {
    {96, 96, 10, 0xA6B2A353507F843Eull},
    {96, 96, 26, 0x9AA44CB1F8A7588Dull},
    {160, 120, 40, 0xA489C36C9A1EC07Eull},
};
constexpr std::uint64_t kContainerHash = 0x40D842E6ADDCB9E3ull;
struct ResizeCase {
  int src_w, src_h, dst_w, dst_h;
  std::uint64_t hash;
};
constexpr ResizeCase kResizeCases[] = {
    {160, 120, 96, 96, 0xB09A6D5A75EFB1EAull},   // the edge's NN-input downscale
    {96, 64, 200, 150, 0x51B9E7EF9C92E4CEull},   // upscale
    {160, 120, 62, 110, 0x37711462AEEC4C72ull},  // odd ratio: shrink x, stretch y
};

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t hash = 0xCBF29CE484222325ull) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t HashFrame(const media::Frame& f) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const media::Plane* p : {&f.y(), &f.u(), &f.v()}) {
    h = Fnv1a(std::span<const std::uint8_t>(p->data(), p->size()), h);
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Smooth texture plus a moving bright block and light noise: real
/// coefficient spread at every qp, and motion for the P-frames.
media::Frame SeededFrame(int w, int h, std::uint64_t seed, int t = 0) {
  Rng rng(seed);
  media::Frame f(w, h);
  for (media::Plane* plane : {&f.y(), &f.u(), &f.v()}) {
    media::Plane base(plane->width() + 16, plane->height() + 16);
    for (int y = 0; y < base.height(); ++y) {
      for (int x = 0; x < base.width(); ++x) {
        base.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
      }
    }
    base = media::BoxBlur(base, 2);
    const int scale = plane == &f.y() ? 1 : 2;
    for (int y = 0; y < plane->height(); ++y) {
      for (int x = 0; x < plane->width(); ++x) {
        int v = base.at((x + 2 * t / scale) % base.width(), y) +
                rng.UniformInt(-3, 3);
        const int bx = 10 + 3 * t, by = 12 + t;
        if (x * scale >= bx && x * scale < bx + 24 && y * scale >= by &&
            y * scale < by + 16) {
          v += 70;
        }
        plane->at(x, y) = std::uint8_t(v < 0 ? 0 : (v > 255 ? 255 : v));
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

TEST(GoldenCodecBytes, StillBytesMatchRecordedHashes) {
  for (simd::KernelArch arch : RunnableArches()) {
    simd::ScopedKernelArch pin(arch);
    for (const StillCase& c : kStillCases) {
      const media::Frame frame = SeededFrame(c.width, c.height, 0x5EED + c.qp);
      const std::uint64_t got = Fnv1a(EncodeStill(frame, c.qp));
      EXPECT_EQ(got, c.hash)
          << simd::KernelArchName(arch) << " " << c.width << "x" << c.height
          << " qp " << c.qp << ": got " << Hex(got);
    }
  }
}

TEST(GoldenCodecBytes, VideoContainerMatchesRecordedHash) {
  media::RawVideo video;
  video.width = 96;
  video.height = 64;
  for (int t = 0; t < 8; ++t) {
    video.frames.push_back(SeededFrame(96, 64, 0xC0DEC, t));
  }
  EncoderParams params;
  params.keyframe.gop_size = 4;
  params.threads = 1;
  for (simd::KernelArch arch : RunnableArches()) {
    simd::ScopedKernelArch pin(arch);
    auto encoded = VideoEncoder(params).Encode(video);
    ASSERT_TRUE(encoded.ok());
    ASSERT_GE(encoded->IntraFrameCount(), 2u);  // I- and P-frames both
    ASSERT_LT(encoded->IntraFrameCount(), video.frames.size());
    const std::uint64_t got = Fnv1a(encoded->bytes);
    EXPECT_EQ(got, kContainerHash)
        << simd::KernelArchName(arch) << ": got " << Hex(got);
  }
}

TEST(GoldenCodecBytes, ResizeFrameMatchesRecordedHashes) {
  for (simd::KernelArch arch : RunnableArches()) {
    simd::ScopedKernelArch pin(arch);
    for (const ResizeCase& c : kResizeCases) {
      const media::Frame src = SeededFrame(c.src_w, c.src_h, 0xFACE);
      const std::uint64_t got =
          HashFrame(media::ResizeFrame(src, c.dst_w, c.dst_h));
      EXPECT_EQ(got, c.hash)
          << simd::KernelArchName(arch) << " " << c.src_w << "x" << c.src_h
          << " -> " << c.dst_w << "x" << c.dst_h << ": got " << Hex(got);
    }
  }
}

}  // namespace
}  // namespace sieve::codec
