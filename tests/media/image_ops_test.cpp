#include "media/image_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"

namespace sieve::media {
namespace {

Plane Constant(int w, int h, std::uint8_t v) { return Plane(w, h, v); }

Plane Noise(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  Plane p(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) p.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
  }
  return p;
}

/// The per-pixel bilinear resample ResizePlane must stay byte-identical to:
/// every tap and weight recomputed at each pixel, straight from the formula.
Plane ReferenceResizePlane(const Plane& src, int new_width, int new_height) {
  Plane dst(new_width, new_height);
  if (src.empty() || new_width <= 0 || new_height <= 0) return dst;
  const double sx = double(src.width()) / double(new_width);
  const double sy = double(src.height()) / double(new_height);
  for (int y = 0; y < new_height; ++y) {
    const double fy = (double(y) + 0.5) * sy - 0.5;
    const int y0 = std::clamp(int(std::floor(fy)), 0, src.height() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const double wy = std::clamp(fy - double(y0), 0.0, 1.0);
    for (int x = 0; x < new_width; ++x) {
      const double fx = (double(x) + 0.5) * sx - 0.5;
      const int x0 = std::clamp(int(std::floor(fx)), 0, src.width() - 1);
      const int x1 = std::min(x0 + 1, src.width() - 1);
      const double wx = std::clamp(fx - double(x0), 0.0, 1.0);
      const double top =
          double(src.at(x0, y0)) * (1 - wx) + double(src.at(x1, y0)) * wx;
      const double bot =
          double(src.at(x0, y1)) * (1 - wx) + double(src.at(x1, y1)) * wx;
      const double v = top * (1 - wy) + bot * wy;
      dst.at(x, y) = std::uint8_t(std::clamp(v, 0.0, 255.0) + 0.5);
    }
  }
  return dst;
}

void ExpectSamePlane(const Plane& got, const Plane& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  for (int y = 0; y < want.height(); ++y) {
    for (int x = 0; x < want.width(); ++x) {
      ASSERT_EQ(got.at(x, y), want.at(x, y)) << "at (" << x << ", " << y << ")";
    }
  }
}

TEST(Resize, MatchesPerPixelReference) {
  const std::pair<int, int> sources[] = {{160, 120}, {1, 1},  {1, 17}, {23, 1},
                                         {7, 5},     {96, 96}, {2, 3}};
  const std::pair<int, int> targets[] = {
      {160, 120}, {96, 96}, {1, 1},  {1, 40}, {40, 1},
      {200, 150}, {62, 110}, {3, 7}, {13, 9}, {320, 240}};
  std::uint64_t seed = 1;
  for (const auto& [sw, sh] : sources) {
    const Plane src = Noise(sw, sh, seed++);
    for (const auto& [dw, dh] : targets) {
      SCOPED_TRACE(testing::Message() << sw << "x" << sh << " -> " << dw << "x"
                                      << dh);
      ExpectSamePlane(ResizePlane(src, dw, dh), ReferenceResizePlane(src, dw, dh));
    }
    // Identity: the reference itself is the identity at equal sizes.
    ExpectSamePlane(ResizePlane(src, sw, sh), src);
  }
}

TEST(Resize, FrameMatchesPerPixelReferenceOnEveryPlane) {
  Frame f(160, 120);
  f.y() = Noise(160, 120, 11);
  f.u() = Noise(80, 60, 12);
  f.v() = Noise(80, 60, 13);
  for (const auto& [w, h] : {std::pair{96, 96}, std::pair{200, 150},
                             std::pair{62, 110}, std::pair{2, 2}}) {
    const Frame r = ResizeFrame(f, w, h);
    ExpectSamePlane(r.y(), ReferenceResizePlane(f.y(), w, h));
    ExpectSamePlane(r.u(), ReferenceResizePlane(f.u(), w / 2, h / 2));
    ExpectSamePlane(r.v(), ReferenceResizePlane(f.v(), w / 2, h / 2));
  }
}

TEST(Resize, IdentityPreservesPixels) {
  Plane p(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) p.at(x, y) = std::uint8_t(x * 10 + y);
  }
  const Plane r = ResizePlane(p, 8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) EXPECT_EQ(r.at(x, y), p.at(x, y));
  }
}

TEST(Resize, ConstantStaysConstant) {
  const Plane r = ResizePlane(Constant(16, 12, 77), 31, 9);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 31; ++x) EXPECT_EQ(r.at(x, y), 77);
  }
}

TEST(Resize, UpscaleInterpolatesBetweenValues) {
  Plane p(2, 1);
  p.at(0, 0) = 0;
  p.at(1, 0) = 200;
  const Plane r = ResizePlane(p, 4, 1);
  EXPECT_LE(r.at(0, 0), r.at(1, 0));
  EXPECT_LE(r.at(1, 0), r.at(2, 0));
  EXPECT_LE(r.at(2, 0), r.at(3, 0));
}

TEST(Resize, FrameKeepsChromaSubsampling) {
  Frame f(64, 48);
  const Frame r = ResizeFrame(f, 32, 16);
  EXPECT_EQ(r.width(), 32);
  EXPECT_EQ(r.height(), 16);
  EXPECT_EQ(r.u().width(), 16);
  EXPECT_EQ(r.u().height(), 8);
}

TEST(BoxBlur, ZeroRadiusIsCopy) {
  Plane p(4, 4);
  p.at(1, 1) = 255;
  const Plane b = BoxBlur(p, 0);
  EXPECT_EQ(b.at(1, 1), 255);
}

TEST(BoxBlur, SpreadsImpulse) {
  Plane p(9, 9, 0);
  p.at(4, 4) = 90;
  const Plane b = BoxBlur(p, 1);
  EXPECT_EQ(b.at(4, 4), 10);  // 90 / 9
  EXPECT_EQ(b.at(3, 4), 10);
  EXPECT_EQ(b.at(0, 0), 0);
}

TEST(BoxBlur, PreservesConstant) {
  const Plane b = BoxBlur(Constant(10, 10, 100), 3);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) EXPECT_EQ(b.at(x, y), 100);
  }
}

TEST(GaussianBlur, PreservesConstant) {
  const Plane b = GaussianBlur(Constant(12, 12, 50), 1.5);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) EXPECT_NEAR(b.at(x, y), 50, 1);
  }
}

TEST(GaussianBlur, ReducesImpulsePeak) {
  Plane p(15, 15, 0);
  p.at(7, 7) = 255;
  const Plane b = GaussianBlur(p, 1.0);
  EXPECT_LT(b.at(7, 7), 80);
  EXPECT_GT(b.at(7, 7), b.at(5, 7));
}

TEST(GaussianBlur, NonPositiveSigmaIsCopy) {
  Plane p(4, 4, 9);
  p.at(0, 0) = 200;
  const Plane b = GaussianBlur(p, 0.0);
  EXPECT_EQ(b.at(0, 0), 200);
}

TEST(Downsample2x, AveragesQuads) {
  Plane p(4, 2);
  p.at(0, 0) = 10;
  p.at(1, 0) = 20;
  p.at(0, 1) = 30;
  p.at(1, 1) = 40;
  const Plane d = Downsample2x(p);
  EXPECT_EQ(d.width(), 2);
  EXPECT_EQ(d.height(), 1);
  EXPECT_EQ(d.at(0, 0), 25);  // (10+20+30+40+2)/4
}

/// The per-pixel clamped form Downsample2x must stay byte-identical to.
Plane ReferenceDownsample2x(const Plane& src) {
  Plane dst(std::max(1, src.width() / 2), std::max(1, src.height() / 2));
  for (int y = 0; y < dst.height(); ++y) {
    for (int x = 0; x < dst.width(); ++x) {
      const int sum = src.at_clamped(2 * x, 2 * y) + src.at_clamped(2 * x + 1, 2 * y) +
                      src.at_clamped(2 * x, 2 * y + 1) +
                      src.at_clamped(2 * x + 1, 2 * y + 1);
      dst.at(x, y) = std::uint8_t((sum + 2) / 4);
    }
  }
  return dst;
}

TEST(Downsample2x, MatchesPerPixelReference) {
  const std::pair<int, int> sizes[] = {{320, 240}, {64, 48}, {45, 35}, {7, 9},
                                       {2, 2},     {3, 3},   {1, 9},   {1, 2},
                                       {9, 1},     {2, 1},   {1, 1}};
  std::uint64_t seed = 50;
  for (const auto& [w, h] : sizes) {
    SCOPED_TRACE(testing::Message() << w << "x" << h);
    const Plane src = Noise(w, h, ++seed);
    ExpectSamePlane(Downsample2x(src), ReferenceDownsample2x(src));
  }
}

TEST(Downsample2x, ReusedDestinationMatchesFreshPlane) {
  // One destination through a size change and back, as a stream reusing its
  // analysis plane would: every result equals a fresh downsample.
  Plane dst;
  std::uint64_t seed = 70;
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{64, 48},
                             std::pair{33, 17}, std::pair{64, 48}}) {
    const Plane src = Noise(w, h, ++seed);
    Downsample2x(src, dst);
    ExpectSamePlane(dst, ReferenceDownsample2x(src));
  }
}

TEST(Downsample2x, HalvesDimensions) {
  const Plane d = Downsample2x(Plane(640, 480));
  EXPECT_EQ(d.width(), 320);
  EXPECT_EQ(d.height(), 240);
}

TEST(Sobel, FlatImageHasZeroGradient) {
  const GradientField g = SobelGradients(Constant(8, 8, 120));
  for (auto v : g.dx) EXPECT_EQ(v, 0);
  for (auto v : g.dy) EXPECT_EQ(v, 0);
}

TEST(Sobel, VerticalEdgeHasHorizontalGradient) {
  Plane p(8, 8, 0);
  for (int y = 0; y < 8; ++y) {
    for (int x = 4; x < 8; ++x) p.at(x, y) = 100;
  }
  const GradientField g = SobelGradients(p);
  const std::size_t idx = 3 * 8 + 4;  // at the edge, interior row
  EXPECT_GT(g.dx[idx - 1], 0);
  EXPECT_EQ(g.dy[3 * 8 + 2], 0);  // far from horizontal edges
}

TEST(ColorConversion, RoundTripIsClose) {
  for (int r = 0; r <= 255; r += 51) {
    for (int g = 0; g <= 255; g += 51) {
      for (int b = 0; b <= 255; b += 51) {
        const Rgb in{std::uint8_t(r), std::uint8_t(g), std::uint8_t(b)};
        const Rgb out = YuvToRgb(RgbToYuv(in));
        EXPECT_NEAR(out.r, in.r, 4);
        EXPECT_NEAR(out.g, in.g, 4);
        EXPECT_NEAR(out.b, in.b, 4);
      }
    }
  }
}

TEST(ColorConversion, GreyIsNeutralChroma) {
  const Yuv y = RgbToYuv(Rgb{128, 128, 128});
  EXPECT_NEAR(y.u, 128, 1);
  EXPECT_NEAR(y.v, 128, 1);
  EXPECT_NEAR(y.y, 128, 1);
}

}  // namespace
}  // namespace sieve::media
