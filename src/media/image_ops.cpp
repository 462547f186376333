#include "media/image_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace sieve::media {

namespace {

std::uint8_t ClampByte(double v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

std::uint8_t ClampByteInt(int v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

}  // namespace

Plane ResizePlane(const Plane& src, int new_width, int new_height) {
  Plane dst(new_width, new_height);
  if (src.empty() || new_width <= 0 || new_height <= 0) return dst;
  const double sx = double(src.width()) / double(new_width);
  const double sy = double(src.height()) / double(new_height);
  // The horizontal taps depend only on the column: compute them once. Every
  // pixel still evaluates the same double expressions in the same order, so
  // the output is byte-identical to the per-pixel form.
  struct Tap {
    int x0, x1;
    double wx, wx1;  // weights of x1 and x0
  };
  std::vector<Tap> taps(static_cast<std::size_t>(new_width));
  for (int x = 0; x < new_width; ++x) {
    const double fx = (double(x) + 0.5) * sx - 0.5;
    const int x0 = std::clamp(int(std::floor(fx)), 0, src.width() - 1);
    const double wx = std::clamp(fx - double(x0), 0.0, 1.0);
    taps[std::size_t(x)] = Tap{x0, std::min(x0 + 1, src.width() - 1), wx,
                               1 - wx};
  }
  for (int y = 0; y < new_height; ++y) {
    const double fy = (double(y) + 0.5) * sy - 0.5;
    const int y0 = std::clamp(int(std::floor(fy)), 0, src.height() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const double wy = std::clamp(fy - double(y0), 0.0, 1.0);
    const double wy1 = 1 - wy;
    const std::uint8_t* r0 = src.row(y0);
    const std::uint8_t* r1 = src.row(y1);
    std::uint8_t* out = dst.row(y);
    for (int x = 0; x < new_width; ++x) {
      const Tap& t = taps[std::size_t(x)];
      const double top = double(r0[t.x0]) * t.wx1 + double(r0[t.x1]) * t.wx;
      const double bot = double(r1[t.x0]) * t.wx1 + double(r1[t.x1]) * t.wx;
      out[x] = ClampByte(top * wy1 + bot * wy);
    }
  }
  return dst;
}

Frame ResizeFrame(const Frame& src, int new_width, int new_height) {
  Frame dst(new_width, new_height);
  dst.y() = ResizePlane(src.y(), new_width, new_height);
  dst.u() = ResizePlane(src.u(), new_width / 2, new_height / 2);
  dst.v() = ResizePlane(src.v(), new_width / 2, new_height / 2);
  return dst;
}

Plane BoxBlur(const Plane& src, int radius) {
  if (radius <= 0 || src.empty()) return src;
  const int w = src.width(), h = src.height();
  const int window = 2 * radius + 1;
  Plane tmp(w, h), dst(w, h);
  // Horizontal pass with running sum.
  for (int y = 0; y < h; ++y) {
    int sum = 0;
    for (int x = -radius; x <= radius; ++x) sum += src.at_clamped(x, y);
    for (int x = 0; x < w; ++x) {
      tmp.at(x, y) = ClampByteInt(sum / window);
      sum += src.at_clamped(x + radius + 1, y) - src.at_clamped(x - radius, y);
    }
  }
  // Vertical pass.
  for (int x = 0; x < w; ++x) {
    int sum = 0;
    for (int y = -radius; y <= radius; ++y) sum += tmp.at_clamped(x, y);
    for (int y = 0; y < h; ++y) {
      dst.at(x, y) = ClampByteInt(sum / window);
      sum += tmp.at_clamped(x, y + radius + 1) - tmp.at_clamped(x, y - radius);
    }
  }
  return dst;
}

Plane GaussianBlur(const Plane& src, double sigma) {
  if (sigma <= 0 || src.empty()) return src;
  const int radius = std::max(1, int(std::ceil(sigma * 3.0)));
  std::vector<double> kernel(std::size_t(radius) * 2 + 1);
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-double(i) * double(i) / (2 * sigma * sigma));
    kernel[std::size_t(i + radius)] = v;
    sum += v;
  }
  for (auto& k : kernel) k /= sum;

  const int w = src.width(), h = src.height();
  Plane tmp(w, h), dst(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double acc = 0;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[std::size_t(i + radius)] * double(src.at_clamped(x + i, y));
      }
      tmp.at(x, y) = ClampByte(acc);
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double acc = 0;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[std::size_t(i + radius)] * double(tmp.at_clamped(x, y + i));
      }
      dst.at(x, y) = ClampByte(acc);
    }
  }
  return dst;
}

Plane Downsample2x(const Plane& src) {
  Plane dst;
  Downsample2x(src, dst);
  return dst;
}

void Downsample2x(const Plane& src, Plane& dst) {
  const int w = std::max(1, src.width() / 2);
  const int h = std::max(1, src.height() / 2);
  if (dst.width() != w || dst.height() != h) dst = Plane(w, h);
  if (src.width() >= 2 && src.height() >= 2) {
    // Every 2x2 window lies inside the plane (an odd last row or column is
    // dropped), so no read needs clamping.
    for (int y = 0; y < h; ++y) {
      const std::uint8_t* r0 = src.row(2 * y);
      const std::uint8_t* r1 = src.row(2 * y + 1);
      std::uint8_t* out = dst.row(y);
      for (int x = 0; x < w; ++x) {
        const int sum = r0[2 * x] + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1];
        out[x] = static_cast<std::uint8_t>((sum + 2) / 4);
      }
    }
    return;
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int sx = x * 2, sy = y * 2;
      const int sum = src.at_clamped(sx, sy) + src.at_clamped(sx + 1, sy) +
                      src.at_clamped(sx, sy + 1) + src.at_clamped(sx + 1, sy + 1);
      dst.at(x, y) = static_cast<std::uint8_t>((sum + 2) / 4);
    }
  }
}

GradientField SobelGradients(const Plane& src) {
  GradientField g;
  g.width = src.width();
  g.height = src.height();
  g.dx.assign(std::size_t(g.width) * std::size_t(g.height), 0);
  g.dy.assign(std::size_t(g.width) * std::size_t(g.height), 0);
  for (int y = 0; y < g.height; ++y) {
    for (int x = 0; x < g.width; ++x) {
      const int p00 = src.at_clamped(x - 1, y - 1), p10 = src.at_clamped(x, y - 1),
                p20 = src.at_clamped(x + 1, y - 1);
      const int p01 = src.at_clamped(x - 1, y), p21 = src.at_clamped(x + 1, y);
      const int p02 = src.at_clamped(x - 1, y + 1), p12 = src.at_clamped(x, y + 1),
                p22 = src.at_clamped(x + 1, y + 1);
      const std::size_t i = std::size_t(y) * std::size_t(g.width) + std::size_t(x);
      g.dx[i] = static_cast<std::int16_t>((p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02));
      g.dy[i] = static_cast<std::int16_t>((p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20));
    }
  }
  return g;
}

Yuv RgbToYuv(Rgb c) noexcept {
  const double r = c.r, g = c.g, b = c.b;
  Yuv out;
  out.y = ClampByte(0.299 * r + 0.587 * g + 0.114 * b);
  out.u = ClampByte(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.0);
  out.v = ClampByte(0.5 * r - 0.418688 * g - 0.081312 * b + 128.0);
  return out;
}

Rgb YuvToRgb(Yuv c) noexcept {
  const double y = c.y, u = double(c.u) - 128.0, v = double(c.v) - 128.0;
  Rgb out;
  out.r = ClampByte(y + 1.402 * v);
  out.g = ClampByte(y - 0.344136 * u - 0.714136 * v);
  out.b = ClampByte(y + 1.772 * u);
  return out;
}

}  // namespace sieve::media
