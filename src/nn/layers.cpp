#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/simd/kernels.h"

namespace sieve::nn {

namespace {

/// He-normal initializer for convolution / linear weights.
void HeInit(std::vector<float>& w, std::size_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / double(std::max<std::size_t>(1, fan_in)));
  for (auto& v : w) v = float(rng.Gaussian(0.0, stddev));
}

}  // namespace

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weights_(std::size_t(out_channels) * std::size_t(in_channels) *
               std::size_t(kernel) * std::size_t(kernel)),
      bias_(std::size_t(out_channels), 0.0f) {
  HeInit(weights_, std::size_t(in_channels) * std::size_t(kernel) * std::size_t(kernel),
         rng);
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << "conv" << kernel_ << "x" << kernel_ << "_" << in_c_ << "->" << out_c_
     << "_s" << stride_;
  return os.str();
}

Shape Conv2D::OutputShape(const Shape& input) const {
  assert(input.c == in_c_);
  const int oh = (input.h + 2 * pad_ - kernel_) / stride_ + 1;
  const int ow = (input.w + 2 * pad_ - kernel_) / stride_ + 1;
  return Shape{out_c_, oh, ow};
}

void Conv2D::Im2Col(const Tensor& input, const Shape& out_shape,
                    float* cols) const {
  const int oh = out_shape.h, ow = out_shape.w;
  const int ih = input.shape().h, iw = input.shape().w;
  const int s = stride_;
  const std::size_t hw = std::size_t(oh) * std::size_t(ow);
  // ceil(num / s) for either sign of num.
  const auto ceil_div = [s](int num) {
    return num <= 0 ? -(-num / s) : (num + s - 1) / s;
  };
  float* row = cols;
  for (int c = 0; c < in_c_; ++c) {
    const float* chan =
        input.data() + std::size_t(c) * std::size_t(ih) * std::size_t(iw);
    for (int ky = 0; ky < kernel_; ++ky) {
      for (int kx = 0; kx < kernel_; ++kx, row += hw) {
        // Output columns [ox_lo, ox_hi) read input column ox*s + kx - pad
        // inside [0, iw); the rest are zero padding.
        const int ox_lo = std::clamp(ceil_div(pad_ - kx), 0, ow);
        const int ox_hi = std::clamp(ceil_div(iw + pad_ - kx), ox_lo, ow);
        for (int oy = 0; oy < oh; ++oy) {
          float* dst = row + std::size_t(oy) * std::size_t(ow);
          const int iy = oy * s + ky - pad_;
          if (iy < 0 || iy >= ih) {
            std::fill(dst, dst + ow, 0.0f);
            continue;
          }
          const float* src = chan + std::size_t(iy) * std::size_t(iw);
          int ox = 0;
          for (; ox < ox_lo; ++ox) dst[ox] = 0.0f;
          for (; ox < ox_hi; ++ox) dst[ox] = src[ox * s + kx - pad_];
          for (; ox < ow; ++ox) dst[ox] = 0.0f;
        }
      }
    }
  }
}

Tensor Conv2D::Forward(const Tensor& input) const {
  const Shape out_shape = OutputShape(input.shape());
  const int hw = out_shape.h * out_shape.w;
  const int patch = in_c_ * kernel_ * kernel_;

  // The im2col scratch is thread-local — it persists across calls
  // (steady-state inference never allocates) yet keeps concurrent Forward
  // calls on one shared instance race-free, which is what lets every
  // runtime session share a classifier.
  static thread_local std::vector<float> cols;
  cols.resize(std::size_t(patch) * std::size_t(hw));
  Im2Col(input, out_shape, cols.data());

  // Channel-major GEMM: weights [out_c x patch] * cols [patch x hw] is the
  // CHW output itself. Each element is the same k-ascending dot product a
  // pixel-major GEMM computes (a*b == b*a exactly), so the layout is
  // invisible in the bits.
  Tensor out(out_shape);
  const simd::KernelTable& kernels = simd::ActiveKernels();
  kernels.gemm_f32(weights_.data(), patch, cols.data(), hw, out.data(), hw,
                   out_c_, hw, patch);
  kernels.scale_shift_rows_f32(out.data(), out_c_, std::size_t(hw), nullptr,
                               bias_.data());
  return out;
}

std::uint64_t Conv2D::Macs(const Shape& input) const {
  const Shape out = OutputShape(input);
  return std::uint64_t(out.elements()) * std::uint64_t(in_c_) *
         std::uint64_t(kernel_) * std::uint64_t(kernel_);
}

BatchNorm::BatchNorm(int channels, Rng& rng)
    : scale_(std::size_t(channels)), shift_(std::size_t(channels)) {
  // Seeded "trained" statistics: scales around 1, shifts around 0.
  for (auto& s : scale_) s = float(rng.Uniform(0.8, 1.2));
  for (auto& s : shift_) s = float(rng.Gaussian(0.0, 0.05));
}

Tensor BatchNorm::Forward(const Tensor& input) const {
  Tensor out = input;
  ForwardInPlace(out);
  return out;
}

void BatchNorm::ForwardInPlace(Tensor& t) const {
  const Shape& s = t.shape();
  simd::ActiveKernels().scale_shift_rows_f32(
      t.data(), s.c, std::size_t(s.h) * std::size_t(s.w), scale_.data(),
      shift_.data());
}

Tensor LeakyRelu::Forward(const Tensor& input) const {
  Tensor out = input;
  ForwardInPlace(out);
  return out;
}

void LeakyRelu::ForwardInPlace(Tensor& t) const {
  simd::ActiveKernels().leaky_relu_f32(t.data(), t.size(), slope_);
}

Shape MaxPool::OutputShape(const Shape& input) const {
  return Shape{input.c, std::max(1, input.h / size_), std::max(1, input.w / size_)};
}

Tensor MaxPool::Forward(const Tensor& input) const {
  const Shape& in = input.shape();
  Tensor out(OutputShape(in));
  simd::ActiveKernels().max_pool_f32(input.data(), in.c, in.h, in.w, size_,
                                     out.data());
  return out;
}

Tensor GlobalAvgPool::Forward(const Tensor& input) const {
  const Shape& s = input.shape();
  Tensor out(Shape{s.c, 1, 1});
  const double n = double(s.h) * double(s.w);
  for (int c = 0; c < s.c; ++c) {
    double acc = 0;
    for (int y = 0; y < s.h; ++y) {
      for (int x = 0; x < s.w; ++x) acc += input.at(c, y, x);
    }
    out.at(c, 0, 0) = float(acc / n);
  }
  return out;
}

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weights_(std::size_t(in_features) * std::size_t(out_features)),
      bias_(std::size_t(out_features), 0.0f) {
  HeInit(weights_, std::size_t(in_features), rng);
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "linear_" << in_f_ << "->" << out_f_;
  return os.str();
}

Shape Linear::OutputShape(const Shape& input) const {
  assert(int(input.elements()) == in_f_);
  (void)input;
  return Shape{out_f_, 1, 1};
}

Tensor Linear::Forward(const Tensor& input) const {
  assert(int(input.size()) == in_f_);
  Tensor out(Shape{out_f_, 1, 1});
  for (int o = 0; o < out_f_; ++o) {
    double acc = bias_[std::size_t(o)];
    const float* wrow = weights_.data() + std::size_t(o) * std::size_t(in_f_);
    const float* in = input.data();
    for (int i = 0; i < in_f_; ++i) acc += double(wrow[i]) * double(in[i]);
    out.at(o, 0, 0) = float(acc);
  }
  return out;
}

std::uint64_t Linear::Macs(const Shape&) const {
  return std::uint64_t(in_f_) * std::uint64_t(out_f_);
}

Tensor Softmax::Forward(const Tensor& input) const {
  Tensor out = input;
  ForwardInPlace(out);
  return out;
}

void Softmax::ForwardInPlace(Tensor& t) const {
  float peak = -std::numeric_limits<float>::infinity();
  for (float v : t.values()) peak = std::max(peak, v);
  double sum = 0;
  for (auto& v : t.values()) {
    v = std::exp(v - peak);
    sum += v;
  }
  if (sum > 0) {
    for (auto& v : t.values()) v = float(double(v) / sum);
  }
}

}  // namespace sieve::nn
