#include "codec/transform.h"

#include <cmath>

#include "common/simd/kernels.h"

namespace sieve::codec {

// The 8x8 transform kernels live in the dispatch layer; the codec's block
// geometry must match theirs.
static_assert(kBlockSize == simd::kBlockDim && kBlockPixels == simd::kBlockLen);

namespace {

// JPEG Annex K base quantization matrices (quality-50 reference points).
constexpr std::array<int, kBlockPixels> kLumaBase = {
    16, 11, 10, 16, 24,  40,  51,  61,
    12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,
    14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,
    24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, kBlockPixels> kChromaBase = {
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99};

QuantTable MakeQuant(const std::array<int, kBlockPixels>& base, int qp) {
  if (qp < 1) qp = 1;
  if (qp > 51) qp = 51;
  // qp 26 uses the base matrix at ~1/4 strength; each +6 doubles step sizes
  // (H.264-style exponential ladder).
  const double scale = std::pow(2.0, (qp - 26) / 6.0) * 0.25;
  QuantTable q;
  for (int i = 0; i < kBlockPixels; ++i) {
    const double step = base[std::size_t(i)] * scale;
    q.step[std::size_t(i)] = std::int32_t(std::max(1.0, std::round(step)));
  }
  return q;
}

}  // namespace

void ForwardDct(const PixelBlock& in, std::array<float, kBlockPixels>& out) {
  simd::ActiveKernels().fdct8x8(in.data(), out.data());
}

void InverseDct(const std::array<float, kBlockPixels>& in, PixelBlock& out) {
  simd::ActiveKernels().idct8x8(in.data(), out.data());
}

QuantTable MakeLumaQuant(int qp) { return MakeQuant(kLumaBase, qp); }
QuantTable MakeChromaQuant(int qp) { return MakeQuant(kChromaBase, qp); }

void Quantize(const std::array<float, kBlockPixels>& dct, const QuantTable& q,
              CoeffBlock& out) {
  simd::ActiveKernels().quantize8x8(dct.data(), q.step.data(), out.data());
}

void Dequantize(const CoeffBlock& in, const QuantTable& q,
                std::array<float, kBlockPixels>& out) {
  simd::ActiveKernels().dequantize8x8(in.data(), q.step.data(), out.data());
}

const std::array<int, kBlockPixels>& ZigZagOrder() {
  static const std::array<int, kBlockPixels> order = [] {
    std::array<int, kBlockPixels> o{};
    int idx = 0;
    for (int s = 0; s < 2 * kBlockSize - 1; ++s) {
      if (s % 2 == 0) {
        // Walk up-right on even anti-diagonals.
        for (int y = std::min(s, kBlockSize - 1); y >= 0 && s - y < kBlockSize; --y) {
          o[std::size_t(idx++)] = y * kBlockSize + (s - y);
        }
      } else {
        for (int x = std::min(s, kBlockSize - 1); x >= 0 && s - x < kBlockSize; --x) {
          o[std::size_t(idx++)] = (s - x) * kBlockSize + x;
        }
      }
    }
    return o;
  }();
  return order;
}

void QuantizeBlock(const PixelBlock& src, const QuantTable& q,
                   CoeffBlock& coeffs) {
  std::array<float, kBlockPixels> dct;
  ForwardDct(src, dct);
  Quantize(dct, q, coeffs);
}

void ReconstructBlock(const PixelBlock& src, const QuantTable& q,
                      CoeffBlock& coeffs, PixelBlock& recon) {
  QuantizeBlock(src, q, coeffs);
  DecodeBlock(coeffs, q, recon);
}

void DecodeBlock(const CoeffBlock& coeffs, const QuantTable& q, PixelBlock& out) {
  std::array<float, kBlockPixels> dct;
  Dequantize(coeffs, q, dct);
  InverseDct(dct, out);
}

}  // namespace sieve::codec
