// NEON kernel table — same bit-exactness construction as the SSE2 one:
// vectorize across independent outputs, accumulate each lane's inner sum in
// scalar order, and use only separate vmulq_f32/vaddq_f32 (never vmlaq/fmla,
// which would fuse without the intermediate rounding the scalar path has).
// Rounding replicates std::lround via truncate + exact-fraction compare.
// The fp32 inference entries point at the shared scalar kernels
// (kernels_internal.h): bit-exact by construction, vectorizing them is open.
//
// Compiled only under __ARM_NEON; elsewhere the accessor returns nullptr and
// the dispatcher falls back to scalar.
#include "common/simd/kernels_internal.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define SIEVE_HAVE_NEON 1
#include <arm_neon.h>
#else
#define SIEVE_HAVE_NEON 0
#endif

namespace sieve::simd {

#if SIEVE_HAVE_NEON

namespace {

// -------------------------------------------------------------------- SAD --

inline std::uint32_t HorizontalAddU32(uint32x4_t v) {
#if defined(__aarch64__)
  return vaddvq_u32(v);
#else
  const uint64x2_t pair = vpaddlq_u32(v);
  return std::uint32_t(vgetq_lane_u64(pair, 0) + vgetq_lane_u64(pair, 1));
#endif
}

inline std::uint32_t SadRow16(const std::uint8_t* a, const std::uint8_t* b) {
  const uint8x16_t d = vabdq_u8(vld1q_u8(a), vld1q_u8(b));
  return HorizontalAddU32(vpaddlq_u16(vpaddlq_u8(d)));
}

std::uint32_t SadRowNeon(const std::uint8_t* a, const std::uint8_t* b, int w) {
  std::uint32_t acc = 0;
  int x = 0;
  for (; x + 16 <= w; x += 16) acc += SadRow16(a + x, b + x);
  if (x + 8 <= w) {
    const uint8x8_t d = vabd_u8(vld1_u8(a + x), vld1_u8(b + x));
    const uint32x2_t pair = vpaddl_u16(vpaddl_u8(d));
    acc += vget_lane_u32(pair, 0) + vget_lane_u32(pair, 1);
    x += 8;
  }
  for (; x < w; ++x) {
    acc += std::uint32_t(a[x] < b[x] ? b[x] - a[x] : a[x] - b[x]);
  }
  return acc;
}

std::uint64_t Sad16xHNeon(const std::uint8_t* a, int a_stride,
                          const std::uint8_t* b, int b_stride, int h) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRow16(a + std::ptrdiff_t(y) * a_stride,
                    b + std::ptrdiff_t(y) * b_stride);
  }
  return acc;
}

std::uint64_t SadBoundedNeon(const std::uint8_t* a, int a_stride,
                             const std::uint8_t* b, int b_stride, int w, int h,
                             std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowNeon(a + std::ptrdiff_t(y) * a_stride,
                      b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------------- transforms --

/// std::lround on 4 lanes (half away from zero), exact for |v| < 2^23.
inline int32x4_t LroundF32(float32x4_t v) {
  const int32x4_t trunc = vcvtq_s32_f32(v);        // toward zero
  const float32x4_t trunc_f = vcvtq_f32_s32(trunc);
  const float32x4_t frac = vsubq_f32(v, trunc_f);  // exact
  const uint32x4_t away =
      vcgeq_f32(vabsq_f32(frac), vdupq_n_f32(0.5f));
  const uint32x4_t neg = vcltq_f32(v, vdupq_n_f32(0.0f));
  const int32x4_t round_up =
      vreinterpretq_s32_u32(vandq_u32(away, vdupq_n_u32(1)));
  const int32x4_t neg_mask = vreinterpretq_s32_u32(neg);
  // +1 where rounding away and v >= 0, -1 where rounding away and v < 0.
  const int32x4_t adjust =
      vsubq_s32(veorq_s32(round_up, neg_mask), neg_mask);
  return vaddq_s32(trunc, adjust);
}

void Fdct8x8Neon(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]; lanes = k, scan order = x.
  for (int y = 0; y < kBlockDim; ++y) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int x = 0; x < kBlockDim; ++x) {
      const float32x4_t s = vdupq_n_f32(float(in[y * kBlockDim + x]));
      acc_lo = vaddq_f32(acc_lo,
                         vmulq_f32(s, vld1q_f32(t.basis_t + x * kBlockDim)));
      acc_hi = vaddq_f32(
          acc_hi, vmulq_f32(s, vld1q_f32(t.basis_t + x * kBlockDim + 4)));
    }
    vst1q_f32(tmp + y * kBlockDim, acc_lo);
    vst1q_f32(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]; lanes = k, order = y.
  for (int v = 0; v < kBlockDim; ++v) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int y = 0; y < kBlockDim; ++y) {
      const float32x4_t s = vdupq_n_f32(t.basis[v * kBlockDim + y]);
      acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(tmp + y * kBlockDim), s));
      acc_hi =
          vaddq_f32(acc_hi, vmulq_f32(vld1q_f32(tmp + y * kBlockDim + 4), s));
    }
    vst1q_f32(out + v * kBlockDim, acc_lo);
    vst1q_f32(out + v * kBlockDim + 4, acc_hi);
  }
}

void Idct8x8Neon(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]; lanes = k.
  for (int y = 0; y < kBlockDim; ++y) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int v = 0; v < kBlockDim; ++v) {
      const float32x4_t s = vdupq_n_f32(t.basis[v * kBlockDim + y]);
      acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(in + v * kBlockDim), s));
      acc_hi =
          vaddq_f32(acc_hi, vmulq_f32(vld1q_f32(in + v * kBlockDim + 4), s));
    }
    vst1q_f32(tmp + y * kBlockDim, acc_lo);
    vst1q_f32(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Rows: out[y][x] = round(sum_k tmp[y][k] * C[k][x]); lanes = x.
  const float32x4_t hi_clamp = vdupq_n_f32(32767.0f);
  const float32x4_t lo_clamp = vdupq_n_f32(-32768.0f);
  for (int y = 0; y < kBlockDim; ++y) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int k = 0; k < kBlockDim; ++k) {
      const float32x4_t s = vdupq_n_f32(tmp[y * kBlockDim + k]);
      acc_lo =
          vaddq_f32(acc_lo, vmulq_f32(s, vld1q_f32(t.basis + k * kBlockDim)));
      acc_hi = vaddq_f32(acc_hi,
                         vmulq_f32(s, vld1q_f32(t.basis + k * kBlockDim + 4)));
    }
    // Clamp in float THEN round: equivalent to scalar's lround-then-clamp
    // for finite inputs, and keeps the convert in exact int32 range.
    acc_lo = vmaxq_f32(vminq_f32(acc_lo, hi_clamp), lo_clamp);
    acc_hi = vmaxq_f32(vminq_f32(acc_hi, hi_clamp), lo_clamp);
    const int16x8_t packed =
        vcombine_s16(vqmovn_s32(LroundF32(acc_lo)), vqmovn_s32(LroundF32(acc_hi)));
    vst1q_s16(out + y * kBlockDim, packed);
  }
}

void Quantize8x8Neon(const float* dct, const std::int32_t* step,
                     std::int32_t* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const float32x4_t num = vld1q_f32(dct + i);
    const float32x4_t den = vcvtq_f32_s32(vld1q_s32(step + i));
#if defined(__aarch64__)
    const float32x4_t v = vdivq_f32(num, den);  // IEEE-exact division
    vst1q_s32(out + i, LroundF32(v));
#else
    // ARMv7 NEON has no vector divide; IEEE-exact scalar division per lane.
    float n[4], d[4];
    vst1q_f32(n, num);
    vst1q_f32(d, den);
    alignas(16) float q[4];
    for (int lane = 0; lane < 4; ++lane) q[lane] = n[lane] / d[lane];
    vst1q_s32(out + i, LroundF32(vld1q_f32(q)));
#endif
  }
}

void Dequantize8x8Neon(const std::int32_t* in, const std::int32_t* step,
                       float* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const float32x4_t a = vcvtq_f32_s32(vld1q_s32(in + i));
    const float32x4_t b = vcvtq_f32_s32(vld1q_s32(step + i));
    vst1q_f32(out + i, vmulq_f32(a, b));
  }
}

const KernelTable kNeonTable = {
    "neon",        SadRowNeon,      Sad16xHNeon,      SadBoundedNeon,
    Fdct8x8Neon,   Idct8x8Neon,     Quantize8x8Neon,  Dequantize8x8Neon,
    GemmF32Scalar, ScaleShiftRowsF32Scalar, LeakyReluF32Scalar,
    MaxPoolF32Scalar,
};

}  // namespace

const KernelTable* NeonKernelTable() noexcept { return &kNeonTable; }

#else  // !SIEVE_HAVE_NEON

const KernelTable* NeonKernelTable() noexcept { return nullptr; }

#endif

}  // namespace sieve::simd
