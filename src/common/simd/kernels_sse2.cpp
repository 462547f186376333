// SSE2 kernel table. Bit-exact with the scalar table by construction:
//
//  * SAD uses psadbw — an exact integer reduction.
//  * The DCT/IDCT vectorize across the 8 *outputs* of each butterfly-free
//    stage (4 lanes at a time) while each lane accumulates its inner sum in
//    the same sequential order as the scalar loops, using only IEEE-exact
//    _mm_mul_ps/_mm_add_ps (SSE2 has no FMA, and this TU is built with
//    -ffp-contract=off like the scalar one).
//  * The fp32 GEMM keeps a 4x8 output tile in eight xmm accumulators and
//    adds one _mm_mul_ps product per k step to each, k ascending — the
//    scalar reference's per-output operation sequence. The elementwise
//    kernels are one mul/add/compare per lane (LeakyRelu selects with
//    and/andnot/or: SSE2 has no blendv).
//  * Rounding replicates std::lround (half away from zero) via
//    truncate + exact-fraction compare: for |v| < 2^23 both v and trunc(v)
//    are exactly representable and their difference is exact, so the
//    |frac| >= 0.5 test reproduces lround on the true float value.
//
// Compiled only where SSE2 exists; elsewhere the accessor returns nullptr
// and the dispatcher falls back to scalar.
#include "common/simd/kernels_internal.h"

#include <algorithm>
#include <limits>

#if defined(__SSE2__) || defined(__x86_64__)
#define SIEVE_HAVE_SSE2 1
#include <emmintrin.h>
#else
#define SIEVE_HAVE_SSE2 0
#endif

namespace sieve::simd {

#if SIEVE_HAVE_SSE2

namespace {

// -------------------------------------------------------------------- SAD --

inline std::uint32_t HorizontalSad(__m128i sad) {
  // _mm_sad_epu8 leaves two 16-bit sums in the low words of each 64-bit lane.
  return std::uint32_t(_mm_cvtsi128_si32(sad)) +
         std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(sad, 8)));
}

inline std::uint32_t SadRow16(const std::uint8_t* a, const std::uint8_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return HorizontalSad(_mm_sad_epu8(va, vb));
}

std::uint32_t SadRowSse2(const std::uint8_t* a, const std::uint8_t* b, int w) {
  std::uint32_t acc = 0;
  int x = 0;
  for (; x + 16 <= w; x += 16) acc += SadRow16(a + x, b + x);
  if (x + 8 <= w) {
    const __m128i va =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + x));
    const __m128i vb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + x));
    acc += std::uint32_t(_mm_cvtsi128_si32(_mm_sad_epu8(va, vb)));
    x += 8;
  }
  for (; x < w; ++x) {
    acc += std::uint32_t(a[x] < b[x] ? b[x] - a[x] : a[x] - b[x]);
  }
  return acc;
}

std::uint64_t Sad16xHSse2(const std::uint8_t* a, int a_stride,
                          const std::uint8_t* b, int b_stride, int h) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRow16(a + std::ptrdiff_t(y) * a_stride,
                    b + std::ptrdiff_t(y) * b_stride);
  }
  return acc;
}

std::uint64_t SadBoundedSse2(const std::uint8_t* a, int a_stride,
                             const std::uint8_t* b, int b_stride, int w, int h,
                             std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowSse2(a + std::ptrdiff_t(y) * a_stride,
                      b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------------- transforms --

/// std::lround on 4 lanes (half away from zero), exact for |v| < 2^23.
inline __m128i LroundPs(__m128 v) {
  const __m128i trunc = _mm_cvttps_epi32(v);
  const __m128 trunc_f = _mm_cvtepi32_ps(trunc);  // exact for |v| < 2^23
  const __m128 frac = _mm_sub_ps(v, trunc_f);     // exact (Sterbenz-range)
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128 abs_frac = _mm_and_ps(frac, abs_mask);
  const __m128i round_up = _mm_and_si128(
      _mm_castps_si128(_mm_cmpge_ps(abs_frac, _mm_set1_ps(0.5f))),
      _mm_set1_epi32(1));
  const __m128i neg_mask =
      _mm_castps_si128(_mm_cmplt_ps(v, _mm_setzero_ps()));
  // +1 where rounding away and v >= 0, -1 where rounding away and v < 0.
  const __m128i adjust =
      _mm_sub_epi32(_mm_xor_si128(round_up, neg_mask), neg_mask);
  return _mm_add_epi32(trunc, adjust);
}

void Fdct8x8Sse2(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  alignas(16) float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]; lanes = k, scan order = x.
  for (int y = 0; y < kBlockDim; ++y) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int x = 0; x < kBlockDim; ++x) {
      const __m128 s = _mm_set1_ps(float(in[y * kBlockDim + x]));
      acc_lo = _mm_add_ps(acc_lo,
                          _mm_mul_ps(s, _mm_load_ps(t.basis_t + x * kBlockDim)));
      acc_hi = _mm_add_ps(
          acc_hi, _mm_mul_ps(s, _mm_load_ps(t.basis_t + x * kBlockDim + 4)));
    }
    _mm_store_ps(tmp + y * kBlockDim, acc_lo);
    _mm_store_ps(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]; lanes = k, order = y.
  for (int v = 0; v < kBlockDim; ++v) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int y = 0; y < kBlockDim; ++y) {
      const __m128 s = _mm_set1_ps(t.basis[v * kBlockDim + y]);
      acc_lo =
          _mm_add_ps(acc_lo, _mm_mul_ps(_mm_load_ps(tmp + y * kBlockDim), s));
      acc_hi = _mm_add_ps(acc_hi,
                          _mm_mul_ps(_mm_load_ps(tmp + y * kBlockDim + 4), s));
    }
    _mm_storeu_ps(out + v * kBlockDim, acc_lo);
    _mm_storeu_ps(out + v * kBlockDim + 4, acc_hi);
  }
}

void Idct8x8Sse2(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  alignas(16) float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]; lanes = k.
  for (int y = 0; y < kBlockDim; ++y) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int v = 0; v < kBlockDim; ++v) {
      const __m128 s = _mm_set1_ps(t.basis[v * kBlockDim + y]);
      acc_lo = _mm_add_ps(acc_lo,
                          _mm_mul_ps(_mm_loadu_ps(in + v * kBlockDim), s));
      acc_hi = _mm_add_ps(
          acc_hi, _mm_mul_ps(_mm_loadu_ps(in + v * kBlockDim + 4), s));
    }
    _mm_store_ps(tmp + y * kBlockDim, acc_lo);
    _mm_store_ps(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Rows: out[y][x] = round(sum_k tmp[y][k] * C[k][x]); lanes = x.
  const __m128 hi_clamp = _mm_set1_ps(32767.0f);
  const __m128 lo_clamp = _mm_set1_ps(-32768.0f);
  for (int y = 0; y < kBlockDim; ++y) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int k = 0; k < kBlockDim; ++k) {
      const __m128 s = _mm_set1_ps(tmp[y * kBlockDim + k]);
      acc_lo = _mm_add_ps(acc_lo,
                          _mm_mul_ps(s, _mm_load_ps(t.basis + k * kBlockDim)));
      acc_hi = _mm_add_ps(
          acc_hi, _mm_mul_ps(s, _mm_load_ps(t.basis + k * kBlockDim + 4)));
    }
    // Clamp in float THEN lround: equivalent to scalar's lround-then-clamp
    // for every finite input (the clamp bounds are exactly representable),
    // and it keeps cvttps inside the exact int32 range.
    acc_lo = _mm_max_ps(_mm_min_ps(acc_lo, hi_clamp), lo_clamp);
    acc_hi = _mm_max_ps(_mm_min_ps(acc_hi, hi_clamp), lo_clamp);
    const __m128i packed = _mm_packs_epi32(LroundPs(acc_lo), LroundPs(acc_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * kBlockDim), packed);
  }
}

void Quantize8x8Sse2(const float* dct, const std::int32_t* step,
                     std::int32_t* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const __m128 v = _mm_div_ps(
        _mm_loadu_ps(dct + i),
        _mm_cvtepi32_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(step + i))));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), LroundPs(v));
  }
}

void Dequantize8x8Sse2(const std::int32_t* in, const std::int32_t* step,
                       float* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const __m128 a = _mm_cvtepi32_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m128 b = _mm_cvtepi32_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(step + i)));
    _mm_storeu_ps(out + i, _mm_mul_ps(a, b));
  }
}

// ------------------------------------------------------------- fp32 GEMM --

// MR rows x 4*NV columns of C over K panel [p0, p1) (see the AVX2 twin).
template <int MR, int NV>
inline void GemmF32TileSse2(const float* a, int lda, const float* b, int ldb,
                            float* c, int ldc, int p0, int p1, bool first) {
  __m128 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = first ? _mm_setzero_ps()
                        : _mm_loadu_ps(c + std::ptrdiff_t(r) * ldc + 4 * v);
    }
  }
  for (int p = p0; p < p1; ++p) {
    const float* brow = b + std::ptrdiff_t(p) * ldb;
    __m128 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm_loadu_ps(brow + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m128 av = _mm_set1_ps(a[std::ptrdiff_t(r) * lda + p]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm_add_ps(acc[r][v], _mm_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      _mm_storeu_ps(c + std::ptrdiff_t(r) * ldc + 4 * v, acc[r][v]);
    }
  }
}

template <int NV>
void GemmF32ColumnsSse2(const float* a, int lda, const float* b, int ldb,
                        float* c, int ldc, int m, int p0, int p1, bool first) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmF32TileSse2<4, NV>(a + std::ptrdiff_t(i) * lda, lda, b, ldb,
                           c + std::ptrdiff_t(i) * ldc, ldc, p0, p1, first);
  }
  const float* ai = a + std::ptrdiff_t(i) * lda;
  float* ci = c + std::ptrdiff_t(i) * ldc;
  switch (m - i) {
    case 3: GemmF32TileSse2<3, NV>(ai, lda, b, ldb, ci, ldc, p0, p1, first); break;
    case 2: GemmF32TileSse2<2, NV>(ai, lda, b, ldb, ci, ldc, p0, p1, first); break;
    case 1: GemmF32TileSse2<1, NV>(ai, lda, b, ldb, ci, ldc, p0, p1, first); break;
    default: break;
  }
}

void GemmF32Sse2(const float* a, int lda, const float* b, int ldb, float* c,
                 int ldc, int m, int n, int k) {
  if (k <= 0) {
    GemmF32EdgeScalar(a, lda, b, ldb, c, ldc, m, n, 0, 0, true);
    return;
  }
  for (int p0 = 0; p0 < k; p0 += kGemmKc) {
    const int p1 = k - p0 < kGemmKc ? k : p0 + kGemmKc;
    const bool first = p0 == 0;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      GemmF32ColumnsSse2<2>(a, lda, b + j, ldb, c + j, ldc, m, p0, p1, first);
    }
    if (j + 4 <= n) {
      GemmF32ColumnsSse2<1>(a, lda, b + j, ldb, c + j, ldc, m, p0, p1, first);
      j += 4;
    }
    if (j < n) {
      GemmF32EdgeScalar(a, lda, b + j, ldb, c + j, ldc, m, n - j, p0, p1,
                        first);
    }
  }
}

// ------------------------------------------------------ fp32 elementwise --

void ScaleShiftRowsF32Sse2(float* x, int rows, std::size_t len,
                           const float* scale, const float* shift) {
  for (int r = 0; r < rows; ++r) {
    float* row = x + std::size_t(r) * len;
    const float t = shift[r];
    const __m128 vt = _mm_set1_ps(t);
    std::size_t i = 0;
    if (scale == nullptr) {
      for (; i + 4 <= len; i += 4) {
        _mm_storeu_ps(row + i, _mm_add_ps(_mm_loadu_ps(row + i), vt));
      }
      for (; i < len; ++i) row[i] = row[i] + t;
    } else {
      const float s = scale[r];
      const __m128 vs = _mm_set1_ps(s);
      for (; i + 4 <= len; i += 4) {
        _mm_storeu_ps(row + i,
                      _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(row + i), vs), vt));
      }
      for (; i < len; ++i) row[i] = row[i] * s + t;
    }
  }
}

void LeakyReluF32Sse2(float* x, std::size_t len, float slope) {
  const __m128 zero = _mm_setzero_ps();
  const __m128 vs = _mm_set1_ps(slope);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128 v = _mm_loadu_ps(x + i);
    const __m128 neg = _mm_cmplt_ps(v, zero);
    _mm_storeu_ps(x + i, _mm_or_ps(_mm_and_ps(neg, _mm_mul_ps(v, vs)),
                                   _mm_andnot_ps(neg, v)));
  }
  for (; i < len; ++i) {
    if (x[i] < 0) x[i] *= slope;
  }
}

// 2x2 windows, 4 outputs per step; _mm_max_ps(v, best) is std::max(best, v)
// exactly (see the AVX2 twin).
void MaxPoolF32Sse2(const float* in, int channels, int h, int w, int size,
                    float* out) {
  if (size != 2 || h < 2 || w < 2) {
    MaxPoolF32Scalar(in, channels, h, w, size, out);
    return;
  }
  const int oh = h / 2, ow = w / 2;
  const __m128 ninf = _mm_set1_ps(-std::numeric_limits<float>::infinity());
  for (int c = 0; c < channels; ++c) {
    const float* plane = in + std::size_t(c) * std::size_t(h) * std::size_t(w);
    for (int oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + std::size_t(2 * oy) * std::size_t(w);
      const float* r1 = r0 + w;
      int ox = 0;
      for (; ox + 4 <= ow; ox += 4) {
        const __m128 a0 = _mm_loadu_ps(r0 + 2 * ox);
        const __m128 a1 = _mm_loadu_ps(r0 + 2 * ox + 4);
        const __m128 b0 = _mm_loadu_ps(r1 + 2 * ox);
        const __m128 b1 = _mm_loadu_ps(r1 + 2 * ox + 4);
        __m128 best = _mm_max_ps(
            _mm_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)), ninf);
        best = _mm_max_ps(_mm_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)), best);
        best = _mm_max_ps(_mm_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), best);
        best = _mm_max_ps(_mm_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), best);
        _mm_storeu_ps(out + ox, best);
      }
      for (; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        best = std::max(best, r0[2 * ox]);
        best = std::max(best, r0[2 * ox + 1]);
        best = std::max(best, r1[2 * ox]);
        best = std::max(best, r1[2 * ox + 1]);
        out[ox] = best;
      }
      out += ow;
    }
  }
}

const KernelTable kSse2Table = {
    "sse2",        SadRowSse2,      Sad16xHSse2,      SadBoundedSse2,
    Fdct8x8Sse2,   Idct8x8Sse2,     Quantize8x8Sse2,  Dequantize8x8Sse2,
    GemmF32Sse2,   ScaleShiftRowsF32Sse2, LeakyReluF32Sse2, MaxPoolF32Sse2,
};

}  // namespace

const KernelTable* Sse2KernelTable() noexcept { return &kSse2Table; }

#else  // !SIEVE_HAVE_SSE2

const KernelTable* Sse2KernelTable() noexcept { return nullptr; }

#endif

}  // namespace sieve::simd
