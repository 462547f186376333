// AVX2 kernel table. Same bit-exactness construction as the SSE2 one, twice
// as wide:
//
//  * SAD uses vpsadbw (_mm256_sad_epu8) — an exact integer reduction — over
//    32-byte spans, with the 16/8/tail steps matching the SSE2 kernel.
//  * The DCT/IDCT vectorize across all 8 *outputs* of each stage in a single
//    ymm accumulator while each lane accumulates its inner sum in the same
//    sequential order as the scalar loops, using only IEEE-exact
//    _mm256_mul_ps/_mm256_add_ps (no FMA — this TU is built with
//    -ffp-contract=off like the others, and none is written by hand).
//  * Rounding replicates std::lround via the same truncate + exact-fraction
//    compare as the SSE2 LroundPs, on 8 lanes.
//  * The fp32 GEMM keeps a 4x16 output tile in eight ymm accumulators and
//    adds one _mm256_mul_ps product per k step to each, k ascending — the
//    scalar reference's operation sequence per output, 8 outputs per lane
//    group. The elementwise kernels are one mul/add/compare per lane.
//
// The TU is compiled with -mavx2 on x86 (see CMakeLists.txt); dispatch is
// CPUID-verified so the kernels never execute on a core without AVX2.
// Elsewhere the accessor returns nullptr and the dispatcher falls back.
#include "common/simd/kernels_internal.h"

#include <algorithm>
#include <limits>

#if defined(__AVX2__)
#define SIEVE_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SIEVE_HAVE_AVX2 0
#endif

namespace sieve::simd {

#if SIEVE_HAVE_AVX2

namespace {

// -------------------------------------------------------------------- SAD --

inline std::uint64_t HorizontalSad64(__m256i sad) {
  // _mm256_sad_epu8 leaves four 16-bit sums in the low words of each 64-bit
  // lane; fold the two 128-bit halves, then the two 64-bit halves.
  const __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(sad),
                                    _mm256_extracti128_si256(sad, 1));
  return std::uint64_t(std::uint32_t(_mm_cvtsi128_si32(sum))) +
         std::uint64_t(std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(sum, 8))));
}

inline std::uint32_t SadRow32(const std::uint8_t* a, const std::uint8_t* b) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return std::uint32_t(HorizontalSad64(_mm256_sad_epu8(va, vb)));
}

inline std::uint32_t SadRow16(const std::uint8_t* a, const std::uint8_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i sad = _mm_sad_epu8(va, vb);
  return std::uint32_t(_mm_cvtsi128_si32(sad)) +
         std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(sad, 8)));
}

std::uint32_t SadRowAvx2(const std::uint8_t* a, const std::uint8_t* b, int w) {
  std::uint32_t acc = 0;
  int x = 0;
  for (; x + 32 <= w; x += 32) acc += SadRow32(a + x, b + x);
  if (x + 16 <= w) {
    acc += SadRow16(a + x, b + x);
    x += 16;
  }
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

std::uint64_t Sad16xHAvx2(const std::uint8_t* a, int a_stride,
                          const std::uint8_t* b, int b_stride, int h) {
  // Two 16-byte rows per vpsadbw. Integer SAD is exact under any grouping,
  // so pairing rows changes nothing observable.
  __m256i vacc = _mm256_setzero_si256();
  int y = 0;
  for (; y + 2 <= h; y += 2) {
    const std::uint8_t* a0 = a + std::ptrdiff_t(y) * a_stride;
    const std::uint8_t* b0 = b + std::ptrdiff_t(y) * b_stride;
    const __m256i va = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + a_stride)), 1);
    const __m256i vb = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + b_stride)), 1);
    vacc = _mm256_add_epi64(vacc, _mm256_sad_epu8(va, vb));
  }
  std::uint64_t acc = HorizontalSad64(vacc);
  if (y < h) {
    acc += SadRow16(a + std::ptrdiff_t(y) * a_stride,
                    b + std::ptrdiff_t(y) * b_stride);
  }
  return acc;
}

std::uint64_t SadBoundedAvx2(const std::uint8_t* a, int a_stride,
                             const std::uint8_t* b, int b_stride, int w, int h,
                             std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowAvx2(a + std::ptrdiff_t(y) * a_stride,
                      b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------------- transforms --

/// std::lround on 8 lanes (half away from zero), exact for |v| < 2^23.
inline __m256i LroundPs(__m256 v) {
  const __m256i trunc = _mm256_cvttps_epi32(v);
  const __m256 trunc_f = _mm256_cvtepi32_ps(trunc);  // exact for |v| < 2^23
  const __m256 frac = _mm256_sub_ps(v, trunc_f);     // exact (Sterbenz-range)
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 abs_frac = _mm256_and_ps(frac, abs_mask);
  const __m256i round_up = _mm256_and_si256(
      _mm256_castps_si256(
          _mm256_cmp_ps(abs_frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ)),
      _mm256_set1_epi32(1));
  const __m256i neg_mask = _mm256_castps_si256(
      _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ));
  // +1 where rounding away and v >= 0, -1 where rounding away and v < 0.
  const __m256i adjust =
      _mm256_sub_epi32(_mm256_xor_si256(round_up, neg_mask), neg_mask);
  return _mm256_add_epi32(trunc, adjust);
}

void Fdct8x8Avx2(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  alignas(32) float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]; all 8 k-lanes in one ymm,
  // scan order = x (identical per-lane accumulation order to scalar).
  for (int y = 0; y < kBlockDim; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int x = 0; x < kBlockDim; ++x) {
      const __m256 s = _mm256_set1_ps(float(in[y * kBlockDim + x]));
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(s, _mm256_loadu_ps(t.basis_t + x * kBlockDim)));
    }
    _mm256_store_ps(tmp + y * kBlockDim, acc);
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]; lanes = k, order = y.
  for (int v = 0; v < kBlockDim; ++v) {
    __m256 acc = _mm256_setzero_ps();
    for (int y = 0; y < kBlockDim; ++y) {
      const __m256 s = _mm256_set1_ps(t.basis[v * kBlockDim + y]);
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(_mm256_load_ps(tmp + y * kBlockDim), s));
    }
    _mm256_storeu_ps(out + v * kBlockDim, acc);
  }
}

void Idct8x8Avx2(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  alignas(32) float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]; lanes = k.
  for (int y = 0; y < kBlockDim; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int v = 0; v < kBlockDim; ++v) {
      const __m256 s = _mm256_set1_ps(t.basis[v * kBlockDim + y]);
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(_mm256_loadu_ps(in + v * kBlockDim), s));
    }
    _mm256_store_ps(tmp + y * kBlockDim, acc);
  }
  // Rows: out[y][x] = round(sum_k tmp[y][k] * C[k][x]); lanes = x.
  const __m256 hi_clamp = _mm256_set1_ps(32767.0f);
  const __m256 lo_clamp = _mm256_set1_ps(-32768.0f);
  for (int y = 0; y < kBlockDim; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = 0; k < kBlockDim; ++k) {
      const __m256 s = _mm256_set1_ps(tmp[y * kBlockDim + k]);
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(s, _mm256_loadu_ps(t.basis + k * kBlockDim)));
    }
    // Clamp in float THEN lround: equivalent to scalar's lround-then-clamp
    // for every finite input (the clamp bounds are exactly representable),
    // and it keeps cvttps inside the exact int32 range.
    acc = _mm256_max_ps(_mm256_min_ps(acc, hi_clamp), lo_clamp);
    const __m256i r = LroundPs(acc);
    const __m128i packed = _mm_packs_epi32(_mm256_castsi256_si128(r),
                                           _mm256_extracti128_si256(r, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * kBlockDim), packed);
  }
}

void Quantize8x8Avx2(const float* dct, const std::int32_t* step,
                     std::int32_t* out) {
  for (int i = 0; i < kBlockLen; i += 8) {
    const __m256 v = _mm256_div_ps(
        _mm256_loadu_ps(dct + i),
        _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(step + i))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), LroundPs(v));
  }
}

void Dequantize8x8Avx2(const std::int32_t* in, const std::int32_t* step,
                       float* out) {
  for (int i = 0; i < kBlockLen; i += 8) {
    const __m256 a = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i)));
    const __m256 b = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(step + i)));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(a, b));
  }
}

// ------------------------------------------------------------- fp32 GEMM --

// MR rows x 8*NV columns of C over K panel [p0, p1): each ymm accumulator
// holds 8 independent outputs; every k step adds one product per output.
template <int MR, int NV>
inline void GemmF32TileAvx2(const float* a, int lda, const float* b, int ldb,
                            float* c, int ldc, int p0, int p1, bool first) {
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = first ? _mm256_setzero_ps()
                        : _mm256_loadu_ps(c + std::ptrdiff_t(r) * ldc + 8 * v);
    }
  }
  for (int p = p0; p < p1; ++p) {
    const float* brow = b + std::ptrdiff_t(p) * ldb;
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + std::ptrdiff_t(r) * lda + p);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_ps(c + std::ptrdiff_t(r) * ldc + 8 * v, acc[r][v]);
    }
  }
}

// All m rows of one 8*NV-wide column block: 4-row tiles, then the 1-3 row
// remainder as a shorter tile.
template <int NV>
void GemmF32ColumnsAvx2(const float* a, int lda, const float* b, int ldb,
                        float* c, int ldc, int m, int p0, int p1, bool first) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmF32TileAvx2<4, NV>(a + std::ptrdiff_t(i) * lda, lda, b, ldb,
                           c + std::ptrdiff_t(i) * ldc, ldc, p0, p1, first);
  }
  const float* ai = a + std::ptrdiff_t(i) * lda;
  float* ci = c + std::ptrdiff_t(i) * ldc;
  switch (m - i) {
    case 3: GemmF32TileAvx2<3, NV>(ai, lda, b, ldb, ci, ldc, p0, p1, first); break;
    case 2: GemmF32TileAvx2<2, NV>(ai, lda, b, ldb, ci, ldc, p0, p1, first); break;
    case 1: GemmF32TileAvx2<1, NV>(ai, lda, b, ldb, ci, ldc, p0, p1, first); break;
    default: break;
  }
}

void GemmF32Avx2(const float* a, int lda, const float* b, int ldb, float* c,
                 int ldc, int m, int n, int k) {
  if (k <= 0) {
    GemmF32EdgeScalar(a, lda, b, ldb, c, ldc, m, n, 0, 0, true);
    return;
  }
  for (int p0 = 0; p0 < k; p0 += kGemmKc) {
    const int p1 = k - p0 < kGemmKc ? k : p0 + kGemmKc;
    const bool first = p0 == 0;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      GemmF32ColumnsAvx2<2>(a, lda, b + j, ldb, c + j, ldc, m, p0, p1, first);
    }
    if (j + 8 <= n) {
      GemmF32ColumnsAvx2<1>(a, lda, b + j, ldb, c + j, ldc, m, p0, p1, first);
      j += 8;
    }
    if (j < n) {
      GemmF32EdgeScalar(a, lda, b + j, ldb, c + j, ldc, m, n - j, p0, p1,
                        first);
    }
  }
}

// ------------------------------------------------------ fp32 elementwise --

void ScaleShiftRowsF32Avx2(float* x, int rows, std::size_t len,
                           const float* scale, const float* shift) {
  for (int r = 0; r < rows; ++r) {
    float* row = x + std::size_t(r) * len;
    const float t = shift[r];
    const __m256 vt = _mm256_set1_ps(t);
    std::size_t i = 0;
    if (scale == nullptr) {
      for (; i + 8 <= len; i += 8) {
        _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i), vt));
      }
      for (; i < len; ++i) row[i] = row[i] + t;
    } else {
      const float s = scale[r];
      const __m256 vs = _mm256_set1_ps(s);
      for (; i + 8 <= len; i += 8) {
        _mm256_storeu_ps(
            row + i,
            _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(row + i), vs), vt));
      }
      for (; i < len; ++i) row[i] = row[i] * s + t;
    }
  }
}

// Branch-free: the product is computed for every lane and selected only
// where x < 0 (ordered compare — NaN and -0.0 keep their own bits).
void LeakyReluF32Avx2(float* x, std::size_t len, float slope) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(x + i, _mm256_blendv_ps(v, _mm256_mul_ps(v, vs), neg));
  }
  for (; i < len; ++i) {
    if (x[i] < 0) x[i] *= slope;
  }
}

// Even / odd elements of the 16 floats in (lo, hi), in order.
inline __m256 EvensAvx2(__m256 lo, __m256 hi) {
  const __m256 e = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(e), _MM_SHUFFLE(3, 1, 2, 0)));
}
inline __m256 OddsAvx2(__m256 lo, __m256 hi) {
  const __m256 o = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(o), _MM_SHUFFLE(3, 1, 2, 0)));
}

// 2x2 windows, 8 outputs per step. _mm256_max_ps(v, best) returns
// v > best ? v : best — std::max(best, v) exactly, NaN and signed-zero ties
// included — applied in the reference's window order.
void MaxPoolF32Avx2(const float* in, int channels, int h, int w, int size,
                    float* out) {
  if (size != 2 || h < 2 || w < 2) {
    MaxPoolF32Scalar(in, channels, h, w, size, out);
    return;
  }
  const int oh = h / 2, ow = w / 2;
  const __m256 ninf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  for (int c = 0; c < channels; ++c) {
    const float* plane = in + std::size_t(c) * std::size_t(h) * std::size_t(w);
    for (int oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + std::size_t(2 * oy) * std::size_t(w);
      const float* r1 = r0 + w;
      int ox = 0;
      for (; ox + 8 <= ow; ox += 8) {
        const __m256 a0 = _mm256_loadu_ps(r0 + 2 * ox);
        const __m256 a1 = _mm256_loadu_ps(r0 + 2 * ox + 8);
        const __m256 b0 = _mm256_loadu_ps(r1 + 2 * ox);
        const __m256 b1 = _mm256_loadu_ps(r1 + 2 * ox + 8);
        __m256 best = _mm256_max_ps(EvensAvx2(a0, a1), ninf);
        best = _mm256_max_ps(OddsAvx2(a0, a1), best);
        best = _mm256_max_ps(EvensAvx2(b0, b1), best);
        best = _mm256_max_ps(OddsAvx2(b0, b1), best);
        _mm256_storeu_ps(out + ox, best);
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

const KernelTable kAvx2Table = {
    "avx2",        SadRowAvx2,      Sad16xHAvx2,      SadBoundedAvx2,
    Fdct8x8Avx2,   Idct8x8Avx2,     Quantize8x8Avx2,  Dequantize8x8Avx2,
    GemmF32Avx2,   ScaleShiftRowsF32Avx2, LeakyReluF32Avx2, MaxPoolF32Avx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() noexcept { return &kAvx2Table; }

#else  // !SIEVE_HAVE_AVX2

const KernelTable* Avx2KernelTable() noexcept { return nullptr; }

#endif

}  // namespace sieve::simd
