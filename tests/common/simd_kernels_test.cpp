// Scalar-vs-SIMD kernel equivalence: every architecture compiled into this
// binary must be BIT-exact with the scalar reference table — float DCT/IDCT
// outputs, lround rounding (half away from zero, including exact .5
// quotients), SAD over unaligned widths and strides, and the row-granular
// early-termination values of the bounded SAD; and the fp32 inference
// kernels (GEMM over ragged shapes and K panels, the conv epilogue, max
// pooling) on signed zeros, denormals, NaN and large values. Plus the
// dispatch machinery itself and the clamped out-of-bounds compensation path
// the region helpers guard.
#include "common/simd/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/transform.h"
#include "common/rng.h"
#include "media/metrics.h"

namespace sieve::simd {
namespace {

/// Every non-scalar arch compiled into this binary and usable on this CPU.
std::vector<KernelArch> SimdArches() {
  std::vector<KernelArch> out;
  for (KernelArch arch : CompiledArches()) {
    if (arch != KernelArch::kScalar && ArchSupported(arch)) out.push_back(arch);
  }
  return out;
}

TEST(KernelDispatch, ScalarAlwaysCompiledAndBestArchSupported) {
  EXPECT_TRUE(ArchCompiled(KernelArch::kScalar));
  EXPECT_TRUE(ArchSupported(BestArch()));
  const auto arches = CompiledArches();
  EXPECT_GE(arches.size(), 1u);
  EXPECT_EQ(arches.front(), KernelArch::kScalar);
#if defined(__x86_64__)
  // x86-64 guarantees SSE2: the vector table must exist and be selectable.
  EXPECT_TRUE(ArchSupported(KernelArch::kSse2));
#endif
}

TEST(KernelDispatch, KernelsForFallsBackToScalarWhenNotCompiled) {
  for (KernelArch arch :
       {KernelArch::kScalar, KernelArch::kSse2, KernelArch::kNeon}) {
    const KernelTable& table = KernelsFor(arch);
    if (!ArchCompiled(arch)) {
      EXPECT_STREQ(table.name, "scalar");
    } else {
      EXPECT_STREQ(table.name, KernelArchName(arch));
    }
  }
}

TEST(KernelDispatch, ScopedOverrideSwitchesAndRestores) {
  const KernelArch before = ActiveArch();
  {
    ScopedKernelArch scalar(KernelArch::kScalar);
    EXPECT_EQ(ActiveArch(), KernelArch::kScalar);
    EXPECT_STREQ(ActiveKernels().name, "scalar");
    for (KernelArch arch : SimdArches()) {
      ScopedKernelArch inner(arch);
      EXPECT_EQ(ActiveArch(), arch);
    }
    EXPECT_EQ(ActiveArch(), KernelArch::kScalar);
  }
  EXPECT_EQ(ActiveArch(), before);
}

// ---------------------------------------------------------------- DCT/IDCT --

TEST(KernelEquivalence, ForwardDctBitExact) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(101);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 500; ++trial) {
      std::int16_t in[kBlockLen];
      // Centered pixels and residuals live in [-255, 255]; test wider.
      for (auto& v : in) v = std::int16_t(rng.UniformInt(-2048, 2048));
      float a[kBlockLen], b[kBlockLen];
      scalar.fdct8x8(in, a);
      simd.fdct8x8(in, b);
      ASSERT_EQ(std::memcmp(a, b, sizeof(a)), 0)
          << KernelArchName(arch) << " fdct differs at trial " << trial;
    }
  }
}

TEST(KernelEquivalence, InverseDctBitExactIncludingRoundingAndClamp) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(102);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 500; ++trial) {
      float in[kBlockLen];
      for (int i = 0; i < kBlockLen; ++i) {
        switch (trial % 4) {
          case 0:  // typical dequantized coefficients
            in[i] = float(rng.Uniform(-2500.0, 2500.0));
            break;
          case 1:  // exact halves: pins round-half-away-from-zero
            in[i] = float(rng.UniformInt(-300, 300)) + 0.5f;
            break;
          case 2:  // values whose spatial output brushes the int16 clamp
            in[i] = float(rng.Uniform(-60000.0, 60000.0));
            break;
          default:  // tiny magnitudes around +-0.5
            in[i] = float(rng.Uniform(-1.5, 1.5));
            break;
        }
      }
      std::int16_t a[kBlockLen], b[kBlockLen];
      scalar.idct8x8(in, a);
      simd.idct8x8(in, b);
      ASSERT_EQ(std::memcmp(a, b, sizeof(a)), 0)
          << KernelArchName(arch) << " idct differs at trial " << trial;
    }
  }
}

TEST(KernelEquivalence, QuantizeDequantizeBitExact) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(103);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int qp : {1, 10, 26, 40, 51}) {
      const codec::QuantTable q = codec::MakeLumaQuant(qp);
      for (int trial = 0; trial < 200; ++trial) {
        float dct[kBlockLen];
        for (int i = 0; i < kBlockLen; ++i) {
          if (trial % 2 == 0) {
            dct[i] = float(rng.Uniform(-2500.0, 2500.0));
          } else {
            // Exact .5 quotients: (n + 0.5) * step divides back to n.5
            // exactly (step * 0.5 is exact in float), pinning the rounding.
            dct[i] = (float(rng.UniformInt(-40, 40)) + 0.5f) *
                     float(q.step[std::size_t(i)]);
          }
        }
        std::int32_t qa[kBlockLen], qb[kBlockLen];
        scalar.quantize8x8(dct, q.step.data(), qa);
        simd.quantize8x8(dct, q.step.data(), qb);
        ASSERT_EQ(std::memcmp(qa, qb, sizeof(qa)), 0)
            << KernelArchName(arch) << " quantize differs, qp " << qp;
        float da[kBlockLen], db[kBlockLen];
        scalar.dequantize8x8(qa, q.step.data(), da);
        simd.dequantize8x8(qb, q.step.data(), db);
        ASSERT_EQ(std::memcmp(da, db, sizeof(da)), 0)
            << KernelArchName(arch) << " dequantize differs, qp " << qp;
      }
    }
  }
}

TEST(KernelEquivalence, FullTransformRoundTripMatchesAcrossArches) {
  // The composition the codec actually runs: fdct -> quantize -> dequantize
  // -> idct, compared block-for-block across every table.
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  const codec::QuantTable q = codec::MakeLumaQuant(26);
  Rng rng(104);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 200; ++trial) {
      std::int16_t in[kBlockLen];
      for (auto& v : in) v = std::int16_t(rng.UniformInt(-128, 127));
      std::int16_t rec_a[kBlockLen], rec_b[kBlockLen];
      float freq[kBlockLen];
      std::int32_t coeff[kBlockLen];
      scalar.fdct8x8(in, freq);
      scalar.quantize8x8(freq, q.step.data(), coeff);
      scalar.dequantize8x8(coeff, q.step.data(), freq);
      scalar.idct8x8(freq, rec_a);
      simd.fdct8x8(in, freq);
      simd.quantize8x8(freq, q.step.data(), coeff);
      simd.dequantize8x8(coeff, q.step.data(), freq);
      simd.idct8x8(freq, rec_b);
      ASSERT_EQ(std::memcmp(rec_a, rec_b, sizeof(rec_a)), 0)
          << KernelArchName(arch) << " round trip differs at trial " << trial;
    }
  }
}

// --------------------------------------------------------------------- SAD --

TEST(KernelEquivalence, SadRowAllWidths) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(105);
  std::vector<std::uint8_t> a(256), b(256);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 50; ++trial) {
      for (auto& v : a) v = std::uint8_t(rng.UniformInt(0, 255));
      for (auto& v : b) v = std::uint8_t(rng.UniformInt(0, 255));
      // Every width 1..64 covers the 16-lane blocks, the 8-lane step, and
      // the scalar tail (unaligned widths), plus unaligned base pointers.
      for (int w = 1; w <= 64; ++w) {
        const int off = trial % 3;  // misalign the loads
        ASSERT_EQ(scalar.sad_row(a.data() + off, b.data() + off, w),
                  simd.sad_row(a.data() + off, b.data() + off, w))
            << KernelArchName(arch) << " width " << w;
      }
    }
  }
}

TEST(KernelEquivalence, Sad16xHAndBoundedRowGranularValues) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(106);
  const int stride_a = 37, stride_b = 41;  // non-equal, non-multiple-of-16
  std::vector<std::uint8_t> a(std::size_t(stride_a) * 64),
      b(std::size_t(stride_b) * 64);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 40; ++trial) {
      for (auto& v : a) v = std::uint8_t(rng.UniformInt(0, 255));
      for (auto& v : b) v = std::uint8_t(rng.UniformInt(0, 255));
      for (int h : {1, 3, 8, 16}) {
        const std::uint64_t exact =
            scalar.sad16xh(a.data(), stride_a, b.data(), stride_b, h);
        EXPECT_EQ(exact, simd.sad16xh(a.data(), stride_a, b.data(), stride_b, h))
            << KernelArchName(arch) << " h " << h;
        for (int w : {5, 8, 13, 16, 21}) {
          // All bound regimes: impossible, mid-scan, and beyond-exact. The
          // return value (not just the decision) must match because both
          // tables check the bound at the same row boundaries.
          const std::uint64_t full =
              scalar.sad_bounded(a.data(), stride_a, b.data(), stride_b, w, h,
                                 ~std::uint64_t{0});
          for (std::uint64_t bound :
               {std::uint64_t{1}, full / 2 + 1, full, full + 1, full + 1000}) {
            EXPECT_EQ(scalar.sad_bounded(a.data(), stride_a, b.data(),
                                         stride_b, w, h, bound),
                      simd.sad_bounded(a.data(), stride_a, b.data(), stride_b,
                                       w, h, bound))
                << KernelArchName(arch) << " w " << w << " h " << h
                << " bound " << bound;
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, RegionSadClampedOutOfBoundsPathDispatchIndependent) {
  // The clamped compensation path (blocks hanging off the plane edges) and
  // the interior fast path must agree for every dispatch choice — this is
  // the seam motion search relies on at frame borders.
  ScopedKernelArch guard(ActiveArch());  // restore after the switches below
  media::Plane pa(48, 40), pb(48, 40);
  Rng rng(107);
  for (int y = 0; y < 40; ++y) {
    for (int x = 0; x < 48; ++x) {
      pa.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
      pb.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
    }
  }
  struct Case {
    int ax, ay, bx, by, w, h;
  };
  const Case cases[] = {
      {-3, -3, -5, 36, 16, 16},  // clamped both regions
      {4, 4, 9, 7, 16, 16},      // interior, w == 16 kernel
      {2, 3, 5, 1, 13, 9},       // interior, unaligned width
      {40, 30, 44, 36, 16, 16},  // clamped bottom-right
  };
  for (const Case& c : cases) {
    SetActiveKernels(KernelArch::kScalar);
    const std::uint64_t scalar_sad =
        media::RegionSad(pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h);
    EXPECT_EQ(media::RegionSadBounded(pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h,
                                      scalar_sad + 1),
              scalar_sad);  // loose bound stays exact
    const std::uint64_t scalar_tight = media::RegionSadBounded(
        pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h, scalar_sad / 2);
    for (KernelArch arch : SimdArches()) {
      SetActiveKernels(arch);
      EXPECT_EQ(media::RegionSad(pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h),
                scalar_sad)
          << KernelArchName(arch);
      EXPECT_EQ(media::RegionSadBounded(pa, c.ax, c.ay, pb, c.bx, c.by, c.w,
                                        c.h, scalar_sad + 1),
                scalar_sad)
          << KernelArchName(arch);
      // Saturated return values match too: row-granular early exit on both.
      EXPECT_EQ(media::RegionSadBounded(pa, c.ax, c.ay, pb, c.bx, c.by, c.w,
                                        c.h, scalar_sad / 2),
                scalar_tight)
          << KernelArchName(arch);
    }
  }
}

// ------------------------------------------------------- fp32 inference --

/// A float drawn from the classes the fp32 contract must survive: ordinary
/// values of both signs, exact +-0.0, denormals and large magnitudes (kept
/// below the range where a k-long sum of products could overflow).
float SpecialFloat(Rng& rng) {
  switch (rng.UniformInt(0, 9)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return float(rng.Uniform(-1.0, 1.0)) * 1e-39f;  // denormal
    case 3: return float(rng.Uniform(-1e12, 1e12));
    default: return float(rng.Uniform(-2.0, 2.0));
  }
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(KernelEquivalence, GemmF32BitExactOnRaggedShapes) {
  // m and n straddle every table's register tile (4x8 SSE2, 4x16 AVX2 and
  // scalar), k crosses the kGemmKc panel (conv4 of the backbone has
  // k = 576), and lda/ldb/ldc are wider than the matrices so padding that a
  // table must neither read into the sum nor write is in play.
  Rng rng(108);
  const int ms[] = {1, 2, 3, 4, 5, 7, 16, 17};
  const int ns[] = {1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 33};
  const int ks[] = {0, 1, 27, kGemmKc - 1, kGemmKc, kGemmKc + 1, 576};
  constexpr float kSentinel = 12345.0f;
  for (int m : ms) {
    for (int n : ns) {
      for (int k : ks) {
        const int lda = k + 3, ldb = n + 5, ldc = n + 2;
        std::vector<float> a(std::size_t(m) * std::size_t(lda));
        std::vector<float> b(std::size_t(std::max(k, 1)) * std::size_t(ldb));
        for (float& v : a) v = SpecialFloat(rng);
        for (float& v : b) v = SpecialFloat(rng);
        // Row 0 of A all -0.0 against B >= 0: every product is -0.0, and
        // only an accumulator that starts from +0.0f returns +0.0.
        if (k > 0) {
          std::fill(a.begin(), a.begin() + lda, -0.0f);
          for (int p = 0; p < k; ++p) b[std::size_t(p) * ldb] = 1.0f;
        }
        // The definition: +0.0f, then one multiply and one add per term in
        // ascending p (this file is compiled with -ffp-contract=off).
        std::vector<float> expect(std::size_t(m) * std::size_t(ldc), kSentinel);
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int p = 0; p < k; ++p) {
              acc += a[std::size_t(i) * lda + p] * b[std::size_t(p) * ldb + j];
            }
            expect[std::size_t(i) * ldc + j] = acc;
          }
        }
        for (KernelArch arch : CompiledArches()) {
          if (!ArchSupported(arch)) continue;
          std::vector<float> c(expect.size(), kSentinel);
          KernelsFor(arch).gemm_f32(a.data(), lda, b.data(), ldb, c.data(),
                                    ldc, m, n, k);
          ASSERT_TRUE(SameBits(c, expect))
              << KernelArchName(arch) << " m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

TEST(KernelEquivalence, ScaleShiftRowsAndLeakyReluBitExact) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(109);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int rows = 1; rows <= 3; ++rows) {
      for (std::size_t len = 0; len <= 37; ++len) {
        std::vector<float> x(std::size_t(rows) * len);
        for (float& v : x) v = SpecialFloat(rng);
        std::vector<float> scale(static_cast<std::size_t>(rows));
        std::vector<float> shift(scale.size());
        for (float& v : scale) v = SpecialFloat(rng);
        for (float& v : shift) v = SpecialFloat(rng);
        for (const float* sc :
             {static_cast<const float*>(scale.data()),
              static_cast<const float*>(nullptr)}) {
          std::vector<float> ya = x, yb = x;
          scalar.scale_shift_rows_f32(ya.data(), rows, len, sc, shift.data());
          simd.scale_shift_rows_f32(yb.data(), rows, len, sc, shift.data());
          ASSERT_TRUE(SameBits(ya, yb))
              << KernelArchName(arch) << " scale_shift rows=" << rows
              << " len=" << len << (sc ? "" : " (bias only)");
        }
        // NaN must pass through LeakyRelu untouched too.
        if (!x.empty()) x[len / 2] = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> ya = x, yb = x;
        scalar.leaky_relu_f32(ya.data(), ya.size(), 0.1f);
        simd.leaky_relu_f32(yb.data(), yb.size(), 0.1f);
        ASSERT_TRUE(SameBits(ya, yb))
            << KernelArchName(arch) << " leaky_relu len=" << x.size();
      }
    }
  }
  // The scalar reference against its definition, on the signed zeros.
  std::vector<float> z = {-0.0f, 0.0f, -2.0f, 3.0f};
  scalar.leaky_relu_f32(z.data(), z.size(), 0.1f);
  EXPECT_TRUE(std::signbit(z[0]));
  EXPECT_FALSE(std::signbit(z[1]));
  EXPECT_EQ(z[2], -2.0f * 0.1f);
  EXPECT_EQ(z[3], 3.0f);
}

TEST(KernelEquivalence, MaxPoolBitExactIncludingTiesAndNaN) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(110);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int size : {1, 2, 3}) {
      for (int h = 1; h <= 9; ++h) {
        for (int w = 1; w <= 37; w += (w < 20 ? 1 : 8)) {
          const int channels = 1 + (h + w) % 3;
          std::vector<float> in(std::size_t(channels) * h * w);
          for (float& v : in) {
            // Signed-zero ties and NaNs exercise the operand order of max.
            switch (rng.UniformInt(0, 5)) {
              case 0: v = 0.0f; break;
              case 1: v = -0.0f; break;
              case 2: v = std::numeric_limits<float>::quiet_NaN(); break;
              default: v = SpecialFloat(rng); break;
            }
          }
          const std::size_t out_len = std::size_t(channels) *
                                      std::size_t(std::max(1, h / size)) *
                                      std::size_t(std::max(1, w / size));
          std::vector<float> oa(out_len, 7.0f), ob(out_len, 7.0f);
          scalar.max_pool_f32(in.data(), channels, h, w, size, oa.data());
          simd.max_pool_f32(in.data(), channels, h, w, size, ob.data());
          ASSERT_TRUE(SameBits(oa, ob))
              << KernelArchName(arch) << " size=" << size << " h=" << h
              << " w=" << w;
        }
      }
    }
  }
  // Reference semantics: std::max order — the first of a +0/-0 tie wins, a
  // NaN is skipped.
  const float in[4] = {-0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                       -1.0f};
  float out = 0.0f;
  scalar.max_pool_f32(in, 1, 2, 2, 2, &out);
  EXPECT_TRUE(std::signbit(out));
  EXPECT_EQ(out, 0.0f);
}

}  // namespace
}  // namespace sieve::simd
