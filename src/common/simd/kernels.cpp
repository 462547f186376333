// Scalar reference kernels + the dispatch machinery. This TU (like the whole
// library) is compiled with -ffp-contract=off: the bit-exactness contract
// across scalar/SSE2/AVX2/NEON depends on no mul+add pair being contracted
// into an FMA on either side.
#include "common/simd/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/simd/kernels_internal.h"

namespace sieve::simd {

DctTables::DctTables() {
  const double pi = std::acos(-1.0);
  for (int k = 0; k < kBlockDim; ++k) {
    const double s =
        k == 0 ? std::sqrt(1.0 / kBlockDim) : std::sqrt(2.0 / kBlockDim);
    for (int n = 0; n < kBlockDim; ++n) {
      const float c =
          float(s * std::cos((2.0 * n + 1.0) * k * pi / (2.0 * kBlockDim)));
      basis[k * kBlockDim + n] = c;
      basis_t[n * kBlockDim + k] = c;
    }
  }
}

const DctTables& Tables() noexcept {
  static const DctTables tables;
  return tables;
}

namespace {

// ------------------------------------------------------------ scalar SAD --

std::uint32_t SadRowScalar(const std::uint8_t* a, const std::uint8_t* b,
                           int w) {
  std::uint32_t acc = 0;
  for (int x = 0; x < w; ++x) {
    acc += std::uint32_t(std::abs(int(a[x]) - int(b[x])));
  }
  return acc;
}

std::uint64_t Sad16xHScalar(const std::uint8_t* a, int a_stride,
                            const std::uint8_t* b, int b_stride, int h) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowScalar(a + std::ptrdiff_t(y) * a_stride,
                        b + std::ptrdiff_t(y) * b_stride, 16);
  }
  return acc;
}

std::uint64_t SadBoundedScalar(const std::uint8_t* a, int a_stride,
                               const std::uint8_t* b, int b_stride, int w,
                               int h, std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowScalar(a + std::ptrdiff_t(y) * a_stride,
                        b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------ scalar transforms --

void Fdct8x8Scalar(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]
  for (int y = 0; y < kBlockDim; ++y) {
    for (int k = 0; k < kBlockDim; ++k) {
      float acc = 0;
      for (int x = 0; x < kBlockDim; ++x) {
        acc += float(in[y * kBlockDim + x]) * t.basis[k * kBlockDim + x];
      }
      tmp[y * kBlockDim + k] = acc;
    }
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]
  for (int v = 0; v < kBlockDim; ++v) {
    for (int k = 0; k < kBlockDim; ++k) {
      float acc = 0;
      for (int y = 0; y < kBlockDim; ++y) {
        acc += tmp[y * kBlockDim + k] * t.basis[v * kBlockDim + y];
      }
      out[v * kBlockDim + k] = acc;
    }
  }
}

/// std::lround + int16 clamp: the rounding every idct table must replicate.
std::int16_t RoundClampToInt16(float v) {
  long r = std::lround(v);
  if (r < -32768) r = -32768;
  if (r > 32767) r = 32767;
  return std::int16_t(r);
}

void Idct8x8Scalar(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]
  for (int y = 0; y < kBlockDim; ++y) {
    for (int k = 0; k < kBlockDim; ++k) {
      float acc = 0;
      for (int v = 0; v < kBlockDim; ++v) {
        acc += in[v * kBlockDim + k] * t.basis[v * kBlockDim + y];
      }
      tmp[y * kBlockDim + k] = acc;
    }
  }
  // Rows: out[y][x] = sum_k tmp[y][k] * C[k][x]
  for (int y = 0; y < kBlockDim; ++y) {
    for (int x = 0; x < kBlockDim; ++x) {
      float acc = 0;
      for (int k = 0; k < kBlockDim; ++k) {
        acc += tmp[y * kBlockDim + k] * t.basis[k * kBlockDim + x];
      }
      out[y * kBlockDim + x] = RoundClampToInt16(acc);
    }
  }
}

void Quantize8x8Scalar(const float* dct, const std::int32_t* step,
                       std::int32_t* out) {
  for (int i = 0; i < kBlockLen; ++i) {
    out[i] = std::int32_t(std::lround(dct[i] / float(step[i])));
  }
}

void Dequantize8x8Scalar(const std::int32_t* in, const std::int32_t* step,
                         float* out) {
  for (int i = 0; i < kBlockLen; ++i) {
    out[i] = float(in[i]) * float(step[i]);
  }
}

}  // namespace

// ------------------------------------------------------ scalar fp32 GEMM --

void GemmF32EdgeScalar(const float* a, int lda, const float* b, int ldb,
                       float* c, int ldc, int mr, int nr, int p0, int p1,
                       bool first) {
  for (int r = 0; r < mr; ++r) {
    float* crow = c + std::ptrdiff_t(r) * ldc;
    const float* arow = a + std::ptrdiff_t(r) * lda;
    if (first) std::fill(crow, crow + nr, 0.0f);
    for (int p = p0; p < p1; ++p) {
      const float av = arow[p];
      const float* brow = b + std::ptrdiff_t(p) * ldb;
      for (int s = 0; s < nr; ++s) crow[s] += av * brow[s];
    }
  }
}

// The reference is the definition itself, one output row at a time: each
// row accumulates in place, term by term in ascending p. The vector tables'
// register tiles and K panels reorder which outputs are in flight, never an
// output's own operation sequence.
void GemmF32Scalar(const float* a, int lda, const float* b, int ldb, float* c,
                   int ldc, int m, int n, int k) {
  GemmF32EdgeScalar(a, lda, b, ldb, c, ldc, m, n, 0, k, true);
}

// ------------------------------------------------ scalar fp32 elementwise --

void ScaleShiftRowsF32Scalar(float* x, int rows, std::size_t len,
                             const float* scale, const float* shift) {
  for (int r = 0; r < rows; ++r) {
    float* row = x + std::size_t(r) * len;
    const float t = shift[r];
    if (scale == nullptr) {
      for (std::size_t i = 0; i < len; ++i) row[i] = row[i] + t;
    } else {
      const float s = scale[r];
      for (std::size_t i = 0; i < len; ++i) row[i] = row[i] * s + t;
    }
  }
}

void LeakyReluF32Scalar(float* x, std::size_t len, float slope) {
  for (std::size_t i = 0; i < len; ++i) {
    if (x[i] < 0) x[i] *= slope;
  }
}

void MaxPoolF32Scalar(const float* in, int channels, int h, int w, int size,
                      float* out) {
  const int oh = std::max(1, h / size), ow = std::max(1, w / size);
  for (int c = 0; c < channels; ++c) {
    const float* plane = in + std::size_t(c) * std::size_t(h) * std::size_t(w);
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ky = 0; ky < size && oy * size + ky < h; ++ky) {
          const float* row =
              plane + std::size_t(oy * size + ky) * std::size_t(w);
          for (int kx = 0; kx < size && ox * size + kx < w; ++kx) {
            best = std::max(best, row[ox * size + kx]);
          }
        }
        *out++ = best;
      }
    }
  }
}

namespace {

const KernelTable kScalarTable = {
    "scalar",        SadRowScalar,      Sad16xHScalar,      SadBoundedScalar,
    Fdct8x8Scalar,   Idct8x8Scalar,     Quantize8x8Scalar,  Dequantize8x8Scalar,
    GemmF32Scalar,   ScaleShiftRowsF32Scalar, LeakyReluF32Scalar,
    MaxPoolF32Scalar,
};

// --------------------------------------------------------------- dispatch --

bool CpuSupportsSse2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("sse2") != 0;
#else
  return false;
#endif
}

bool CpuSupportsAvx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const char* KernelArchName(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kScalar: return "scalar";
    case KernelArch::kSse2: return "sse2";
    case KernelArch::kAvx2: return "avx2";
    case KernelArch::kNeon: return "neon";
  }
  return "unknown";
}

bool ArchCompiled(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kScalar: return true;
    case KernelArch::kSse2: return Sse2KernelTable() != nullptr;
    case KernelArch::kAvx2: return Avx2KernelTable() != nullptr;
    case KernelArch::kNeon: return NeonKernelTable() != nullptr;
  }
  return false;
}

bool ArchSupported(KernelArch arch) noexcept {
  if (!ArchCompiled(arch)) return false;
  // A binary compiled for NEON only runs on NEON hardware; SSE2/AVX2
  // presence is CPUID-verified so a generic x86 build stays safe on cores
  // that lack the wider ISA.
  if (arch == KernelArch::kSse2) return CpuSupportsSse2();
  if (arch == KernelArch::kAvx2) return CpuSupportsAvx2();
  return true;
}

const KernelTable& KernelsFor(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kScalar: break;
    case KernelArch::kSse2:
      if (const KernelTable* t = Sse2KernelTable()) return *t;
      break;
    case KernelArch::kAvx2:
      if (const KernelTable* t = Avx2KernelTable()) return *t;
      break;
    case KernelArch::kNeon:
      if (const KernelTable* t = NeonKernelTable()) return *t;
      break;
  }
  return kScalarTable;
}

std::vector<KernelArch> CompiledArches() {
  std::vector<KernelArch> arches{KernelArch::kScalar};
  if (ArchCompiled(KernelArch::kSse2)) arches.push_back(KernelArch::kSse2);
  if (ArchCompiled(KernelArch::kAvx2)) arches.push_back(KernelArch::kAvx2);
  if (ArchCompiled(KernelArch::kNeon)) arches.push_back(KernelArch::kNeon);
  return arches;
}

bool KernelArchFromEnv(KernelArch* out) noexcept {
  if (const char* v = std::getenv("SIEVE_KERNEL_ARCH")) {
    if (std::strcmp(v, "scalar") == 0) { *out = KernelArch::kScalar; return true; }
    if (std::strcmp(v, "sse2") == 0)   { *out = KernelArch::kSse2;   return true; }
    if (std::strcmp(v, "avx2") == 0)   { *out = KernelArch::kAvx2;   return true; }
    if (std::strcmp(v, "neon") == 0)   { *out = KernelArch::kNeon;   return true; }
  }
  return false;  // unset or malformed: hardware-best wins
}

KernelArch BestArch() noexcept {
  KernelArch forced;
  if (KernelArchFromEnv(&forced) && ArchSupported(forced)) return forced;
  if (ArchSupported(KernelArch::kNeon)) return KernelArch::kNeon;
  if (ArchSupported(KernelArch::kAvx2)) return KernelArch::kAvx2;
  if (ArchSupported(KernelArch::kSse2)) return KernelArch::kSse2;
  return KernelArch::kScalar;
}

const KernelTable& ActiveKernels() noexcept {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    table = &KernelsFor(BestArch());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

void SetActiveKernels(KernelArch arch) noexcept {
  g_active.store(&KernelsFor(arch), std::memory_order_release);
}

KernelArch ActiveArch() noexcept {
  const KernelTable* table = &ActiveKernels();
  if (ArchCompiled(KernelArch::kSse2) &&
      table == &KernelsFor(KernelArch::kSse2)) {
    return KernelArch::kSse2;
  }
  if (ArchCompiled(KernelArch::kAvx2) &&
      table == &KernelsFor(KernelArch::kAvx2)) {
    return KernelArch::kAvx2;
  }
  if (ArchCompiled(KernelArch::kNeon) &&
      table == &KernelsFor(KernelArch::kNeon)) {
    return KernelArch::kNeon;
  }
  return KernelArch::kScalar;
}

}  // namespace sieve::simd
