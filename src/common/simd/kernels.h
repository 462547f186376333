// SIMD kernel layer: runtime-dispatched implementations of the library's
// innermost loops — the codec's block SAD and 8x8 DCT/IDCT + quantizer pair,
// and the inference engine's fp32 GEMM, conv epilogue (bias, BatchNorm,
// LeakyRelu) and max pooling.
//
// Design rules (the whole point of this layer):
//
//  * Every kernel is BIT-EXACT across architectures. The scalar table is the
//    reference; the SSE2/AVX2/NEON tables perform the same floating-point
//    operations in the same order (vectorized across independent *outputs*,
//    never across a single output's accumulation), use IEEE-exact ops only
//    (mul/add/div/max — no FMA, no rsqrt/rcp approximations), and replicate
//    std::lround's round-half-away-from-zero. The library is compiled with
//    -ffp-contract=off so the compiler cannot contract the scalar path (or
//    any fp32 code outside the kernels) into FMA either. Consequence:
//    encoded bitstreams, embeddings and labels are byte-identical whichever
//    table is active.
//
//  * Dispatch is compile-time gated (each arch TU compiles to a stub
//    returning nullptr when its ISA is unavailable) plus runtime-verified
//    (CPUID on x86). The SIEVE_KERNEL_ARCH environment variable
//    (scalar|sse2|avx2|neon) pins any compiled-in, CPU-supported table;
//    SetActiveKernels() overrides it for tests and tools.
//
//  * This layer sits at the bottom of the dependency graph (raw pointers and
//    strides only, no media/codec/nn types) so media/, codec/ and nn/ can
//    all call it.
//
// See docs/perf.md ("The SIMD kernel layer") for how to add a kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sieve::simd {

/// All transform kernels operate on 8x8 blocks in row-major order.
inline constexpr int kBlockDim = 8;
inline constexpr int kBlockLen = kBlockDim * kBlockDim;

/// One architecture's implementations of the hot kernels. Strides are in
/// elements (== bytes for the uint8 SAD inputs). All pointers must be valid
/// for the full extent they describe; transform pointers must not alias.
struct KernelTable {
  const char* name;  ///< "scalar" | "sse2" | "avx2" | "neon"

  /// Sum of absolute differences over one row of `w` pixels.
  std::uint32_t (*sad_row)(const std::uint8_t* a, const std::uint8_t* b, int w);

  /// SAD of a 16-wide, h-tall region (the macroblock fast case).
  std::uint64_t (*sad16xh)(const std::uint8_t* a, int a_stride,
                           const std::uint8_t* b, int b_stride, int h);

  /// SAD of a w×h region with row-granular early termination: after each
  /// row, if the running sum has reached `bound` the scan stops and the
  /// partial sum is returned. Exact when the result is < bound; some value
  /// in [bound, exact] otherwise. Every table checks at the same row
  /// boundaries, so return values are identical across architectures.
  std::uint64_t (*sad_bounded)(const std::uint8_t* a, int a_stride,
                               const std::uint8_t* b, int b_stride, int w,
                               int h, std::uint64_t bound);

  /// Forward 8x8 DCT-II (orthonormal) of centered int16 pixels into floats.
  void (*fdct8x8)(const std::int16_t* in, float* out);

  /// Inverse 8x8 DCT of floats back to int16 pixels, rounded half away from
  /// zero (std::lround semantics) and clamped to the int16 range. Inputs
  /// must be finite with magnitude < 2^30.
  void (*idct8x8)(const float* in, std::int16_t* out);

  /// out[i] = lround(dct[i] / float(step[i])). Steps must be in [1, 2^24);
  /// |dct[i] / step[i]| must be < 2^31.
  void (*quantize8x8)(const float* dct, const std::int32_t* step,
                      std::int32_t* out);

  /// out[i] = float(in[i]) * float(step[i]).
  void (*dequantize8x8)(const std::int32_t* in, const std::int32_t* step,
                        float* out);

  // fp32 inference. Each output is produced by the same sequence of single
  // IEEE operations in every table, so the active table never changes an
  // embedding bit.

  /// fp32 GEMM: c[i*ldc + j] = sum_{p<k} a[i*lda + p] * b[p*ldb + j] for
  /// i < m, j < n (all row-major; `c` must not alias `a` or `b`). Every
  /// output starts from +0.0f and adds its k terms in ascending p, each term
  /// one IEEE multiply followed by one IEEE add — no FMA, no reassociation,
  /// no split accumulators. The vector tables vectorize across independent
  /// outputs and block K into kGemmKc-wide panels (a partial sum
  /// round-trips through `c` exactly), so the result is bit-identical for
  /// any m, n, k and table.
  void (*gemm_f32)(const float* a, int lda, const float* b, int ldb, float* c,
                   int ldc, int m, int n, int k);

  /// Per-row affine over `rows` rows of `len` contiguous floats (channels of
  /// a CHW tensor): x = x * scale[r] + shift[r], one IEEE multiply then one
  /// IEEE add. `scale == nullptr` means a plain add, x = x + shift[r] (the
  /// conv bias).
  void (*scale_shift_rows_f32)(float* x, int rows, std::size_t len,
                               const float* scale, const float* shift);

  /// In place: x[i] = x[i] < 0 ? x[i] * slope : x[i]. NaN and -0.0 pass
  /// through unchanged.
  void (*leaky_relu_f32)(float* x, std::size_t len, float slope);

  /// Max pooling of `channels` planes of h x w floats over non-overlapping
  /// size x size windows into planes of max(1, h/size) x max(1, w/size); a
  /// window clipped by the input edge pools its in-range elements only. Each
  /// output is best = -inf, then best = (best < v) ? v : best over the
  /// window in row-major order (std::max semantics: a NaN input is skipped,
  /// the first of equal values wins, so +0.0 vs -0.0 ties are order-exact).
  void (*max_pool_f32)(const float* in, int channels, int h, int w, int size,
                       float* out);
};

/// K panel width of the vector tables' gemm_f32: a K-long dot product is
/// accumulated one panel at a time so the panel of B rows a tile streams
/// through stays cache-resident.
inline constexpr int kGemmKc = 256;

enum class KernelArch { kScalar, kSse2, kAvx2, kNeon };

const char* KernelArchName(KernelArch arch) noexcept;

/// True if the given architecture's table was compiled into this binary.
bool ArchCompiled(KernelArch arch) noexcept;

/// True if the architecture is compiled in AND the running CPU supports it
/// (CPUID-checked on x86; NEON presence is implied by compiling for it).
bool ArchSupported(KernelArch arch) noexcept;

/// The table for an architecture; falls back to scalar when that arch was
/// not compiled in. (kScalar always exists.)
const KernelTable& KernelsFor(KernelArch arch) noexcept;

/// All architectures compiled into this binary (always includes kScalar).
std::vector<KernelArch> CompiledArches();

/// Parses the SIEVE_KERNEL_ARCH environment override
/// ("scalar"|"sse2"|"avx2"|"neon"). Returns true and writes `*out` when the
/// variable is set to a recognized name; malformed values are ignored.
bool KernelArchFromEnv(KernelArch* out) noexcept;

/// The best supported architecture, honoring SIEVE_KERNEL_ARCH. An env
/// override naming an unsupported or uncompiled arch is ignored (the
/// hardware-best table is used instead).
KernelArch BestArch() noexcept;

/// The table the hot paths dispatch through. Resolved on first use from
/// BestArch(); a relaxed atomic pointer load thereafter.
const KernelTable& ActiveKernels() noexcept;

/// Override the active table (tests, tools, A/B benches). Takes precedence
/// over the environment override; falls back to scalar if `arch` is not compiled
/// in. Not intended to be raced against in-flight encodes — switch between
/// them.
void SetActiveKernels(KernelArch arch) noexcept;

/// The architecture of the currently active table.
KernelArch ActiveArch() noexcept;

/// RAII override of the active table (tests, A/B tools): activates `arch`
/// on construction and restores the previously active table on destruction.
class ScopedKernelArch {
 public:
  explicit ScopedKernelArch(KernelArch arch) noexcept : prev_(ActiveArch()) {
    SetActiveKernels(arch);
  }
  ~ScopedKernelArch() { SetActiveKernels(prev_); }
  ScopedKernelArch(const ScopedKernelArch&) = delete;
  ScopedKernelArch& operator=(const ScopedKernelArch&) = delete;

 private:
  KernelArch prev_;
};

}  // namespace sieve::simd
