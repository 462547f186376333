// Internal sharing between the kernel-layer translation units: the DCT basis
// tables every architecture reads, the scalar fp32 kernels the vector tables
// reuse for ragged edges and uncommon shapes, and the per-arch table
// accessors the dispatcher resolves (stubs return nullptr when the ISA is
// not compiled in).
// Not part of the public surface — include common/simd/kernels.h instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd/kernels.h"

namespace sieve::simd {

/// Orthonormal DCT-II basis C[k][n] = s(k) * cos((2n+1)kπ/16), in the two
/// layouts the kernels consume. Both are the exact float values the original
/// scalar transform computed, so the scalar kernel is bit-compatible with
/// the pre-dispatch code.
struct DctTables {
  alignas(16) float basis[kBlockLen];    ///< basis[k*8 + n]   = C[k][n]
  alignas(16) float basis_t[kBlockLen];  ///< basis_t[n*8 + k] = C[k][n]
  DctTables();
};

const DctTables& Tables() noexcept;

/// The scalar fp32 inference kernels (the scalar table's entries). Defined
/// in kernels.cpp, so every caller runs the same scalar code whatever ISA
/// flags its own TU was built with; the NEON table points at them.
void GemmF32Scalar(const float* a, int lda, const float* b, int ldb, float* c,
                   int ldc, int m, int n, int k);
void ScaleShiftRowsF32Scalar(float* x, int rows, std::size_t len,
                             const float* scale, const float* shift);
void LeakyReluF32Scalar(float* x, std::size_t len, float slope);
void MaxPoolF32Scalar(const float* in, int channels, int h, int w, int size,
                      float* out);

/// One gemm_f32 edge block: the mr x nr outputs at `c` accumulate K panel
/// [p0, p1) (`a` points at the block's first row, `b` and `c` at its first
/// column). `first` starts each output from +0.0f; otherwise it resumes the
/// partial sum stored in `c`. Any mr/nr, so vector tables hand it the rows
/// and columns their register tiles do not cover.
void GemmF32EdgeScalar(const float* a, int lda, const float* b, int ldb,
                       float* c, int ldc, int mr, int nr, int p0, int p1,
                       bool first);

/// Per-architecture tables; nullptr when the ISA was not compiled in. The
/// SSE2/AVX2/NEON TUs always compile (their bodies are preprocessor-gated),
/// so these symbols always link.
const KernelTable* Sse2KernelTable() noexcept;
const KernelTable* Avx2KernelTable() noexcept;
const KernelTable* NeonKernelTable() noexcept;

}  // namespace sieve::simd
