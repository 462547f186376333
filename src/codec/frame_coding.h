// Frame-level coding: intra frames (JPEG-like) and inter frames
// (motion-compensated prediction + coded residual). Shared by the video
// encoder, the video decoder, and the still-image codec so that encoder
// reconstruction and decoder output are bit-identical by construction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "codec/block_codec.h"
#include "codec/motion.h"
#include "codec/range_coder.h"
#include "codec/transform.h"
#include "media/frame.h"

namespace sieve::runtime {
class Executor;
}

namespace sieve::codec {

/// Quantization context shared by all frames of a stream.
struct CodingContext {
  QuantTable luma_q;
  QuantTable chroma_q;

  static CodingContext ForQp(int qp) {
    return CodingContext{MakeLumaQuant(qp), MakeChromaQuant(qp)};
  }
};

/// Inter-frame coding tunables.
struct InterParams {
  int search_range = 12;
  std::uint32_t lambda = 8;
  /// Per-pixel SAD below which a zero-motion macroblock is coded as SKIP.
  /// 0 = derive from qp (coarser quantization tolerates larger skips, like
  /// H.264's lambda-scaled mode decision).
  std::uint32_t skip_sad_per_pixel = 0;

  /// The qp-derived default used when skip_sad_per_pixel == 0.
  static std::uint32_t AutoSkipThreshold(int qp) noexcept {
    const int t = qp / 8;
    return std::uint32_t(t < 1 ? 1 : t);
  }
};

/// Full adaptive-model state for one frame payload (reset each frame).
struct FrameModels {
  PlaneModels luma_intra, chroma_intra;
  PlaneModels luma_inter, chroma_inter;
  BitModel skip_flag;
  std::array<BitModel, kUnsignedLengthModels> mv_x;
  std::array<BitModel, kUnsignedLengthModels> mv_y;
};

/// Reusable pass-1 scratch for EncodeIntraFrame: the per-block quantized
/// coefficients of each plane (Y, U, V). One list per plane — not one shared
/// list — so the whole frame's pass 1 can complete before any entropy coding
/// starts, which is what lets a pipelined encoder defer the entropy sweep.
/// Streams should pass the same instance every frame so steady-state I-frame
/// coding does not allocate.
struct IntraScratch {
  std::array<std::vector<CoeffBlock>, 3> coeffs;  ///< Y, U, V in coding order
};

/// Encode `src` as an intra frame; writes the reconstruction (what any
/// decoder will produce) into `recon`, which must be src-sized.
///
/// Two-pass design mirroring EncodeInterFrame: pass 1 (DCT + quantization +
/// reconstruction per 8x8 block) parallelizes over block rows on `executor`;
/// pass 2 is the serial DC-predicted entropy sweep over the stored
/// coefficients. The bitstream is byte-identical for every executor choice
/// (null = serial). `scratch` is optional reusable working memory.
void EncodeIntraFrame(RangeEncoder& rc, FrameModels& models,
                      const media::Frame& src, const CodingContext& ctx,
                      media::Frame& recon, runtime::Executor* executor = nullptr,
                      IntraScratch* scratch = nullptr);

/// Pass 1 of EncodeIntraFrame alone: DCT + quantization + reconstruction for
/// all three planes, no entropy coding. Fills `scratch` with the per-plane
/// coefficient lists EncodeIntraFrameEntropy consumes. `recon` is complete
/// when this returns, so the next frame's motion search can start while this
/// frame's entropy sweep is still pending — the seam the pipelined encoder
/// overlaps on.
void EncodeIntraFramePass1(const media::Frame& src, const CodingContext& ctx,
                           media::Frame& recon, runtime::Executor* executor,
                           IntraScratch& scratch);

/// Pass 1 minus the reconstruction: DCT + quantization only. Fills
/// `scratch` exactly as EncodeIntraFramePass1 does (intra coefficients never
/// depend on reconstructed pixels), so QuantizeIntraFrame +
/// EncodeIntraFrameEntropy writes the same bytes as EncodeIntraFrame. For
/// coders that never predict from the frame: stills.
void QuantizeIntraFrame(const media::Frame& src, const CodingContext& ctx,
                        runtime::Executor* executor, IntraScratch& scratch);

/// Pass 2 of EncodeIntraFrame: the serial DC-predicted entropy sweep over a
/// scratch filled by EncodeIntraFramePass1. The quantized coefficients do
/// not depend on the DC predictor (prediction happens here, at the entropy
/// stage), so Pass1 + Entropy is byte-identical to the fused EncodeIntraFrame.
void EncodeIntraFrameEntropy(RangeEncoder& rc, FrameModels& models,
                             const IntraScratch& scratch);

/// Decode an intra frame of known dimensions.
void DecodeIntraFrame(RangeDecoder& rc, FrameModels& models,
                      const CodingContext& ctx, media::Frame& out);

/// Pass-1 work item for one macroblock of an inter frame: the SKIP decision,
/// the motion vector, and (for coded MBs) the quantized residual
/// coefficients — 4 luma 8x8 blocks then one U and one V block — ready for
/// entropy coding.
struct InterMbTask {
  bool skip = false;
  MotionVector mv{0, 0};
  std::array<CoeffBlock, 6> coeffs;
};

/// Reusable pass-1 scratch for EncodeInterFrame: prediction planes and the
/// per-macroblock work list. Streams should pass the same instance for every
/// frame so steady-state encoding does not allocate (~15 MB/frame at 1080p
/// otherwise).
struct InterScratch {
  media::Plane pred_y, pred_u, pred_v;
  std::vector<InterMbTask> tasks;
  /// Macroblock grid of the frame pass 1 last processed; recorded so a
  /// deferred EncodeInterFrameEntropy call needs nothing but this scratch.
  int mbs_x = 0, mbs_y = 0;
};

/// Encode `src` as an inter frame predicted from `prev_recon`.
///
/// Two-pass design: pass 1 computes per-macroblock SKIP decisions, motion
/// vectors, and quantized residuals — macroblock rows are independent (the
/// MV predictor resets at the start of each row, searches read only
/// `src`/`prev_recon`, and each macroblock touches disjoint plane regions),
/// so when `executor` has concurrency > 1 the rows fan out over it. Pass 2
/// is the inherently serial entropy-coding sweep consuming those work items.
/// The bitstream is bit-identical to EncodeInterFrameReference regardless of
/// the executor (null = serial). `scratch` is optional reusable working
/// memory (null = allocate per call).
void EncodeInterFrame(RangeEncoder& rc, FrameModels& models,
                      const media::Frame& src, const media::Frame& prev_recon,
                      const CodingContext& ctx, const InterParams& params,
                      media::Frame& recon, runtime::Executor* executor = nullptr,
                      InterScratch* scratch = nullptr);

/// Pass 1 of EncodeInterFrame alone: SKIP decisions, motion search,
/// compensation, residual transform, and reconstruction — everything
/// entropy-free. Fills `scratch` (work list + grid dimensions) for a later
/// EncodeInterFrameEntropy call. `recon` is complete when this returns; the
/// entropy sweep reads only `scratch`, so the next frame's pass 1 can run
/// against `recon` while this frame's entropy is still pending.
void EncodeInterFramePass1(const media::Frame& src,
                           const media::Frame& prev_recon,
                           const CodingContext& ctx, const InterParams& params,
                           media::Frame& recon, runtime::Executor* executor,
                           InterScratch& scratch);

/// Pass 2 of EncodeInterFrame: the serial entropy sweep over a scratch
/// filled by EncodeInterFramePass1. Pass1 + Entropy is byte-identical to the
/// fused EncodeInterFrame (and therefore to EncodeInterFrameReference).
void EncodeInterFrameEntropy(RangeEncoder& rc, FrameModels& models,
                             const InterScratch& scratch);

/// The single-pass serial reference encoder (the pre-overhaul path, with
/// unpruned motion search). Golden path for the optimization-equivalence
/// tests and the benchmark baseline.
void EncodeInterFrameReference(RangeEncoder& rc, FrameModels& models,
                               const media::Frame& src,
                               const media::Frame& prev_recon,
                               const CodingContext& ctx,
                               const InterParams& params, media::Frame& recon);

/// Decode an inter frame given the previous reconstructed frame.
void DecodeInterFrame(RangeDecoder& rc, FrameModels& models,
                      const media::Frame& prev_recon, const CodingContext& ctx,
                      media::Frame& out);

}  // namespace sieve::codec
