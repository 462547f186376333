// Still-image codec: the "decompress like a JPEG" edge-to-cloud format.
//
// SiEVE resizes selected I-frames to the NN's input resolution and ships
// them to the cloud as independently coded still images; this codec provides
// that path (and its byte sizes feed the Figure 5 data-transfer accounting).
// It reuses the video codec's intra-frame machinery with a tiny header.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "media/frame.h"

namespace sieve::runtime {
class Executor;
}

namespace sieve::codec {

/// Encode a frame as a standalone still image ("SIM1" format). An executor
/// parallelizes the intra decision pass over block rows (see
/// EncodeIntraFrame); the bytes are identical for every executor choice.
std::vector<std::uint8_t> EncodeStill(const media::Frame& frame, int qp = 26,
                                      runtime::Executor* executor = nullptr);

/// Decode a SIM1 still image.
Expected<media::Frame> DecodeStill(std::span<const std::uint8_t> bytes);

/// The frame a still decodes to, without coding it: equal to
/// `*DecodeStill(EncodeStill(frame, qp))` for every frame and qp in [1, 51].
/// It runs only the intra pass 1 (per-block DCT, quantization and
/// reconstruction) and skips both entropy coding and decoding. The equality
/// holds by construction: the encoder's reconstruction and the decoder's
/// output rebuild every block through the same ReconstructBlock/DecodeBlock
/// and StoreBlock path. For edges that feed the NN the still's pixels but
/// never ship its bytes.
media::Frame ReconstructStill(const media::Frame& frame, int qp = 26);

}  // namespace sieve::codec
