// Inference precision modes. fp32 is the default everywhere; int8 is the
// opt-in quantized mode (per-channel symmetric weights, dynamic per-tensor
// activations — see nn/quantize.h for the arithmetic contract). Precision is
// threaded as a defaulted parameter through Layer/Network/FrameClassifier
// and selected per session via runtime::SessionConfig, so the edge and cloud
// tiers each run the mode their session asked for.
#pragma once

namespace sieve::nn {

enum class Precision { kFp32, kInt8 };

const char* PrecisionName(Precision p) noexcept;

}  // namespace sieve::nn
