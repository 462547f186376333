// Adaptive binary range coder (LZMA-style) — the codec's entropy layer.
//
// Binary symbols are coded against adaptive probability models; multi-bit
// values are coded through bit trees or direct (uniform) bits. The encoder
// and decoder adapt identically, so streams are self-describing given the
// same model layout on both sides.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sieve::codec {

namespace internal {
inline constexpr std::uint32_t kTopValue = 1u << 24;
inline constexpr int kModelTotalBits = 11;  // probabilities out of 2048
inline constexpr int kMoveBits = 5;         // adaptation rate
}  // namespace internal

/// Number of length-prefix models EncodeUnsigned/DecodeUnsigned need
/// (a 6-bit tree: indices 1..63).
inline constexpr std::size_t kUnsignedLengthModels = 64;

/// Adaptive probability of a binary symbol being 0, in [1, 2047] out of 2048.
struct BitModel {
  std::uint16_t prob = 1024;
};

/// Range encoder writing to a ByteWriter. Call Flush() exactly once at the
/// end; the object is single-use.
class RangeEncoder {
 public:
  explicit RangeEncoder(ByteWriter* out) : out_(out) {}

  RangeEncoder(const RangeEncoder&) = delete;
  RangeEncoder& operator=(const RangeEncoder&) = delete;

  /// Encode one bit against an adaptive model (model updates in place).
  /// This and the multi-bit coders below are defined inline: they run per
  /// coded bit or symbol, from every coding loop. It stays branchy: a
  /// branch-free (cmov) form measured no faster.
  void EncodeBit(BitModel& model, int bit) {
    using namespace internal;
    const std::uint32_t bound = (range_ >> kModelTotalBits) * model.prob;
    if (bit == 0) {
      range_ = bound;
      model.prob = std::uint16_t(
          model.prob + (((1u << kModelTotalBits) - model.prob) >> kMoveBits));
    } else {
      low_ += bound;
      range_ -= bound;
      model.prob = std::uint16_t(model.prob - (model.prob >> kMoveBits));
    }
    while (range_ < kTopValue) {
      ShiftLow();
      range_ <<= 8;
    }
  }

  /// Encode `num_bits` raw bits of `value` (MSB first) at fixed p=0.5.
  void EncodeDirectBits(std::uint32_t value, int num_bits);

  /// Encode value in [0, 2^num_bits) against a bit-tree of 2^num_bits - 1
  /// models (models[1..]); standard LZMA layout.
  void EncodeBitTree(std::span<BitModel> models, std::uint32_t value,
                     int num_bits);

  /// Encode an arbitrary unsigned value: a 6-bit bit-length prefix through a
  /// bit tree (lengths 0..32), then the value's remaining bits directly.
  void EncodeUnsigned(std::span<BitModel> length_models, std::uint32_t value);

  /// Terminate the stream. Must be the last call.
  void Flush();

 private:
  void ShiftLow();

  ByteWriter* out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

/// Range decoder over a borrowed byte span. Reads past the end decode as
/// zero bytes (matches the encoder's flush padding).
class RangeDecoder {
 public:
  explicit RangeDecoder(std::span<const std::uint8_t> data);

  /// Decode one bit against an adaptive model. Inline (like the multi-bit
  /// decoders below) and branchy for the same reasons as EncodeBit.
  int DecodeBit(BitModel& model) {
    using namespace internal;
    const std::uint32_t bound = (range_ >> kModelTotalBits) * model.prob;
    int bit;
    if (code_ < bound) {
      range_ = bound;
      model.prob = std::uint16_t(
          model.prob + (((1u << kModelTotalBits) - model.prob) >> kMoveBits));
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      model.prob = std::uint16_t(model.prob - (model.prob >> kMoveBits));
      bit = 1;
    }
    while (range_ < kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | NextByte();
    }
    return bit;
  }

  std::uint32_t DecodeDirectBits(int num_bits);
  std::uint32_t DecodeBitTree(std::span<BitModel> models, int num_bits);
  std::uint32_t DecodeUnsigned(std::span<BitModel> length_models);

  std::size_t bytes_consumed() const noexcept { return pos_; }

 private:
  std::uint8_t NextByte() noexcept {
    return pos_ < data_.size() ? data_[pos_++] : 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

inline void RangeEncoder::EncodeDirectBits(std::uint32_t value, int num_bits) {
  for (int i = num_bits - 1; i >= 0; --i) {
    range_ >>= 1;
    if ((value >> i) & 1u) low_ += range_;
    while (range_ < internal::kTopValue) {
      ShiftLow();
      range_ <<= 8;
    }
  }
}

inline void RangeEncoder::EncodeBitTree(std::span<BitModel> models,
                                        std::uint32_t value, int num_bits) {
  assert(models.size() >= (std::size_t(1) << num_bits));
  std::uint32_t node = 1;
  for (int i = num_bits - 1; i >= 0; --i) {
    const int bit = int((value >> i) & 1u);
    EncodeBit(models[node], bit);
    node = (node << 1) | std::uint32_t(bit);
  }
}

inline void RangeEncoder::EncodeUnsigned(std::span<BitModel> length_models,
                                         std::uint32_t value) {
  assert(length_models.size() >= kUnsignedLengthModels);
  int bits = 0;
  while ((std::uint64_t(1) << bits) <= value) ++bits;  // bits = bit-length
  EncodeBitTree(length_models, std::uint32_t(bits), 6);
  if (bits > 1) EncodeDirectBits(value & ((1u << (bits - 1)) - 1u), bits - 1);
}

inline std::uint32_t RangeDecoder::DecodeDirectBits(int num_bits) {
  std::uint32_t value = 0;
  for (int i = 0; i < num_bits; ++i) {
    range_ >>= 1;
    std::uint32_t bit = 0;
    if (code_ >= range_) {
      code_ -= range_;
      bit = 1;
    }
    value = (value << 1) | bit;
    while (range_ < internal::kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | NextByte();
    }
  }
  return value;
}

inline std::uint32_t RangeDecoder::DecodeBitTree(std::span<BitModel> models,
                                                 int num_bits) {
  std::uint32_t node = 1;
  for (int i = 0; i < num_bits; ++i) {
    node = (node << 1) | std::uint32_t(DecodeBit(models[node]));
  }
  return node - (1u << num_bits);
}

inline std::uint32_t RangeDecoder::DecodeUnsigned(
    std::span<BitModel> length_models) {
  // The length tree spans 6 bits (0..63), but a valid stream never encodes a
  // length above 32: values are 32-bit. A corrupt stream can decode any
  // length, so clamp before shifting; the garbage value then fails callers'
  // range checks instead of being a UB shift.
  const int bits = std::min(int(DecodeBitTree(length_models, 6)), 32);
  if (bits == 0) return 0;
  if (bits == 1) return 1;
  return (1u << (bits - 1)) | DecodeDirectBits(bits - 1);
}

}  // namespace sieve::codec
