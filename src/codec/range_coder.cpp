#include "codec/range_coder.h"

namespace sieve::codec {

void RangeEncoder::Flush() {
  for (int i = 0; i < 5; ++i) ShiftLow();
}

void RangeEncoder::ShiftLow() {
  if (std::uint32_t(low_) < 0xFF000000u || (low_ >> 32) != 0) {
    std::uint8_t carry = std::uint8_t(low_ >> 32);
    std::uint8_t byte = cache_;
    do {
      out_->PutU8(std::uint8_t(byte + carry));
      byte = 0xFF;
    } while (--cache_size_ != 0);
    cache_ = std::uint8_t(low_ >> 24);
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFull;
}

RangeDecoder::RangeDecoder(std::span<const std::uint8_t> data) : data_(data) {
  // The first encoder output byte is always 0 (initial cache); consume 5
  // bytes to fill the 32-bit code register.
  for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | NextByte();
}

}  // namespace sieve::codec
