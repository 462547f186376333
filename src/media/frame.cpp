#include "media/frame.h"

#include <algorithm>

namespace sieve::media {

Plane::Plane(int width, int height, std::uint8_t fill)
    : width_(width),
      height_(height),
      data_(std::size_t(std::max(width, 0)) * std::size_t(std::max(height, 0)),
            fill) {}

void Plane::Fill(std::uint8_t v) { std::fill(data_.begin(), data_.end(), v); }

Frame::Frame(int width, int height)
    : y_(width, height, 128),
      u_(width / 2, height / 2, 128),
      v_(width / 2, height / 2, 128) {}

Expected<Frame> Frame::Create(int width, int height) {
  if (width <= 0 || height <= 0) {
    return Status::Invalid("Frame dimensions must be positive");
  }
  if (width % 2 != 0 || height % 2 != 0) {
    return Status::Invalid("Frame dimensions must be even for 4:2:0 chroma");
  }
  return Frame(width, height);
}

}  // namespace sieve::media
