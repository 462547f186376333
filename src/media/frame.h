// Frame and plane types: the pixel substrate for the whole system.
//
// Video frames are YUV 4:2:0 (the format every mainstream surveillance
// encoder consumes): a full-resolution luma plane Y and two half-resolution
// chroma planes U, V. Dimensions are constrained to multiples of 2 so the
// chroma planes subsample cleanly; the codec additionally pads to macroblock
// multiples internally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/status.h"

namespace sieve::media {

/// A single 8-bit image plane with row-major storage.
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, std::uint8_t fill = 0);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  std::uint8_t at(int x, int y) const {
    return data_[std::size_t(y) * std::size_t(width_) + std::size_t(x)];
  }
  std::uint8_t& at(int x, int y) {
    return data_[std::size_t(y) * std::size_t(width_) + std::size_t(x)];
  }
  /// Clamped read: coordinates outside the plane clamp to the border. Used
  /// by motion compensation and filters so edges behave like x264's padding.
  std::uint8_t at_clamped(int x, int y) const noexcept {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return data_[std::size_t(y) * std::size_t(width_) + std::size_t(x)];
  }

  const std::uint8_t* row(int y) const {
    return data_.data() + std::size_t(y) * std::size_t(width_);
  }
  std::uint8_t* row(int y) {
    return data_.data() + std::size_t(y) * std::size_t(width_);
  }
  const std::uint8_t* data() const noexcept { return data_.data(); }
  std::uint8_t* data() noexcept { return data_.data(); }

  void Fill(std::uint8_t v);

  bool SameSize(const Plane& other) const noexcept {
    return width_ == other.width_ && height_ == other.height_;
  }

  /// True if the w×h rectangle at (x, y) lies fully inside the plane. The
  /// fast paths of the block/SAD helpers key off this single predicate.
  bool ContainsRect(int x, int y, int w, int h) const noexcept {
    return x >= 0 && y >= 0 && x + w <= width_ && y + h <= height_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

/// YUV 4:2:0 frame. Luma is width×height; chroma planes are (width/2)×(height/2).
class Frame {
 public:
  Frame() = default;
  /// Creates a frame with all planes initialized to mid-grey (Y=128 neutral
  /// chroma). Width and height must be positive and even.
  Frame(int width, int height);

  static Expected<Frame> Create(int width, int height);

  int width() const noexcept { return y_.width(); }
  int height() const noexcept { return y_.height(); }
  bool empty() const noexcept { return y_.empty(); }

  Plane& y() noexcept { return y_; }
  Plane& u() noexcept { return u_; }
  Plane& v() noexcept { return v_; }
  const Plane& y() const noexcept { return y_; }
  const Plane& u() const noexcept { return u_; }
  const Plane& v() const noexcept { return v_; }

  bool SameSize(const Frame& other) const noexcept {
    return y_.SameSize(other.y_);
  }

  /// Total pixel bytes across the three planes (1.5 bytes/pixel for 4:2:0).
  std::size_t ByteSize() const noexcept {
    return y_.size() + u_.size() + v_.size();
  }

 private:
  Plane y_, u_, v_;
};

/// A sequence of frames plus stream metadata. This is the in-memory raw
/// video representation handed to encoders and baselines.
struct RawVideo {
  int width = 0;
  int height = 0;
  double fps = 30.0;
  std::vector<Frame> frames;

  std::size_t frame_count() const noexcept { return frames.size(); }
  double duration_seconds() const noexcept {
    return fps > 0 ? double(frames.size()) / fps : 0.0;
  }
};

}  // namespace sieve::media
