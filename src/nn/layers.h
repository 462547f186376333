// Inference layers: Conv2D (im2col + GEMM), BatchNorm, activations, pooling,
// Linear, Softmax. Inference-only: weights are set at construction (seeded
// initializers) or folded in (BatchNorm).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace sieve::nn {

/// Abstract inference layer.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;
  /// Output shape for a given input shape (asserts on mismatch).
  virtual Shape OutputShape(const Shape& input) const = 0;
  virtual Tensor Forward(const Tensor& input) const = 0;
  /// Forward that may reuse `t`'s buffer. Element-wise layers override this
  /// to mutate in place; the default falls back to Forward. The sequential
  /// network loop uses this entry point.
  virtual void ForwardInPlace(Tensor& t) const { t = Forward(t); }
  /// Approximate multiply-accumulate count for one forward pass (cost model
  /// input for the partitioner).
  virtual std::uint64_t Macs(const Shape& input) const = 0;
};

/// 2D convolution, square kernel, same dilation 1, zero padding `pad`.
///
/// The fp32 forward is one channel-major GEMM through the active kernel
/// table: weights [out_c x patch] times the im2col matrix [patch x oh*ow]
/// lands directly in CHW order, then the bias is added per channel row.
///
/// Forward is const-thread-safe: the im2col scratch lives in a thread-local
/// buffer (steady-state inference never allocates, and any number of
/// threads may share one instance). Weight *mutation* (weights()/bias()) is
/// not synchronized — do not mutate concurrently with Forward.
class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  std::string name() const override;
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  std::uint64_t Macs(const Shape& input) const override;

  int in_channels() const noexcept { return in_c_; }
  int out_channels() const noexcept { return out_c_; }
  std::vector<float>& weights() noexcept { return weights_; }
  std::vector<float>& bias() noexcept { return bias_; }

 private:
  /// Fill `cols` ([patch x oh*ow], row-major: one row per (channel, ky, kx)
  /// tap, one column per output pixel) with the im2col expansion of one
  /// input — the B operand of the channel-major GEMM.
  void Im2Col(const Tensor& input, const Shape& out_shape, float* cols) const;

  int in_c_, out_c_, kernel_, stride_, pad_;
  std::vector<float> weights_;  ///< [out_c][in_c * k * k] row-major
  std::vector<float> bias_;     ///< [out_c]
};

/// Inference-time batch normalization: y = gamma * (x - mean)/sqrt(var+eps) + beta,
/// stored pre-folded as per-channel scale/shift.
class BatchNorm : public Layer {
 public:
  BatchNorm(int channels, Rng& rng);

  std::string name() const override { return "batchnorm"; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  void ForwardInPlace(Tensor& t) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
};

class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(float slope = 0.1f) : slope_(slope) {}
  std::string name() const override { return "leaky_relu"; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  void ForwardInPlace(Tensor& t) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }

 private:
  float slope_;
};

class MaxPool : public Layer {
 public:
  explicit MaxPool(int size) : size_(size) {}
  std::string name() const override { return "maxpool"; }
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }

 private:
  int size_;
};

/// Global average pooling: CxHxW -> Cx1x1 (the embedding head).
class GlobalAvgPool : public Layer {
 public:
  std::string name() const override { return "global_avg_pool"; }
  Shape OutputShape(const Shape& input) const override {
    return Shape{input.c, 1, 1};
  }
  Tensor Forward(const Tensor& input) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }
};

class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, Rng& rng);
  std::string name() const override;
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  std::uint64_t Macs(const Shape& input) const override;

 private:
  int in_f_, out_f_;
  std::vector<float> weights_;  ///< [out][in]
  std::vector<float> bias_;
};

class Softmax : public Layer {
 public:
  std::string name() const override { return "softmax"; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  void ForwardInPlace(Tensor& t) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements() * 4;
  }
};

}  // namespace sieve::nn
