// Sequential network graph with per-layer introspection.
//
// Supports the two things SiEVE's deployment service needs beyond plain
// inference: (a) running a *prefix* of the layers on one machine and the
// *suffix* on another (NN partitioning), and (b) per-layer cost and
// activation-size profiles that drive the split-point choice.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"

namespace sieve::nn {

/// Static per-layer profile entry.
struct LayerProfile {
  std::string name;
  Shape output_shape;
  std::uint64_t macs = 0;           ///< multiply-accumulates
  std::size_t output_bytes = 0;     ///< activation size if cut after this layer
  double measured_ms = 0.0;         ///< filled by ProfileLayers
};

class Network {
 public:
  Network() = default;

  void Add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  std::size_t LayerCount() const noexcept { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  Shape input_shape() const noexcept { return input_shape_; }
  void set_input_shape(Shape s) noexcept { input_shape_ = s; }

  /// Full forward pass. Const-thread-safe: conv scratch is thread-local, so
  /// any number of threads may run inference on one shared Network (the
  /// runtime's sessions all share one classifier this way).
  Tensor Forward(const Tensor& input) const;

  /// Forward through layers [begin, end).
  Tensor ForwardRange(const Tensor& input, std::size_t begin,
                      std::size_t end) const;

  /// The edge half of a split forward pass: layers [0, split), returning the
  /// cut-point activation. split == 0 returns the input unchanged (all-cloud
  /// execution); split == LayerCount() runs the whole network at the edge.
  Tensor ForwardPrefix(const Tensor& input, std::size_t split) const {
    return ForwardRange(input, 0, split);
  }

  /// The cloud half: layers [split, N) applied to the (possibly
  /// deserialized) cut-point activation. For every split,
  /// ForwardSuffix(ForwardPrefix(x, k), k) is bit-identical to Forward(x) —
  /// the layers run through the same in-place loop in the same order.
  Tensor ForwardSuffix(const Tensor& activation, std::size_t split) const {
    return ForwardRange(activation, split, layers_.size());
  }

  /// The activation shape entering layer `split` (== input_shape() at 0,
  /// the final output shape at LayerCount()). What a received cut-point
  /// activation must match before ForwardSuffix may run on it.
  Shape ShapeAtLayer(std::size_t split) const;

  /// Static profile (shapes, MACs, activation bytes) for the configured
  /// input shape.
  std::vector<LayerProfile> Profile() const;

  /// Profile + wall-clock per-layer timing: after one untimed warm-up pass,
  /// each layer's minimum over `iterations` timed passes. This is the
  /// measured input the Neurosurgeon-style planner (nn/partition.h) consumes
  /// as PartitionInput::profile.
  std::vector<LayerProfile> ProfileLayers(int iterations = 3) const;

 private:
  Shape input_shape_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// The reference backbone: a small darknet-style CNN producing an embedding,
/// deterministic in `seed`. Input: 3 x input_size x input_size.
Network MakeBackbone(int input_size, int embedding_dim, std::uint64_t seed);

}  // namespace sieve::nn
