#include "nn/network.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace sieve::nn {

Tensor Network::Forward(const Tensor& input) const {
  return ForwardRange(input, 0, layers_.size());
}

Tensor Network::ForwardRange(const Tensor& input, std::size_t begin,
                             std::size_t end) const {
  Tensor cur = input;
  for (std::size_t i = begin; i < end && i < layers_.size(); ++i) {
    // Element-wise layers mutate cur's buffer; the rest fall back to Forward.
    layers_[i]->ForwardInPlace(cur);
  }
  return cur;
}

Shape Network::ShapeAtLayer(std::size_t split) const {
  Shape shape = input_shape_;
  for (std::size_t i = 0; i < split && i < layers_.size(); ++i) {
    shape = layers_[i]->OutputShape(shape);
  }
  return shape;
}

std::vector<LayerProfile> Network::Profile() const {
  std::vector<LayerProfile> profile;
  profile.reserve(layers_.size());
  Shape shape = input_shape_;
  for (const auto& layer : layers_) {
    LayerProfile entry;
    entry.name = layer->name();
    entry.macs = layer->Macs(shape);
    shape = layer->OutputShape(shape);
    entry.output_shape = shape;
    entry.output_bytes = shape.bytes();
    profile.push_back(std::move(entry));
  }
  return profile;
}

std::vector<LayerProfile> Network::ProfileLayers(int iterations) const {
  std::vector<LayerProfile> profile = Profile();
  Tensor input(input_shape_);
  // Deterministic non-trivial input so timings exercise real data paths.
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.values()[i] = float((i % 255) / 255.0);
  }
  // One untimed pass first: it pays the thread's first-use costs (scratch
  // allocation, cold caches and pages) that steady-state inference never
  // sees. Then each layer keeps its fastest timed pass: load on the box
  // only ever adds time, so the minimum is the stable estimate.
  (void)ForwardRange(input, 0, layers_.size());
  for (int it = 0; it < iterations; ++it) {
    Tensor cur = input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      // Time the same entry point the inference loop uses: element-wise
      // layers run in place, so their timings carry no copy overhead.
      Stopwatch watch;
      layers_[i]->ForwardInPlace(cur);
      const double ms = watch.ElapsedMillis();
      profile[i].measured_ms =
          it == 0 ? ms : std::min(profile[i].measured_ms, ms);
    }
  }
  return profile;
}

Network MakeBackbone(int input_size, int embedding_dim, std::uint64_t seed) {
  Rng rng(seed);
  Network net;
  net.set_input_shape(Shape{3, input_size, input_size});
  net.Add(std::make_unique<Conv2D>(3, 16, 3, 2, 1, rng));
  net.Add(std::make_unique<BatchNorm>(16, rng));
  net.Add(std::make_unique<LeakyRelu>());
  net.Add(std::make_unique<Conv2D>(16, 32, 3, 2, 1, rng));
  net.Add(std::make_unique<BatchNorm>(32, rng));
  net.Add(std::make_unique<LeakyRelu>());
  net.Add(std::make_unique<MaxPool>(2));
  net.Add(std::make_unique<Conv2D>(32, 64, 3, 1, 1, rng));
  net.Add(std::make_unique<BatchNorm>(64, rng));
  net.Add(std::make_unique<LeakyRelu>());
  net.Add(std::make_unique<Conv2D>(64, embedding_dim, 3, 1, 1, rng));
  net.Add(std::make_unique<LeakyRelu>());
  net.Add(std::make_unique<GlobalAvgPool>());
  return net;
}

}  // namespace sieve::nn
