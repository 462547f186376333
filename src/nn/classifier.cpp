#include "nn/classifier.h"

#include <algorithm>
#include <array>
#include <limits>

#include "media/image_ops.h"

namespace sieve::nn {

FrameClassifier::FrameClassifier(ClassifierParams params)
    : params_(params),
      network_(MakeBackbone(params.input_size, params.embedding_dim,
                            params.seed)) {}

Tensor FrameClassifier::InputTensor(const media::Frame& frame) const {
  // float(v) / 255.0f - 0.5f for every byte value, computed once with the
  // very same two IEEE operations, so looking it up is bit-identical to the
  // per-pixel divide.
  static const std::array<float, 256> kNormalized = [] {
    std::array<float, 256> table{};
    for (int v = 0; v < 256; ++v) table[std::size_t(v)] = float(v) / 255.0f - 0.5f;
    return table;
  }();
  const int n = params_.input_size;
  media::Frame scaled;
  const media::Frame& resized =
      (frame.width() == n && frame.height() == n)
          ? frame
          : (scaled = media::ResizeFrame(frame, n, n));
  Tensor input(Shape{3, n, n});
  const std::size_t plane = std::size_t(n) * std::size_t(n);
  float* out_y = input.data();
  float* out_u = out_y + plane;
  float* out_v = out_u + plane;
  // Chroma is sampled at (x/2, y/2), clamped to the plane like at_clamped.
  const int cw = resized.u().width(), ch = resized.u().height();
  for (int y = 0; y < n; ++y) {
    const std::uint8_t* row_y = resized.y().row(y);
    const std::uint8_t* row_u = resized.u().row(std::min(y / 2, ch - 1));
    const std::uint8_t* row_v = resized.v().row(std::min(y / 2, ch - 1));
    const std::size_t base = std::size_t(y) * std::size_t(n);
    for (int x = 0; x < n; ++x) {
      const int cx = std::min(x / 2, cw - 1);
      out_y[base + std::size_t(x)] = kNormalized[row_y[x]];
      out_u[base + std::size_t(x)] = kNormalized[row_u[cx]];
      out_v[base + std::size_t(x)] = kNormalized[row_v[cx]];
    }
  }
  return input;
}

std::vector<float> FrameClassifier::Embed(const media::Frame& frame) const {
  return network_.Forward(InputTensor(frame)).values();
}

Status FrameClassifier::Fit(const std::vector<media::Frame>& frames,
                            const synth::GroundTruth& truth,
                            std::size_t stride) {
  if (frames.size() != truth.frame_count()) {
    return Status::Invalid("Fit: frames and ground truth length mismatch");
  }
  if (frames.empty()) return Status::Invalid("Fit: no training frames");
  stride = std::max<std::size_t>(1, stride);

  std::map<std::uint8_t, std::vector<float>> sums;
  std::map<std::uint8_t, std::size_t> counts;
  for (std::size_t i = 0; i < frames.size(); i += stride) {
    const std::vector<float> embedding = Embed(frames[i]);
    const std::uint8_t key = truth.label(i).bits();
    auto [it, inserted] = sums.try_emplace(key, embedding.size(), 0.0f);
    for (std::size_t d = 0; d < embedding.size(); ++d) {
      it->second[d] += embedding[d];
    }
    ++counts[key];
  }
  centroids_.clear();
  for (auto& [key, sum] : sums) {
    const auto n = float(counts[key]);
    for (auto& v : sum) v /= n;
    centroids_.emplace(key, std::move(sum));
  }
  return Status::Ok();
}

Expected<synth::LabelSet> FrameClassifier::PredictFromEmbedding(
    const std::vector<float>& embedding) const {
  if (centroids_.empty()) {
    return Status::Precondition("Predict: classifier not fitted");
  }
  double best = std::numeric_limits<double>::max();
  std::uint8_t best_key = 0;
  for (const auto& [key, centroid] : centroids_) {
    const double d = SquaredDistance(embedding, centroid);
    if (d < best) {
      best = d;
      best_key = key;
    }
  }
  return synth::LabelSet(best_key);
}

Expected<synth::LabelSet> FrameClassifier::Predict(
    const media::Frame& frame) const {
  if (centroids_.empty()) {
    return Status::Precondition("Predict: classifier not fitted");
  }
  return PredictFromEmbedding(Embed(frame));
}

double FrameClassifier::Evaluate(const std::vector<media::Frame>& frames,
                                 const synth::GroundTruth& truth,
                                 std::size_t stride) const {
  stride = std::max<std::size_t>(1, stride);
  std::size_t total = 0, correct = 0;
  for (std::size_t i = 0; i < frames.size() && i < truth.frame_count();
       i += stride) {
    auto predicted = Predict(frames[i]);
    if (predicted.ok() && *predicted == truth.label(i)) ++correct;
    ++total;
  }
  return total > 0 ? double(correct) / double(total) : 0.0;
}

}  // namespace sieve::nn
