// Golden bit-exactness of fp32 inference: FNV-1a hashes of the float bits
// of every backbone layer's output, of the final embedding and of the
// classifier's input tensor, pinned to constants recorded before inference
// moved onto the SIMD kernel table.
// Every compiled and supported kernel arch must reproduce them exactly, so
// embeddings, labels, databases and WAN bytes cannot drift with dispatch,
// layout or compiler flags (a -march=native build must match too).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd/kernels.h"
#include "media/frame.h"
#include "nn/classifier.h"
#include "nn/network.h"
#include "nn/tensor.h"

namespace sieve::nn {
namespace {

constexpr std::uint64_t kSeed = 0x51E5Eull;

// Recorded with the pre-dispatch fp32 code (GCC 12, -O2, x86-64 baseline
// ISA). One entry per MakeBackbone(96, 64) layer.
constexpr std::uint64_t kLayerHashes[] = {
    0x76FE7FF12B4288F7ull, 0xCCC2E27E3697D879ull, 0x23AB53E3BAC896BAull,
    0x60D2F6FB836915B6ull, 0x316902ADA7D5BE99ull, 0x3FC82813CAE01079ull,
    0x7C62B3B209D75DE4ull, 0x38A81EA4DAE6EE96ull, 0xB793B704C77BBD7Dull,
    0xE839778E7C038E07ull, 0x0CBAC83C63DE4050ull, 0x78B6E15C8E84C620ull,
    0x407BAF22F45A616Full,
};
// FrameClassifier::InputTensor of a 96x96 frame and of a resized 160x120
// frame.
constexpr std::uint64_t kInputTensorHashes[] = {0xFB222AC9D41BA15Aull,
                                               0xF94693D5CB846CF3ull};

class Fnv1a {
 public:
  void Add(const Tensor& t) {
    for (const float v : t.values()) {
      std::uint32_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        hash_ ^= (bits >> (8 * b)) & 0xFFu;
        hash_ *= 0x100000001B3ull;
      }
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::uint64_t Hash(const Tensor& t) {
  Fnv1a h;
  h.Add(t);
  return h.value();
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llX", static_cast<unsigned long long>(v));
  return buf;
}

Tensor SeededInput(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.values()) v = float(rng.Uniform(-0.5, 0.5));
  return t;
}

media::Frame SeededFrame(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  media::Frame frame(w, h);
  for (media::Plane* plane : {&frame.y(), &frame.u(), &frame.v()}) {
    for (int y = 0; y < plane->height(); ++y) {
      for (int x = 0; x < plane->width(); ++x) {
        plane->at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
      }
    }
  }
  return frame;
}

/// Every arch this binary can run, scalar first.
std::vector<simd::KernelArch> RunnableArches() {
  std::vector<simd::KernelArch> out;
  for (simd::KernelArch arch : simd::CompiledArches()) {
    if (simd::ArchSupported(arch)) out.push_back(arch);
  }
  return out;
}

TEST(GoldenBitExact, BackboneLayersMatchRecordedHashes) {
  const Network net = MakeBackbone(96, 64, kSeed);
  ASSERT_EQ(net.LayerCount(), std::size(kLayerHashes));
  const Tensor input = SeededInput(net.input_shape(), kSeed);
  for (simd::KernelArch arch : RunnableArches()) {
    simd::ScopedKernelArch pin(arch);
    Tensor cur = input;
    for (std::size_t i = 0; i < net.LayerCount(); ++i) {
      net.layer(i).ForwardInPlace(cur);
      EXPECT_EQ(Hex(Hash(cur)), Hex(kLayerHashes[i]))
          << simd::KernelArchName(arch) << " layer " << i << " ("
          << net.layer(i).name() << ")";
    }
    // The network's own loop is the path inference takes.
    EXPECT_EQ(Hex(Hash(net.Forward(input))), Hex(kLayerHashes[12]))
        << simd::KernelArchName(arch) << " embedding";
  }
}

TEST(GoldenBitExact, ClassifierInputTensorMatchesRecordedHashes) {
  const FrameClassifier classifier;
  const media::Frame frames[] = {SeededFrame(96, 96, kSeed),
                                 SeededFrame(160, 120, kSeed + 1)};
  for (std::size_t i = 0; i < std::size(frames); ++i) {
    EXPECT_EQ(Hex(Hash(classifier.InputTensor(frames[i]))),
              Hex(kInputTensorHashes[i]))
        << "frame " << i;
  }
}

}  // namespace
}  // namespace sieve::nn
