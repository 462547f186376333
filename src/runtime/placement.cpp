#include "runtime/placement.h"

#include <algorithm>

#include "codec/still.h"
#include "media/frame.h"
#include "nn/classifier.h"

namespace sieve::runtime {

namespace {
// Timed profile passes per planner measurement, after one warm-up pass:
// enough for each layer's minimum to shed a preempted or cold pass.
constexpr int kPlannerProfilePasses = 5;
}  // namespace

const char* PlacementModeName(PlacementMode mode) noexcept {
  switch (mode) {
    case PlacementMode::kDefault: return "default";
    case PlacementMode::kEdge: return "edge";
    case PlacementMode::kCloud: return "cloud";
    case PlacementMode::kAuto: return "auto";
    case PlacementMode::kFixed: return "fixed";
  }
  return "unknown";
}

PlacementPlan ResolvePlacement(PlacementMode mode,
                               const nn::PartitionInput& planner,
                               std::size_t layer_count,
                               std::size_t fixed_split) {
  PlacementPlan plan;
  plan.mode = mode;
  switch (mode) {
    case PlacementMode::kEdge:
      plan.split = layer_count;
      break;
    case PlacementMode::kDefault:
      plan.mode = PlacementMode::kCloud;
      [[fallthrough]];
    case PlacementMode::kCloud:
      plan.split = 0;
      break;
    case PlacementMode::kAuto:
      plan.predicted = nn::ChooseSplit(planner);
      plan.split = plan.predicted.split;
      break;
    case PlacementMode::kFixed:
      plan.split = std::min(fixed_split, layer_count);
      break;
  }
  return plan;
}

nn::PartitionInput MeasurePlannerInput(const nn::FrameClassifier& classifier,
                                       int nn_input_size, int still_qp,
                                       const net::LinkModel& wan) {
  nn::PartitionInput input;
  input.profile = classifier.network().ProfileLayers(kPlannerProfilePasses);
  // What split 0 actually ships: a transcoded still of the NN input frame.
  // Encode one (mid-grey + gradient, representative texture) and take its
  // real size.
  media::Frame probe(nn_input_size, nn_input_size);
  for (int y = 0; y < probe.height(); ++y) {
    for (int x = 0; x < probe.width(); ++x) {
      probe.y().at(x, y) = std::uint8_t((x * 7 + y * 5) % 256);
    }
  }
  input.input_bytes = codec::EncodeStill(probe, still_qp).size();
  input.bandwidth_mbps = wan.bandwidth_mbps;
  input.rtt_ms = wan.rtt_ms;
  return input;
}

}  // namespace sieve::runtime
