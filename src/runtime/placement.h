// Per-session NN placement: where each camera's classifier runs.
//
// The paper's NN Deployment service decides *per camera* whether the
// classifier executes at the edge, in the cloud, or split at an intermediate
// layer with the cut-point activation shipped over the constrained WAN
// (Neurosurgeon, Kang et al., ASPLOS'17 — the paper's reference [8]).
// A PlacementPlan is that decision, resolved once at OpenSession:
//
//   mode kCloud -> split 0                (ship the transcoded still; the
//                                          cloud runs the whole network)
//   mode kEdge  -> split N = LayerCount() (the edge runs the whole network
//                                          and the centroid match; only the
//                                          label crosses to the cloud tier)
//   mode kAuto  -> split k chosen by nn::ChooseSplit from the measured
//                  per-layer profile and the runtime's WAN link model
//
// Different sessions on one Runtime carry different plans concurrently —
// the heterogeneous-fleet scenario where one camera runs edge-heavy while
// another ships everything.
#pragma once

#include <cstddef>

#include "net/link.h"
#include "nn/partition.h"

namespace sieve::nn {
class FrameClassifier;
}

namespace sieve::runtime {

/// Session-level placement request. kDefault defers to the runtime-wide
/// RuntimeConfig::default_placement (itself never kDefault). kFixed pins an
/// operator-chosen split (SessionConfig::fixed_split) without consulting
/// the planner — the deployment-service override, and the knob the bench
/// uses to sweep every cut point.
enum class PlacementMode { kDefault, kEdge, kCloud, kAuto, kFixed };

/// Stable name for logs, reports, and bench JSON.
const char* PlacementModeName(PlacementMode mode) noexcept;

/// A resolved placement: the mode that produced it, the layer split
/// (layers [0, split) run at the edge, [split, N) in the cloud), and — for
/// kAuto — the planner's predicted latency breakdown at that split.
struct PlacementPlan {
  PlacementMode mode = PlacementMode::kCloud;
  std::size_t split = 0;
  nn::PartitionPoint predicted;  ///< filled when the planner ran (kAuto)
};

/// Resolve a placement mode into a concrete plan. `planner` supplies the
/// measured per-layer profile, link model, and input size for kAuto; fixed
/// modes ignore it (pass {} for a cheap open). kFixed clamps `fixed_split`
/// to [0, layer_count]. kDefault resolves like kCloud — the Runtime
/// substitutes its configured default before calling.
PlacementPlan ResolvePlacement(PlacementMode mode,
                               const nn::PartitionInput& planner,
                               std::size_t layer_count,
                               std::size_t fixed_split = 0);

/// Measure the full planner input for a deployment: the classifier's
/// per-layer wall-clock profile plus the bytes split 0 actually ships (a
/// transcoded still of the NN input frame, really encoded — not guessed
/// from tensor sizes). This is the one implementation both the Runtime
/// (kAuto opens, cached) and the bench (predicted-latency columns) use, so
/// their predictions never diverge. The cloud speedup stays at
/// nn::PartitionInput's default.
nn::PartitionInput MeasurePlannerInput(const nn::FrameClassifier& classifier,
                                       int nn_input_size, int still_qp,
                                       const net::LinkModel& wan);

}  // namespace sieve::runtime
