// The serial replay: the same generated inputs pushed single-threaded
// through each layer's public functions in the runtime's stage order, one
// parent span per frame and one child span per layer call. It is the
// single-threaded baseline and the source of the per-layer self times, and
// its labels must equal the runtime's databases frame by frame.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

struct ReplayResult {
  std::vector<Rows> dbs;  ///< per camera, frames [0, frames_per_camera[c])
  SpanLog log{300};       ///< frame spans + layer spans (traced only)
  std::size_t frames = 0;
  std::size_t iframes = 0;
  std::uint64_t still_bytes = 0;  ///< summed transcoded still sizes
  std::uint64_t wan_bytes = 0;    ///< payload bytes sent over the WAN
  std::uint64_t wan_retries = 0;
  std::size_t classified = 0;     ///< I-frames classified
  std::size_t label_changes = 0;  ///< ... whose labels differ from the previous row
  double wall_s = 0.0;
  std::vector<std::string> failures;
};

/// Replay the first frames_per_camera[c] frames of every camera (none of a
/// camera with 0), with the layer split `splits[c]` the runtime used for it
/// (0 = all cloud, >= LayerCount() = all edge), journaling into
/// `journal_dir` (fresh).
ReplayResult Replay(const WorkloadSpec& spec, const Inputs& inputs,
                    const sieve::runtime::RuntimeConfig& config,
                    const std::vector<std::size_t>& frames_per_camera,
                    const std::vector<std::size_t>& splits,
                    const std::string& journal_dir, bool traced);

/// The same replay, untraced, with each camera replayed on its own thread
/// (at most 4 at a time) and the results merged; wall_s is the whole.
ReplayResult ReplayPerCamera(const WorkloadSpec& spec, const Inputs& inputs,
                             const sieve::runtime::RuntimeConfig& config,
                             const std::vector<std::size_t>& frames_per_camera,
                             const std::vector<std::size_t>& splits,
                             const std::string& journal_dir);

}  // namespace e2e
