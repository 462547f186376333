// Workload construction for the Fig. 5 byte-accounting bench.
//
// Building a workload renders + tunes + encodes a probe slice of each
// dataset, which takes a couple of minutes for all five; the result is
// cached in ./bench_workloads.cache so a second run reuses it.
#pragma once

#include <string>
#include <vector>

#include "core/placements.h"

namespace sieve::bench {

/// Load the five Table-I workloads from cache or build + cache them.
/// `target_frames_per_video` scales every feed to the paper's 4h default
/// when 0.
std::vector<core::VideoWorkload> LoadOrBuildWorkloads(
    const std::string& cache_path = "bench_workloads.cache");

/// Serialize / parse (plain text, one workload per line). Parse returns {}
/// when any line is malformed, including a line with fields left over.
std::string SerializeWorkloads(const std::vector<core::VideoWorkload>& ws);
std::vector<core::VideoWorkload> ParseWorkloads(const std::string& text);

}  // namespace sieve::bench
