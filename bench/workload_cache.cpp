#include "workload_cache.h"

#include <cstdio>
#include <sstream>

#include "common/bytes.h"

namespace sieve::bench {

std::string SerializeWorkloads(const std::vector<core::VideoWorkload>& ws) {
  std::ostringstream os;
  os << "# name fps total tuned_gop tuned_sc sem_if sem_bytes def_bytes "
        "uniform mse still\n";
  for (const auto& w : ws) {
    os << w.name << " " << w.fps << " " << w.total_frames << " "
       << w.tuned.gop_size << " " << w.tuned.scenecut << " "
       << w.semantic_iframes << " " << w.semantic_bytes << " "
       << w.default_bytes << " " << w.uniform_selected << " "
       << w.mse_selected << " " << w.still_bytes << "\n";
  }
  return os.str();
}

std::vector<core::VideoWorkload> ParseWorkloads(const std::string& text) {
  std::vector<core::VideoWorkload> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    core::VideoWorkload w;
    std::string extra;
    // A line with fields left over is from another format (an older cache
    // with more columns): reject it rather than read values into the wrong
    // fields, so the caller rebuilds the cache.
    if (!(fields >> w.name >> w.fps >> w.total_frames >> w.tuned.gop_size >>
          w.tuned.scenecut >> w.semantic_iframes >> w.semantic_bytes >>
          w.default_bytes >> w.uniform_selected >> w.mse_selected >>
          w.still_bytes) ||
        fields >> extra) {
      return {};
    }
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<core::VideoWorkload> LoadOrBuildWorkloads(
    const std::string& cache_path) {
  if (auto bytes = ReadFileBytes(cache_path); bytes.ok()) {
    const std::string text(bytes->begin(), bytes->end());
    auto ws = ParseWorkloads(text);
    if (ws.size() == std::size_t(synth::kNumDatasets)) {
      std::fprintf(stderr, "[workloads] loaded %zu from %s\n", ws.size(),
                   cache_path.c_str());
      return ws;
    }
  }
  std::vector<core::VideoWorkload> ws;
  for (const auto& spec : synth::AllDatasetSpecs()) {
    std::fprintf(stderr, "[workloads] building %s...\n", spec.name.c_str());
    core::WorkloadOptions options;
    auto w = core::BuildWorkload(spec.id, options);
    if (!w.ok()) {
      std::fprintf(stderr, "[workloads] FAILED: %s\n",
                   w.status().ToString().c_str());
      return {};
    }
    ws.push_back(std::move(*w));
  }
  const std::string text = SerializeWorkloads(ws);
  (void)WriteFileBytes(cache_path,
                       std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()));
  return ws;
}

}  // namespace sieve::bench
