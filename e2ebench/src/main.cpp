// End-to-end SiEVE benchmark program (see README.md).
//
//   e2ebench --workload live_fleet|archive_replay|query_mix --seed N
//            --seconds S --trace 0|1
//
// --trace 0 sets up the workload several times (median set-up time), runs
// it untraced for about S seconds, replays every pushed frame serially per
// camera to check the runtime's labels, and prints the end-to-end metrics.
// --trace 1 runs it untraced and then traced (spans around every public
// runtime call), replays the same inputs serially through each layer, and
// prints the per-layer metrics. Both check the outputs; any failed check
// exits 1. Scratch files live under .bench_build/ in the working directory.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/simd/kernels.h"
#include "replay.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "store/recovery.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace sv = sieve;

constexpr int kSetupRepeats = 3;
/// Windows per run of the windowed medians.
constexpr double kWindows = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && have_workload && a.seconds >= 1.0 &&
         a.seconds <= 60.0;
}

/// Scratch directory, removed on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string path;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

std::string Fingerprint(const Args& a) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "fingerprint: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"kernel_arch\": \"%s\", "
      "\"compiler\": \"%s\", \"compiler_version\": \"%s\", "
      "\"build_flags\": \"%s\"}",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, std::thread::hardware_concurrency(),
      sv::simd::KernelArchName(sv::simd::ActiveArch()), E2E_COMPILER,
      __VERSION__, E2E_BUILD_FLAGS);
  return buf;
}

/// Rows the replay produced must equal the runtime's rows on the same
/// frames, camera by camera.
void CompareReplay(const std::vector<Rows>& replay,
                   const std::vector<Rows>& runtime,
                   const std::vector<std::size_t>& prefix, Report& rep) {
  for (std::size_t c = 0; c < replay.size() && c < runtime.size(); ++c) {
    Rows head;
    for (const auto& [frame, labels] : runtime[c]) {
      if (frame < prefix[c]) head.emplace(frame, labels);
    }
    if (head != replay[c]) {
      rep.Fail("serial replay labels != runtime db for camera " +
               std::to_string(c));
    }
  }
  if (replay.size() != runtime.size()) rep.Fail("replay covered too few cameras");
}

/// Per-frame propagated labels of the drained databases against the
/// generated ground truth.
double LabelAccuracy(const Inputs& in, const RunResult& run) {
  std::size_t correct = 0, total = 0;
  for (std::size_t c = 0; c < run.dbs.size(); ++c) {
    sv::core::ResultsDatabase db;
    (void)db.Restore(run.dbs[c]);
    for (std::size_t i = 0; i < run.frames_per_camera[c]; ++i) {
      const auto [seg, f] = in.clips[c].At(i);
      correct += db.LabelAt(i) == seg->truth.label(f) ? 1 : 0;
      ++total;
    }
  }
  return total ? double(correct) / double(total) : 0.0;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Operations attempted and failed in one run: pushes and queries; failed
/// pushes and dropped frames fail.
Tally Count(const WorkloadSpec& spec, const RunResult& run, double seconds) {
  Tally t;
  t.attempted = FramesPerCamera(spec, seconds) * std::size_t(spec.cameras) +
                run.queries;
  t.failed = run.push_failures;
  for (const auto& rep : run.reports) t.failed += rep.frames_dropped;
  return t;
}

std::string Ratio(std::size_t num, std::size_t den) {
  return std::to_string(num) + "/" + std::to_string(den);
}

std::unique_ptr<sv::runtime::Runtime> Boot(const WorkloadSpec& spec,
                                           const Inputs& in,
                                           const std::string& dir,
                                           Report& rep) {
  sv::Status status;
  auto rt = BootRuntime(spec, in, dir, &status);
  if (!rt) rep.Fail("boot: " + status.ToString());
  return rt;
}

// ------------------------------------------------------------- timed run --

int RunTimed(const WorkloadSpec& spec, const Args& a, const std::string& tmp,
             Report& rep) {
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<sv::runtime::Runtime> rt;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rt.reset();
    in = Inputs{};
    const std::int64_t t0 = NowNs();
    in = BuildInputs(spec, a.seed, false);
    rt = Boot(spec, in, tmp + "/store-" + std::to_string(i), rep);
    if (!rt) break;
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  if (!rt) {
    rep.Print(1, 1);
    return 1;
  }
  RunResult run = RunWorkload(spec, in, *rt, a.seed, a.seconds, false);
  for (const std::string& f : run.check_failures) rep.Fail(f);
  const Tally tally = Count(spec, run, a.seconds);
  if (run.reports.empty()) {
    rep.Print(tally.attempted, tally.failed + 1);
    return 1;
  }

  // Untimed serial replay of every frame the run pushed, one thread per
  // camera: labels must match the runtime's databases frame by frame.
  std::vector<std::size_t> splits;
  for (const auto& r : run.reports) splits.push_back(r.nn_split);
  const ReplayResult replay = ReplayPerCamera(
      spec, in, rt->config(), run.frames_per_camera, splits, tmp + "/replay");
  for (const std::string& f : replay.failures) rep.Fail(f);
  CompareReplay(replay.dbs, run.dbs, run.frames_per_camera, rep);

  std::uint64_t wan_bytes = 0;
  std::size_t iframes = 0;
  for (const auto& r : run.reports) {
    wan_bytes += r.edge_to_cloud_bytes;
    iframes += r.iframes_selected;
  }
  const double frames = double(std::max<std::size_t>(run.frames_pushed, 1));
  const std::string nframes = "frames=" + std::to_string(run.frames_pushed);
  rep.Add("setup_s", Median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");
  rep.Add("throughput_fps", frames / run.window_s, "1/s",
          nframes + " window_s=" + std::to_string(run.window_s));
  const double window_s = run.window_s / kWindows;
  rep.AddLatency("push_latency_p50_ms",
                 WindowedMedian(run.push_latency_ms, window_s), "ms");
  rep.AddLatency("push_latency_p99_ms",
                 Percentile(Values(run.push_latency_ms), 0.99), "ms");
  rep.AddLatency("event_latency_p50_ms",
                 WindowedMedian(run.event_latency_ms, window_s), "ms");
  rep.AddLatency("event_latency_p95_ms",
                 Percentile(Values(run.event_latency_ms), 0.95), "ms");
  if (spec.readers > 0) {
    const double reader_s = run.reader_wall_s / double(spec.readers);
    rep.AddLatency("query_latency_p50_us",
                   WindowedMedian(run.query_latency_us, reader_s / kWindows),
                   "us");
    rep.AddLatency("query_latency_p99_us",
                   Percentile(Values(run.query_latency_us), 0.99), "us");
    char qline[128];
    std::snprintf(qline, sizeof qline,
                  "queries_per_s: %.3f 1/s (queries=%zu readers=%d)",
                  double(run.queries) / reader_s, run.queries, spec.readers);
    rep.Line(qline);
  }
  rep.Add("wan_bytes_per_frame", double(wan_bytes) / frames, "B", nframes);
  rep.Add("decoded_frame_share", double(iframes) / frames, "ratio",
          Ratio(iframes, run.frames_pushed));
  rep.Add("label_accuracy", LabelAccuracy(in, run), "ratio", nframes);
  rep.Add("cpu_ms_per_frame", run.ingest_cpu_s * 1e3 / frames, "ms",
          "cpu_s=" + std::to_string(run.ingest_cpu_s) + " (readers excluded)");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");

  const std::size_t failed = tally.failed + rep.failures().size();
  char line[256];
  std::snprintf(line, sizeof line,
                "failed_op_share: %.6f (%zu of %zu operations)",
                double(failed) /
                    double(std::max<std::size_t>(tally.attempted, 1)),
                failed, tally.attempted);
  rep.Line(line);
  if (spec.open_loop) {
    rep.AddLatency("bench.generator_lag_p99_ms",
                   Percentile(run.generator_lag_ms, 0.99), "ms");
  }
  rep.Print(tally.attempted, failed);
  return rep.failures().empty() && failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------ traced run --

struct LayerAgg {
  double self_ns = 0.0;
  std::size_t count = 0;
  double mean_ns() const { return count ? self_ns / double(count) : 0.0; }
};

std::map<std::string, LayerAgg> Aggregate(const SpanLog& log) {
  std::map<std::string, LayerAgg> agg;
  const std::vector<std::int64_t> self = SelfTimesNs(log.spans());
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& s = log.spans()[i];
    if (s.instant) continue;
    LayerAgg& a = agg[s.name];
    a.self_ns += double(self[i]);
    ++a.count;
  }
  return agg;
}

std::string StageKey(const sv::dataflow::StageStats& s) {
  if (!s.has_queue) return "cam";
  std::string key = s.name;
  std::replace(key.begin(), key.end(), '/', '-');
  return key;
}

const char* const kReplayLayers[] = {
    "codec.encode", "core.seek",     "codec.decode_intra", "codec.still_encode",
    "codec.still_decode", "nn.input", "nn.forward",        "nn.prefix",
    "nn.serialize", "net.send",      "nn.deserialize",     "nn.suffix",
    "core.db_insert", "store.append", "query.publish"};

int RunTraced(const WorkloadSpec& spec, const Args& a, const std::string& tmp,
              Report& rep) {
  // Two windows of half the run each: untraced, then traced.
  const double window_s = a.seconds / 2;
  Inputs in = BuildInputs(spec, a.seed, true);
  RunResult base;
  {
    auto rt = Boot(spec, in, tmp + "/store-untraced", rep);
    if (!rt) {
      rep.Print(1, 1);
      return 1;
    }
    base = RunWorkload(spec, in, *rt, a.seed, window_s, false);
  }
  RunResult run;
  const std::string store_dir = tmp + "/store-traced";
  sv::runtime::RuntimeConfig config;
  {
    auto rt = Boot(spec, in, store_dir, rep);
    if (!rt) {
      rep.Print(1, 1);
      return 1;
    }
    config = rt->config();
    run = RunWorkload(spec, in, *rt, a.seed, window_s, true);
  }
  for (const std::string& f : base.check_failures) rep.Fail("untraced: " + f);
  for (const std::string& f : run.check_failures) rep.Fail("traced: " + f);
  if (base.dbs != run.dbs) rep.Fail("traced and untraced databases differ");
  const Tally tb = Count(spec, base, window_s);
  const Tally tt = Count(spec, run, window_s);
  const std::size_t attempted = tb.attempted + tt.attempted;
  if (run.reports.empty()) {
    rep.Print(attempted, tb.failed + tt.failed + 1);
    return 1;
  }

  // Serial replay of one segment per camera, traced.
  std::vector<std::size_t> prefix, splits;
  for (std::size_t c = 0; c < run.reports.size(); ++c) {
    prefix.push_back(
        std::min(in.clips[c].segment_length(), run.frames_per_camera[c]));
    splits.push_back(run.reports[c].nn_split);
  }
  const std::string replay_dir = tmp + "/replay";
  ReplayResult replay =
      Replay(spec, in, config, prefix, splits, replay_dir, true);
  for (const std::string& f : replay.failures) rep.Fail(f);
  CompareReplay(replay.dbs, run.dbs, prefix, rep);

  // Recovery of the largest store the workload left behind.
  SpanLog recover_log(400);
  double recover_s = 0.0;
  {
    const std::string dir = spec.journal ? store_dir : replay_dir;
    ScopedSpan span(&recover_log, "store.recover");
    const std::int64_t t0 = NowNs();
    auto recovered = sv::store::RecoverStore(dir);
    recover_s = double(NowNs() - t0) / 1e9;
    if (!recovered.ok() || recovered->quarantined || recovered->truncated_tails) {
      rep.Fail("store recovery after the traced run was not clean");
    }
  }

  // --- per-layer metrics ----------------------------------------------------
  std::map<std::string, LayerAgg> layers = Aggregate(replay.log);
  const std::map<std::string, LayerAgg> setup_layers =
      Aggregate(in.encode_log);
  std::map<std::string, LayerAgg> calls;
  for (const auto& log : run.logs) {
    for (const auto& [name, agg] : Aggregate(*log)) {
      calls[name].self_ns += agg.self_ns;
      calls[name].count += agg.count;
    }
  }
  auto mean = [&](const std::string& name, double scale) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.mean_ns() / scale;
  };
  const double rframes = double(std::max<std::size_t>(replay.frames, 1));
  const double riframes = double(std::max<std::size_t>(replay.iframes, 1));
  const std::string per_iframe = "calls=" + std::to_string(replay.iframes);

  const double encode_ms =
      spec.live_encode
          ? mean("codec.encode", 1e6)
          : (setup_layers.count("codec.encode")
                 ? setup_layers.at("codec.encode").mean_ns() / 1e6
                 : 0.0);
  rep.Add("codec.encode_ms_per_frame", encode_ms, "ms",
          spec.live_encode ? "serial replay" : "set-up pre-encode");
  rep.Add("codec.decode_intra_ms", mean("codec.decode_intra", 1e6), "ms",
          per_iframe);
  rep.Add("codec.still_encode_ms", mean("codec.still_encode", 1e6), "ms",
          per_iframe);
  rep.Add("codec.still_decode_ms", mean("codec.still_decode", 1e6), "ms",
          per_iframe);
  rep.Add("codec.still_bytes", double(replay.still_bytes) / riframes, "B",
          per_iframe);
  rep.Add("core.seek_us_per_frame", mean("core.seek", 1e3), "us",
          "frames=" + std::to_string(replay.frames));
  rep.Add("core.selected_share", double(replay.iframes) / rframes, "ratio",
          Ratio(replay.iframes, replay.frames));
  rep.Add("core.db_insert_us", mean("core.db_insert", 1e3), "us", per_iframe);
  rep.Add("nn.input_ms", mean("nn.input", 1e6), "ms", per_iframe);
  for (const char* name : {"nn.forward", "nn.prefix", "nn.suffix"}) {
    const auto it = layers.find(name);
    const std::size_t n = it == layers.end() ? 0 : it->second.count;
    rep.Add(std::string(name) + "_ms", mean(name, 1e6), "ms",
            "calls=" + std::to_string(n) + (n ? "" : " (no call on this path)"));
  }
  rep.Add("nn.serialize_us", mean("nn.serialize", 1e3), "us");
  rep.Add("nn.deserialize_us", mean("nn.deserialize", 1e3), "us");
  rep.Add("nn.label_change_share",
          double(replay.label_changes) /
              double(std::max<std::size_t>(replay.classified, 1)),
          "ratio", Ratio(replay.label_changes, replay.classified));
  rep.Add("net.send_us", mean("net.send", 1e3), "us");
  rep.Add("net.wan_bytes_per_iframe", double(replay.wan_bytes) / riframes, "B",
          per_iframe);
  std::uint64_t retries = replay.wan_retries;
  for (const auto& r : run.reports) retries += r.wan_retries;
  rep.Add("net.retries", double(retries), "count");
  rep.Add("store.append_us", mean("store.append", 1e3), "us", per_iframe);
  rep.Add("store.sync_ms", mean("store.sync", 1e6), "ms");
  rep.Add("store.recover_s", recover_s, "s",
          spec.journal ? "traced run's store" : "replay journal");
  rep.Add("query.publish_us", mean("query.publish", 1e3), "us", per_iframe);
  for (const auto& [metric, span] :
       {std::pair{"query.find_us", "query.find_object"},
        std::pair{"query.whereis_us", "query.where_is"}}) {
    const LayerAgg agg = calls.count(span) ? calls.at(span) : LayerAgg{};
    rep.Add(metric, agg.mean_ns() / 1e3, "us",
            "calls=" + std::to_string(agg.count) +
                (agg.count ? "" : " (no reader on this workload)"));
  }
  rep.Add("query.reader_call_share",
          run.reader_busy_s / std::max(run.reader_wall_s, 1e-9), "ratio");

  // Stage statistics from the traced run's Shutdown(); the camera sources
  // fold into one "cam" row.
  struct StageAgg {
    std::size_t in = 0, out = 0, workers = 0, peak_queue = 0;
    double busy_s = 0.0, avg_queue = 0.0;
    bool has_queue = false;
  };
  std::map<std::string, StageAgg> stages;
  for (const auto& s : run.stages) {
    StageAgg& agg = stages[StageKey(s)];
    agg.in += s.in;
    agg.out += s.out;
    agg.busy_s += s.busy_seconds;
    agg.workers += s.workers;
    agg.has_queue = s.has_queue;
    agg.peak_queue = std::max(agg.peak_queue, s.peak_queue);
    agg.avg_queue = s.avg_queue;
  }
  std::string top_stage;
  double top_busy = -1.0;
  for (const auto& [key, s] : stages) {
    const double busy = s.busy_s / (double(s.workers) * run.window_s);
    const std::string p = "runtime.stage." + key;
    rep.Add(p + ".busy_share", busy, "ratio");
    if (s.has_queue) {
      rep.Add(p + ".avg_queue", s.avg_queue, "items");
      rep.Add(p + ".peak_queue", double(s.peak_queue), "items");
    }
    rep.Add(p + ".in", double(s.in), "count");
    rep.Add(p + ".out", double(s.out), "count");
    if (busy > top_busy) {
      top_busy = busy;
      top_stage = key;
    }
  }

  if (spec.open_loop) {
    rep.AddPercentile("bench.generator_lag_p99_ms",
                      Percentile(base.generator_lag_ms, 0.99), "ms");
  } else {
    rep.Add("bench.generator_lag_p99_ms", 0.0, "ms", "closed loop: no schedule");
  }
  rep.Add("bench.serial_fps", double(replay.frames) / replay.wall_s, "1/s",
          "frames=" + std::to_string(replay.frames));
  const double base_cpu =
      base.ingest_cpu_s / double(std::max<std::size_t>(base.frames_pushed, 1));
  const double run_cpu =
      run.ingest_cpu_s / double(std::max<std::size_t>(run.frames_pushed, 1));
  rep.Add("bench.trace_overhead_cpu_share", run_cpu / base_cpu - 1.0, "ratio",
          "traced vs untraced cpu per frame");
  rep.Add("bench.trace_overhead_fps_share",
          1.0 - (double(run.frames_pushed) / run.window_s) /
                    (double(base.frames_pushed) / base.window_s),
          "ratio", "traced vs untraced throughput");

  // Accounting: the layer spans must cover the frame spans. In aggregate
  // they must cover 95% or the run fails. Per frame, only the share of
  // frames that reach 95% is reported: on a ~1 us pre-encoded P-frame the
  // tracer's own two clock reads are already more than 5% (README.md).
  {
    const auto self = SelfTimesNs(replay.log.spans());
    double frame_ns = 0.0, frame_self_ns = 0.0;
    std::size_t frames = 0, covered = 0;
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Span& s = replay.log.spans()[i];
      if (std::strcmp(s.name, "frame") != 0) continue;
      const double dur = double(s.end_ns - s.start_ns);
      frame_ns += dur;
      frame_self_ns += double(self[i]);
      ++frames;
      covered += double(self[i]) <= 0.05 * dur ? 1 : 0;
    }
    const double accounted = frame_ns > 0 ? 1.0 - frame_self_ns / frame_ns : 0.0;
    rep.Add("bench.replay_accounted_share", accounted, "ratio",
            "layer self time / frame span time");
    rep.Add("bench.replay_frames_95_share",
            double(covered) / double(std::max<std::size_t>(frames, 1)), "ratio",
            Ratio(covered, frames) + " frames >= 95% accounted");
    if (accounted < 0.95) {
      rep.Fail("replay layer spans cover under 95% of the frame spans");
    }
  }

  // Where the time goes, in words.
  {
    std::vector<std::pair<double, std::string>> order;
    for (const char* name : kReplayLayers) {
      const auto it = layers.find(name);
      if (it != layers.end()) order.emplace_back(it->second.self_ns, name);
    }
    std::sort(order.rbegin(), order.rend());
    std::string text = "replay self time per frame (us):";
    for (const auto& [ns, name] : order) {
      char item[96];
      std::snprintf(item, sizeof item, " %s=%.1f", name.c_str(),
                    ns / rframes / 1e3);
      text += item;
    }
    rep.Line(text);
    if (!order.empty()) {
      rep.Line("largest per-frame self time: " + order.front().second);
    }
    // The same by layer group (module, with codec split into the camera's
    // encode and the edge's decode/still path).
    std::map<std::string, double> groups;
    for (const auto& [ns, name] : order) {
      std::string group = name.substr(0, name.find('.'));
      if (group == "codec") group = name == "codec.encode" ? "codec-encode" : "codec-decode-still";
      groups[group] += ns / rframes / 1e3;
    }
    std::string by_group = "replay self time per frame by layer (us):";
    std::pair<double, std::string> top{-1.0, ""};
    for (const auto& [group, us] : groups) {
      char item[96];
      std::snprintf(item, sizeof item, " %s=%.1f", group.c_str(), us);
      by_group += item;
      top = std::max(top, std::pair{us, group});
    }
    rep.Line(by_group);
    rep.Line("largest layer: " + top.second);
    rep.Line("busiest stage: " + top_stage + " (busy_share " +
             std::to_string(top_busy) + ")");
  }

  // Spans out: pre-encode, every runtime call, the replay, recovery.
  std::vector<const SpanLog*> logs = {&in.encode_log, &replay.log,
                                      &recover_log};
  for (const auto& log : run.logs) logs.push_back(log.get());
  const std::string trace_dir = ".bench_build/e2ebench-traces";
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  const std::string trace_path = trace_dir + "/" + spec.name + "-seed" +
                                 std::to_string(a.seed) + ".json";
  if (WriteChromeTrace(trace_path, logs)) rep.Line("trace: " + trace_path);

  const std::size_t failed = tb.failed + tt.failed + rep.failures().size();
  rep.Print(attempted, failed);
  return rep.failures().empty() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <1..60> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const auto& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  ScratchDir tmp(".bench_build/e2ebench-tmp/" + args.workload + "-" +
                 std::to_string(::getpid()));
  Report rep;
  rep.Line(Fingerprint(args));
  return args.trace ? RunTraced(*spec, args, tmp.path, rep)
                    : RunTimed(*spec, args, tmp.path, rep);
}
