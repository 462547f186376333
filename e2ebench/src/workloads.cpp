#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <random>
#include <thread>

#include "codec/container.h"
#include "store/journal.h"
#include "synth/scene.h"

namespace e2e {

namespace sv = sieve;
using sv::Status;
using sv::synth::ObjectClass;

namespace {

/// Frames the classifier is calibrated on, spread over every clip.
constexpr std::size_t kFitFrames = 192;

const std::vector<ObjectClass> kAllClasses = {
    ObjectClass::kCar, ObjectClass::kBus, ObjectClass::kTruck,
    ObjectClass::kPerson, ObjectClass::kBoat};

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;
  {
    // Camera-side encode dominates: four live 320x240 feeds, open loop at
    // about half the closed-loop capacity, sparse events.
    WorkloadSpec s;
    s.name = "live_fleet";
    s.cameras = 4;
    s.width = 320;
    s.height = 240;
    s.live_encode = true;
    s.open_loop = true;
    s.camera_fps = 150.0;
    s.clip_frames = 100;
    s.segments = 5;
    s.gap_s = 0.6;
    s.dwell_s = 0.8;
    s.concurrent = false;
    s.classes = {ObjectClass::kCar, ObjectClass::kPerson, ObjectClass::kBus};
    s.gop = 250;
    s.scenecut = 250;
    specs.push_back(s);
  }
  {
    // Edge and cloud tiers do the work: sixteen pre-encoded 160x120
    // archives pushed closed loop, dense overlapping events, mixed
    // placements, journal on.
    WorkloadSpec s;
    s.name = "archive_replay";
    s.cameras = 16;
    s.width = 160;
    s.height = 120;
    s.live_encode = false;
    s.open_loop = false;
    s.nominal_fps = 3600.0;
    s.feeders = 4;
    s.clip_frames = 150;
    s.segments = 4;
    s.gap_s = 0.8;
    s.dwell_s = 1.2;
    s.concurrent = true;
    s.classes = kAllClasses;
    s.gop = 60;
    s.scenecut = 260;
    s.mixed_placement = true;
    s.journal = true;
    specs.push_back(s);
  }
  {
    // Reads beside writes: a large sealed history recovered at boot, two
    // modest open-loop ingest cameras, two closed-loop query readers.
    WorkloadSpec s;
    s.name = "query_mix";
    s.cameras = 2;
    s.width = 160;
    s.height = 120;
    s.live_encode = false;
    s.open_loop = true;
    s.camera_fps = 120.0;
    s.clip_frames = 120;
    s.segments = 20;
    s.gap_s = 0.8;
    s.dwell_s = 1.2;
    s.concurrent = true;
    s.classes = kAllClasses;
    s.gop = 60;
    s.scenecut = 260;
    s.journal = true;
    s.history_cameras = 96;
    s.history_rows = 3000;
    s.readers = 2;
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  return x * 0x94D049BB133111EBull + 1;
}

sv::synth::SceneConfig SceneFor(const WorkloadSpec& spec, std::uint64_t seed,
                                std::size_t clip) {
  sv::synth::SceneConfig c;
  c.width = spec.width;
  c.height = spec.height;
  c.fps = kStreamFps;
  c.num_frames = spec.clip_frames;
  c.seed = Mix(seed, clip + 1);
  c.classes = spec.classes;
  c.object_scale = 0.35;
  // Regular traffic where the generator allows it, so every seed yields
  // about the same number of events per clip: gaps and dwells take their
  // minimum (an exponential draw with a tiny mean never beats it). Scenes
  // with concurrent objects keep their Poisson arrivals. Each clip gets its
  // own rhythm, within 20% of the workload's, so that events on different
  // cameras do not coincide.
  constexpr double kTiny = 0.01;
  const double rhythm = 0.8 + 0.4 * double(Mix(seed, 5000 + clip) % 1024) / 1024;
  c.min_gap_seconds = spec.gap_s * rhythm;
  c.mean_gap_seconds = spec.concurrent ? spec.gap_s : kTiny;
  c.min_dwell_seconds = spec.dwell_s * rhythm;
  c.mean_dwell_seconds = kTiny;
  c.ramp_seconds = 0.5;
  c.allow_concurrent = spec.concurrent;
  return c;
}

/// Seeded label history: rows at increasing frames, each toggling one class
/// of the previous row's label set, so every class has a long interval chain.
HistoryCamera MakeHistory(std::uint64_t seed, std::size_t index,
                          std::size_t rows) {
  HistoryCamera h;
  char id[32];
  std::snprintf(id, sizeof id, "hist-%03zu", index);
  h.id = id;
  h.route = h.id + "#1";
  std::mt19937_64 rng(Mix(seed, 1000 + index));
  std::uint8_t bits = 0;
  std::size_t frame = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    frame += 1 + rng() % 30;
    bits ^= std::uint8_t(1u << (rng() % sv::synth::kNumObjectClasses));
    h.rows.emplace(frame, sv::synth::LabelSet{bits});
  }
  h.total_frames = frame + 1 + rng() % 30;
  return h;
}

Status WriteHistory(const HistoryCamera& h, const std::string& dir) {
  auto journal = sv::store::JournalWriter::Open(
      dir + "/" + sv::store::JournalFileName(h.route), sv::store::FsyncPolicy{});
  if (!journal.ok()) return journal.status();
  Status s = (*journal)->AppendRegister(h.route, h.id, 0.0, h.fps);
  for (const auto& [frame, labels] : h.rows) {
    if (!s.ok()) break;
    s = (*journal)->AppendInsert(frame, labels.bits());
  }
  if (s.ok()) s = (*journal)->AppendSeal(h.total_frames);
  Status closed = (*journal)->Close();
  return s.ok() ? closed : s;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

void SleepUntilNs(std::int64_t t_ns) {
  const std::int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

/// Intervals of `cls` in drained rows, as the live index reports them.
std::vector<std::pair<std::size_t, std::size_t>> DrainedIntervals(
    const Rows& rows, ObjectClass cls, std::size_t total_frames) {
  sv::core::ResultsDatabase db;
  if (!db.Restore(rows).ok()) return {};
  return db.FindObject(cls, total_frames);
}

/// The live index's hits for one camera id, checked against the drained
/// intervals and against one consistent clock (t = open + frame / fps).
void CheckIndexAgainst(const sv::query::QueryService& query,
                       const std::string& camera_id, const Rows& rows,
                       std::size_t total_frames, double fps,
                       std::vector<std::string>& failures) {
  for (ObjectClass cls : kAllClasses) {
    std::vector<std::pair<std::size_t, std::size_t>> live;
    bool clock_ok = true;
    double open = 0.0;
    bool have_open = false;
    for (const auto& hit : query.FindObject(cls)) {
      if (hit.camera_id != camera_id) continue;
      live.emplace_back(hit.begin_frame, hit.end_frame);
      const double o = hit.begin_seconds - double(hit.begin_frame) / fps;
      if (!have_open) {
        open = o;
        have_open = true;
      }
      if (std::abs(o - open) > 1e-6 || hit.open) clock_ok = false;
    }
    std::sort(live.begin(), live.end());
    if (live != DrainedIntervals(rows, cls, total_frames) || !clock_ok) {
      failures.push_back("live index != drained db for " + camera_id +
                         " class " + sv::synth::ObjectClassName(cls));
    }
  }
}

}  // namespace

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = std::min<std::size_t>(
      {n, 4, std::max(1u, std::thread::hardware_concurrency())});
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

sv::codec::EncoderParams EncoderFor(const WorkloadSpec& spec) {
  return sv::codec::EncoderParams::Semantic(spec.gop, spec.scenecut);
}

std::span<const std::uint8_t> WireBytes(const sv::codec::EncodedVideo& video,
                                        const sv::codec::FrameRecord& record) {
  return std::span<const std::uint8_t>(video.bytes)
      .subspan(record.payload_offset - sv::codec::FrameRecord::kHeaderSize,
               sv::codec::FrameRecord::kHeaderSize + record.payload_size);
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

std::size_t FramesPerCamera(const WorkloadSpec& spec, double seconds) {
  const double aggregate = spec.open_loop
                               ? spec.camera_fps * spec.cameras
                               : spec.nominal_fps;
  return std::max<std::size_t>(
      1, std::size_t(std::llround(aggregate * seconds / spec.cameras)));
}

Inputs BuildInputs(const WorkloadSpec& spec, std::uint64_t seed,
                   bool traced) {
  Inputs in;
  const std::size_t cams = std::size_t(spec.cameras);
  in.clips.resize(cams);
  for (std::size_t c = 0; c < cams; ++c) {
    char id[16];
    std::snprintf(id, sizeof id, "cam-%02zu", c);
    in.clips[c].id = id;
    in.clips[c].segments.resize(spec.segments);
    in.clips[c].offset = c * spec.clip_frames / cams;
    if (spec.mixed_placement) {
      static constexpr sv::runtime::PlacementMode kModes[] = {
          sv::runtime::PlacementMode::kCloud, sv::runtime::PlacementMode::kEdge,
          sv::runtime::PlacementMode::kAuto};
      in.clips[c].placement = kModes[c % 3];
    }
  }
  // Every (camera, segment) clip is generated independently; raw frames
  // are kept only for live encoding and for calibrating the classifier.
  const std::size_t clips = cams * spec.segments;
  std::vector<std::vector<sv::media::Frame>> fit_frames(clips);
  std::vector<std::vector<sv::synth::LabelSet>> fit_truth(clips);
  std::vector<SpanLog> encode_logs(clips);
  const std::size_t fit_stride =
      std::max<std::size_t>(1, clips * spec.clip_frames / kFitFrames);
  ParallelFor(clips, [&](std::size_t k) {
    const std::size_t c = k / spec.segments;
    Segment& seg = in.clips[c].segments[k % spec.segments];
    sv::synth::SyntheticVideo scene =
        sv::synth::GenerateScene(SceneFor(spec, seed, k));
    seg.truth = std::move(scene.truth);
    std::vector<sv::media::Frame>& raw = scene.video.frames;
    for (std::size_t f = k % fit_stride; f < raw.size(); f += fit_stride) {
      fit_frames[k].push_back(raw[f]);
      fit_truth[k].push_back(seg.truth.label(f));
    }
    if (spec.live_encode) {
      seg.frames = std::move(raw);
      return;
    }
    // Pre-encode through the same streaming encoder a live session runs,
    // single-threaded per clip (clips encode in parallel).
    sv::codec::EncoderParams params = EncoderFor(spec);
    params.threads = 1;
    sv::codec::StreamingEncoder encoder(params, spec.width, spec.height,
                                        kStreamFps);
    SpanLog* log = traced ? &encode_logs[k] : nullptr;
    for (std::size_t f = 0; f < raw.size(); ++f) {
      ScopedSpan span(log, "codec.encode", -1, std::uint32_t(c), f);
      (void)encoder.PushFrame(raw[f]);
    }
    seg.encoded = encoder.Finish();
  });
  for (const SpanLog& log : encode_logs) {
    for (const Span& s : log.spans()) in.encode_log.Add(s);
  }

  // One classifier serves every camera; calibrate it on frames of all of
  // them so no camera's background is unseen.
  std::vector<sv::media::Frame> frames;
  std::vector<sv::synth::LabelSet> truth;
  for (std::size_t k = 0; k < clips; ++k) {
    for (std::size_t i = 0; i < fit_frames[k].size(); ++i) {
      frames.push_back(std::move(fit_frames[k][i]));
      truth.push_back(fit_truth[k][i]);
    }
  }
  in.classifier = std::make_unique<sv::nn::FrameClassifier>();
  if (!in.classifier
           ->Fit(frames, sv::synth::GroundTruth(std::move(truth)), 1)
           .ok()) {
    in.classifier.reset();
  }
  for (std::size_t h = 0; h < spec.history_cameras; ++h) {
    in.history.push_back(MakeHistory(seed, h, spec.history_rows));
  }
  return in;
}

std::unique_ptr<sv::runtime::Runtime> BootRuntime(const WorkloadSpec& spec,
                                                  const Inputs& in,
                                                  const std::string& store_dir,
                                                  Status* status) {
  *status = Status::Ok();
  sv::runtime::RuntimeConfig config;
  if (spec.journal) {
    std::error_code ec;
    std::filesystem::create_directories(store_dir, ec);
    if (ec) {
      *status = Status::Unavailable("cannot create " + store_dir);
      return nullptr;
    }
    std::vector<Status> written(in.history.size());
    ParallelFor(in.history.size(), [&](std::size_t h) {
      written[h] = WriteHistory(in.history[h], store_dir);
    });
    for (const Status& s : written) {
      if (!s.ok()) {
        *status = s;
        return nullptr;
      }
    }
    config.store.dir = store_dir;
  }
  if (!in.classifier) {
    *status = Status::Precondition("classifier fit failed");
    return nullptr;
  }
  return std::make_unique<sv::runtime::Runtime>(config, in.classifier.get());
}

namespace {

struct QueryStats {
  std::vector<TimedSample> latency_us;
  double busy_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< the reader thread's own CPU time
};

/// One closed-loop query reader: a seeded mix of FindObject (random class
/// and time window) and WhereIs until `stop`. Samples are stamped from the
/// reader's start.
void ReaderLoop(const sv::query::QueryService& query, std::uint64_t seed,
                double window_span_s, const std::atomic<bool>& stop,
                QueryStats& out, SpanLog* log) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double cpu0 = ThreadCpuSeconds();
  const std::int64_t t0 = NowNs();
  while (!stop.load(std::memory_order_acquire)) {
    const ObjectClass cls = kAllClasses[rng() % kAllClasses.size()];
    const bool find = unit(rng) < 0.7;
    const double from = unit(rng) * window_span_s;
    const double width = 5.0 + unit(rng) * 60.0;
    const std::int64_t start = NowNs();
    if (find) {
      ScopedSpan span(log, "query.find_object");
      (void)query.FindObject(cls, from, from + width);
    } else {
      ScopedSpan span(log, "query.where_is");
      (void)query.WhereIs(cls);
    }
    const std::int64_t end = NowNs();
    out.busy_s += double(end - start) / 1e9;
    out.latency_us.push_back(
        {double(start - t0) / 1e9, double(end - start) / 1e3});
  }
  out.wall_s = double(NowNs() - t0) / 1e9;
  out.cpu_s = ThreadCpuSeconds() - cpu0;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const Inputs& in,
                      sv::runtime::Runtime& rt, std::uint64_t seed,
                      double seconds, bool traced) {
  RunResult r;
  const std::size_t cams = in.clips.size();
  const std::size_t n = FramesPerCamera(spec, seconds);
  SpanLog main_log(0);
  SpanLog* mlog = traced ? &main_log : nullptr;

  // --- sessions ------------------------------------------------------------
  std::vector<std::unique_ptr<sv::runtime::SieveSession>> sessions;
  std::map<std::string, std::size_t> cam_index;
  for (std::size_t c = 0; c < cams; ++c) {
    const CameraClip& clip = in.clips[c];
    sv::runtime::SessionConfig sc;
    sc.width = spec.width;
    sc.height = spec.height;
    sc.fps = kStreamFps;
    sc.encoder = EncoderFor(spec);
    sc.placement = clip.placement;
    ScopedSpan span(mlog, "runtime.open_session", -1, std::uint32_t(c));
    auto session = rt.OpenSession(clip.id, sc);
    if (!session.ok()) {
      r.check_failures.push_back("OpenSession(" + clip.id +
                                 "): " + session.status().ToString());
      return r;
    }
    sessions.push_back(std::move(*session));
    cam_index[clip.id] = c;
  }

  // Due (open loop) or push-start (closed loop) stamp of every frame; the
  // event callback times enter/exit notifications against it.
  std::vector<std::unique_ptr<std::atomic<std::int64_t>[]>> due(cams);
  for (auto& d : due) {
    d = std::make_unique<std::atomic<std::int64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) d[i].store(0);
  }
  std::mutex event_mutex;
  SpanLog event_log(1);
  std::int64_t t0 = 0;  // run start: set before the first push
  std::vector<sv::query::QueryService::SubscriptionId> subs;
  for (ObjectClass cls : kAllClasses) {
    ScopedSpan span(mlog, "runtime.subscribe");
    subs.push_back(rt.query().Subscribe(
        cls, [&](const sv::query::QueryEvent& e) {
          const std::int64_t now = NowNs();
          const auto it = cam_index.find(e.camera_id);
          if (it == cam_index.end() || e.frame >= n) return;  // seal exits
          const std::int64_t stamp =
              due[it->second][e.frame].load(std::memory_order_acquire);
          if (stamp == 0) return;
          std::lock_guard<std::mutex> lock(event_mutex);
          r.event_latency_ms.push_back(
              {double(now - t0) / 1e9, double(now - stamp) / 1e6});
          if (traced) {
            event_log.Instant("query.event", std::uint32_t(it->second),
                              e.frame, now);
          }
        }));
  }

  // --- readers -------------------------------------------------------------
  std::atomic<bool> stop_readers{false};
  std::vector<QueryStats> qstats(std::size_t(spec.readers));
  std::vector<std::unique_ptr<SpanLog>> reader_logs;
  double window_span_s = double(n) / kStreamFps;
  for (const HistoryCamera& h : in.history) {
    window_span_s = std::max(window_span_s, double(h.total_frames) / h.fps);
  }
  t0 = NowNs();
  const double cpu0 = CpuSeconds();
  std::vector<std::thread> readers;
  for (int q = 0; q < spec.readers; ++q) {
    reader_logs.push_back(std::make_unique<SpanLog>(200 + q));
    SpanLog* log = traced ? reader_logs.back().get() : nullptr;
    readers.emplace_back([&, q, log] {
      ReaderLoop(rt.query(), Mix(seed, 7000 + q), window_span_s, stop_readers,
                 qstats[std::size_t(q)], log);
    });
  }

  // --- feeders -------------------------------------------------------------
  struct FeederOut {
    std::vector<TimedSample> latency_ms;
    std::vector<double> lag_ms;
    std::size_t failures = 0;
  };
  const std::size_t feeders =
      spec.open_loop ? cams : std::size_t(spec.feeders);
  std::vector<FeederOut> fout(feeders);
  std::vector<std::unique_ptr<SpanLog>> feeder_logs;
  std::vector<std::size_t> pushed(cams, 0);
  const double period_ns = spec.open_loop ? 1e9 / spec.camera_fps : 0.0;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < feeders; ++t) {
    feeder_logs.push_back(std::make_unique<SpanLog>(100 + std::uint32_t(t)));
    SpanLog* log = traced ? feeder_logs.back().get() : nullptr;
    if (log) log->Reserve(n * cams / feeders + 16);
    threads.emplace_back([&, t, log] {
      FeederOut& out = fout[t];
      out.latency_ms.reserve(n * cams / feeders + 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = t; c < cams; c += feeders) {
          const CameraClip& clip = in.clips[c];
          std::int64_t stamp = 0;
          if (spec.open_loop) {
            stamp = t0 + std::int64_t(double(i) * period_ns);
            SleepUntilNs(stamp);
            out.lag_ms.push_back(double(NowNs() - stamp) / 1e6);
          } else {
            stamp = NowNs();
          }
          due[c][i].store(stamp, std::memory_order_release);
          const auto [seg, f] = clip.At(i);
          Status s;
          if (spec.live_encode) {
            ScopedSpan span(log, "runtime.push_frame", -1, std::uint32_t(c), i);
            s = sessions[c]->PushFrame(seg->frames[f]);
          } else {
            const sv::codec::FrameRecord& rec = seg->encoded.records[f];
            const auto wire = WireBytes(seg->encoded, rec);
            ScopedSpan span(log, "runtime.push_encoded", -1, std::uint32_t(c),
                            i);
            s = sessions[c]->PushEncoded(rec.type, i, wire);
          }
          out.latency_ms.push_back(
              {double(stamp - t0) / 1e9, double(NowNs() - stamp) / 1e6});
          if (s.ok()) {
            ++pushed[c];  // each camera has exactly one feeder
          } else {
            ++out.failures;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_readers.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  double reader_cpu_s = 0.0;
  for (const QueryStats& q : qstats) {
    r.query_latency_us.insert(r.query_latency_us.end(), q.latency_us.begin(),
                              q.latency_us.end());
    r.reader_busy_s += q.busy_s;
    r.reader_wall_s += q.wall_s;
    reader_cpu_s += q.cpu_s;
  }
  r.queries = r.query_latency_us.size();

  for (std::size_t c = 0; c < cams; ++c) {
    ScopedSpan span(mlog, "runtime.drain", -1, std::uint32_t(c));
    r.reports.push_back(sessions[c]->Drain());
  }
  const std::int64_t t_end = NowNs();
  r.ingest_cpu_s = CpuSeconds() - cpu0 - reader_cpu_s;
  r.window_s = double(t_end - t0) / 1e9;
  {
    ScopedSpan span(mlog, "runtime.shutdown");
    auto stages = rt.Shutdown();
    if (stages.ok()) {
      r.stages = std::move(*stages);
    } else {
      r.check_failures.push_back("Shutdown: " + stages.status().ToString());
    }
  }
  for (auto id : subs) rt.query().Unsubscribe(id);

  for (FeederOut& o : fout) {
    r.push_latency_ms.insert(r.push_latency_ms.end(), o.latency_ms.begin(),
                             o.latency_ms.end());
    r.generator_lag_ms.insert(r.generator_lag_ms.end(), o.lag_ms.begin(),
                              o.lag_ms.end());
    r.push_failures += o.failures;
  }
  // --- correctness ---------------------------------------------------------
  for (std::size_t c = 0; c < cams; ++c) {
    const sv::runtime::SessionReport& rep = r.reports[c];
    r.frames_pushed += pushed[c];
    r.frames_per_camera.push_back(pushed[c]);
    r.dbs.push_back(sessions[c]->db().rows());
    if (rep.frames_pushed != rep.frames_stored_edge + rep.frames_delivered +
                                 rep.frames_dropped + rep.frames_resumed) {
      r.check_failures.push_back("ledger does not reconcile for " +
                                 rep.camera_id);
    }
    if (rep.frames_pushed != pushed[c] ||
        rep.frames_delivered != r.dbs[c].size()) {
      r.check_failures.push_back("frame counts disagree for " + rep.camera_id);
    }
    CheckIndexAgainst(rt.query(), rep.camera_id, r.dbs[c], rep.frames_pushed,
                      kStreamFps, r.check_failures);
  }
  for (const HistoryCamera& h : in.history) {
    CheckIndexAgainst(rt.query(), h.id, h.rows, h.total_frames, h.fps,
                      r.check_failures);
  }

  if (traced) {
    r.logs.push_back(std::make_unique<SpanLog>(std::move(main_log)));
    r.logs.push_back(std::make_unique<SpanLog>(std::move(event_log)));
    for (auto& l : feeder_logs) r.logs.push_back(std::move(l));
    for (auto& l : reader_logs) r.logs.push_back(std::move(l));
  }
  return r;
}

}  // namespace e2e
