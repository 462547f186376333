#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/encoder.h"
#include "synth/scene.h"

namespace sieve::runtime {
namespace {

synth::SyntheticVideo SmallScene(std::uint64_t seed) {
  synth::SceneConfig c;
  c.width = 64;
  c.height = 48;
  c.num_frames = 40;
  c.seed = seed;
  c.mean_gap_seconds = 0.6;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 0.8;
  c.min_dwell_seconds = 0.4;
  return synth::GenerateScene(c);
}

class RuntimeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new synth::SyntheticVideo(SmallScene(7));
    nn::ClassifierParams cp;
    cp.input_size = 32;
    cp.embedding_dim = 16;
    classifier_ = new nn::FrameClassifier(cp);
    ASSERT_TRUE(classifier_->Fit(scene_->video.frames, scene_->truth, 4).ok());
  }
  static void TearDownTestSuite() {
    delete scene_;
    delete classifier_;
  }

  static RuntimeConfig SmallConfig() {
    RuntimeConfig config;
    config.nn_input_size = 32;
    return config;
  }
  static SessionConfig SceneSession() {
    SessionConfig config;
    config.width = 64;
    config.height = 48;
    config.encoder = codec::EncoderParams::Semantic(8, 120);
    return config;
  }

  static synth::SyntheticVideo* scene_;
  static nn::FrameClassifier* classifier_;
};

synth::SyntheticVideo* RuntimeTest::scene_ = nullptr;
nn::FrameClassifier* RuntimeTest::classifier_ = nullptr;

TEST_F(RuntimeTest, RejectsUnfittedClassifier) {
  nn::ClassifierParams cp;
  cp.input_size = 32;
  nn::FrameClassifier unfitted(cp);
  Runtime runtime(SmallConfig(), &unfitted);
  const auto session = runtime.OpenSession("cam", SceneSession());
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, RejectsNnInputSizeThatDiffersFromTheClassifier) {
  // The edge would resize I-frames to 48x48 and the classifier would
  // resize them again to its 32x32 input: construction refuses instead.
  RuntimeConfig config = SmallConfig();
  config.nn_input_size = 48;
  Runtime runtime(config, classifier_);
  const auto session = runtime.OpenSession("cam", SceneSession());
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), ErrorCode::kInvalidArgument);
  const auto stats = runtime.Shutdown();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(RuntimeTest, RejectsOddDimensionsAndDuplicateIds) {
  Runtime runtime(SmallConfig(), classifier_);
  SessionConfig odd = SceneSession();
  odd.width = 63;
  EXPECT_FALSE(runtime.OpenSession("cam", odd).ok());

  auto first = runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(runtime.OpenSession("cam", SceneSession()).ok());
  EXPECT_EQ(runtime.session_count(), 1u);
}

TEST_F(RuntimeTest, SingleSessionStreamsToItsDatabase) {
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("gate", SceneSession());
  ASSERT_TRUE(session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*session)->PushFrame(frame).ok());
  }
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.camera_id, "gate");
  EXPECT_EQ(report.frames_pushed, scene_->video.frames.size());
  EXPECT_GT(report.iframes_selected, 0u);
  EXPECT_EQ(report.labels_written, report.iframes_selected);
  EXPECT_EQ((*session)->db().size(), report.iframes_selected);
  EXPECT_GT(report.camera_to_edge_bytes, 0u);
  EXPECT_GT(report.edge_to_cloud_bytes, 0u);

  auto stats = runtime.Shutdown();
  ASSERT_TRUE(stats.ok());
  // One source + seeker, transcode, edge-nn, wan, cloud-nn, cloud-sink.
  ASSERT_EQ(stats->size(), 7u);
  EXPECT_EQ(stats->front().name, "gate");
  EXPECT_EQ(stats->front().out, report.frames_pushed);
  EXPECT_EQ(stats->back().name, "cloud/sink");
  EXPECT_EQ(stats->back().in, report.iframes_selected);
}

TEST_F(RuntimeTest, PushAfterCloseFails) {
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[0]).ok());
  (*session)->Close();
  EXPECT_FALSE((*session)->PushFrame(scene_->video.frames[1]).ok());
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.frames_pushed, 1u);
}

TEST_F(RuntimeTest, CameraIdReusableAfterClose) {
  Runtime runtime(SmallConfig(), classifier_);
  auto first = runtime.OpenSession("gate", SceneSession());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->PushFrame(scene_->video.frames[0]).ok());
  const SessionReport first_report = (*first)->Drain();
  EXPECT_EQ(first_report.frames_pushed, 1u);
  EXPECT_EQ(runtime.session_count(), 0u);

  // The reconnecting camera reopens under the same id; the first
  // incarnation's results stay reachable through its own handle.
  auto second = runtime.OpenSession("gate", SceneSession());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(runtime.session_count(), 1u);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*second)->PushFrame(scene_->video.frames[i]).ok());
  }
  const SessionReport second_report = (*second)->Drain();
  EXPECT_EQ(second_report.frames_pushed, 5u);
  EXPECT_EQ((*first)->db().size(), first_report.labels_written);
  EXPECT_EQ((*second)->db().size(), second_report.labels_written);
}

TEST_F(RuntimeTest, DroppedHandleClosesSession) {
  Runtime runtime(SmallConfig(), classifier_);
  {
    auto session = runtime.OpenSession("gate", SceneSession());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[0]).ok());
  }  // handle dropped without Close()/Drain()
  EXPECT_EQ(runtime.session_count(), 0u);
  auto reopened = runtime.OpenSession("gate", SceneSession());
  EXPECT_TRUE(reopened.ok()) << "dropped handle must free the camera id";
}

TEST_F(RuntimeTest, ShutdownIsOneShotAndClosesSessions) {
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[0]).ok());
  ASSERT_TRUE(runtime.Shutdown().ok());
  EXPECT_FALSE(runtime.Shutdown().ok());
  EXPECT_FALSE(runtime.OpenSession("late", SceneSession()).ok());
  // The in-flight frame settled during shutdown; the session handle stays
  // valid and Drain() returns immediately.
  EXPECT_FALSE((*session)->PushFrame(scene_->video.frames[1]).ok());
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.frames_pushed, 1u);
}

TEST_F(RuntimeTest, ConcurrentSessionsAreIsolated) {
  Runtime runtime(SmallConfig(), classifier_);
  const synth::SyntheticVideo other = SmallScene(23);

  auto a = runtime.OpenSession("cam-a", SceneSession());
  auto b = runtime.OpenSession("cam-b", SceneSession());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::thread ta([&] {
    for (const auto& frame : scene_->video.frames) {
      ASSERT_TRUE((*a)->PushFrame(frame).ok());
    }
  });
  std::thread tb([&] {
    for (const auto& frame : other.video.frames) {
      ASSERT_TRUE((*b)->PushFrame(frame).ok());
    }
  });
  ta.join();
  tb.join();
  const SessionReport ra = (*a)->Drain();
  const SessionReport rb = (*b)->Drain();
  EXPECT_EQ(ra.frames_pushed, scene_->video.frames.size());
  EXPECT_EQ(rb.frames_pushed, other.video.frames.size());
  EXPECT_EQ((*a)->db().size(), ra.iframes_selected);
  EXPECT_EQ((*b)->db().size(), rb.iframes_selected);

  // Same feed through an isolated one-camera runtime: per-camera results
  // must be unaffected by the other session sharing the tiers.
  Runtime isolated(SmallConfig(), classifier_);
  auto solo = isolated.OpenSession("solo", SceneSession());
  ASSERT_TRUE(solo.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*solo)->PushFrame(frame).ok());
  }
  (void)(*solo)->Drain();
  EXPECT_EQ((*a)->db().rows(), (*solo)->db().rows());
}

TEST_F(RuntimeTest, PerSessionPlacementsProduceIdenticalResults) {
  // One runtime, three cameras, three different plans: placement is a
  // deployment choice, never a semantic one. All three dbs must agree with
  // each other (identical feed + bit-identical split execution).
  Runtime runtime(SmallConfig(), classifier_);

  SessionConfig edge_cfg = SceneSession();
  edge_cfg.placement = PlacementMode::kEdge;
  SessionConfig cloud_cfg = SceneSession();
  cloud_cfg.placement = PlacementMode::kCloud;
  SessionConfig auto_cfg = SceneSession();
  auto_cfg.placement = PlacementMode::kAuto;

  auto edge = runtime.OpenSession("edge-cam", edge_cfg);
  auto cloud = runtime.OpenSession("cloud-cam", cloud_cfg);
  auto autos = runtime.OpenSession("auto-cam", auto_cfg);
  ASSERT_TRUE(edge.ok());
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(autos.ok());

  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*edge)->PushFrame(frame).ok());
    ASSERT_TRUE((*cloud)->PushFrame(frame).ok());
    ASSERT_TRUE((*autos)->PushFrame(frame).ok());
  }
  const SessionReport edge_report = (*edge)->Drain();
  const SessionReport cloud_report = (*cloud)->Drain();
  const SessionReport auto_report = (*autos)->Drain();

  const std::size_t layers = classifier_->network().LayerCount();
  EXPECT_EQ(edge_report.placement, PlacementMode::kEdge);
  EXPECT_EQ(edge_report.nn_split, layers);
  EXPECT_EQ(cloud_report.placement, PlacementMode::kCloud);
  EXPECT_EQ(cloud_report.nn_split, 0u);
  EXPECT_EQ(auto_report.placement, PlacementMode::kAuto);
  EXPECT_LE(auto_report.nn_split, layers);

  // All-edge execution ships nothing over the WAN; all-cloud ships stills.
  EXPECT_EQ(edge_report.edge_to_cloud_bytes, 0u);
  EXPECT_GT(cloud_report.edge_to_cloud_bytes, 0u);

  EXPECT_GT((*edge)->db().size(), 0u);
  EXPECT_EQ((*edge)->db().rows(), (*cloud)->db().rows());
  EXPECT_EQ((*edge)->db().rows(), (*autos)->db().rows());
}

TEST_F(RuntimeTest, WeakWanDrivesAutoPlacement) {
  // A runtime behind a dead uplink: the planner must keep everything at the
  // edge, and nothing may cross the WAN.
  SessionConfig cfg = SceneSession();
  cfg.placement = PlacementMode::kAuto;
  RuntimeConfig config = SmallConfig();
  config.edge_to_cloud = net::LinkModel{0.01, 2000.0};
  Runtime runtime(config, classifier_);
  auto session = runtime.OpenSession("weak-uplink", cfg);
  ASSERT_TRUE(session.ok());
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[i]).ok());
  }
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.nn_split, classifier_->network().LayerCount());
  EXPECT_EQ(report.edge_to_cloud_bytes, 0u);
}

TEST_F(RuntimeTest, FixedSplitShipsActivationsAndMatchesCloudResults) {
  // Pin an intermediate cut: the edge runs the prefix and the serialized
  // activation crosses the WAN with an exactly predictable byte count
  // (iframes * (16-byte header + activation payload)).
  const auto profile = classifier_->network().Profile();
  const std::size_t split = 2;  // after conv1+bn: a real mid-network tensor
  ASSERT_LT(split, profile.size());

  SessionConfig cfg = SceneSession();
  cfg.placement = PlacementMode::kFixed;
  cfg.fixed_split = split;
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("split-cam", cfg);
  ASSERT_TRUE(session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*session)->PushFrame(frame).ok());
  }
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.placement, PlacementMode::kFixed);
  EXPECT_EQ(report.nn_split, split);
  EXPECT_GT(report.iframes_selected, 0u);
  EXPECT_EQ(report.edge_to_cloud_bytes,
            report.iframes_selected * (16 + profile[split - 1].output_bytes));

  // Same feed through a default all-cloud runtime: identical labels.
  Runtime cloud_runtime(SmallConfig(), classifier_);
  auto cloud = cloud_runtime.OpenSession("cloud-cam", SceneSession());
  ASSERT_TRUE(cloud.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*cloud)->PushFrame(frame).ok());
  }
  (void)(*cloud)->Drain();
  EXPECT_EQ((*session)->db().rows(), (*cloud)->db().rows());
}

TEST_F(RuntimeTest, ParallelEdgePreservesPerCameraOrder) {
  // The edge tier (still transcode and edge NN) scaled to 4 ordered workers
  // per stage, with all-edge placement so the whole forward pass runs in
  // the edge-NN stage. Per-camera result order is observed through the
  // query layer's standing subscriptions (events fire in database-insert
  // order), and the databases must match a serial edge runtime exactly.
  const synth::SyntheticVideo other = SmallScene(23);
  auto run = [&](int parallelism) {
    RuntimeConfig config = SmallConfig();
    config.edge_parallelism = parallelism;
    config.default_placement = PlacementMode::kEdge;
    Runtime runtime(config, classifier_);

    std::mutex mutex;
    std::map<std::string, std::vector<std::size_t>> event_frames;
    for (int c = 0; c < synth::kNumObjectClasses; ++c) {
      runtime.query().Subscribe(
          synth::ObjectClass(c), [&](const query::QueryEvent& e) {
            std::lock_guard<std::mutex> lock(mutex);
            event_frames[e.camera_id].push_back(e.frame);
          });
    }

    auto a = runtime.OpenSession("cam-a", SceneSession());
    auto b = runtime.OpenSession("cam-b", SceneSession());
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    std::thread ta([&] {
      for (const auto& frame : scene_->video.frames) {
        ASSERT_TRUE((*a)->PushFrame(frame).ok());
      }
    });
    std::thread tb([&] {
      for (const auto& frame : other.video.frames) {
        ASSERT_TRUE((*b)->PushFrame(frame).ok());
      }
    });
    ta.join();
    tb.join();
    (void)(*a)->Drain();
    (void)(*b)->Drain();
    return std::tuple((*a)->db().rows(), (*b)->db().rows(), event_frames);
  };

  const auto [a4, b4, events4] = run(4);
  for (const auto& [camera, frames] : events4) {
    EXPECT_TRUE(std::is_sorted(frames.begin(), frames.end()))
        << "events of " << camera << " arrived out of frame order";
  }
  const auto [a1, b1, events1] = run(1);
  EXPECT_EQ(a4, a1);
  EXPECT_EQ(b4, b1);
  EXPECT_EQ(events4, events1);  // same transitions, same order, per camera
}

TEST_F(RuntimeTest, ParallelCloudNnSessionsMatchTheirIsolatedRuns) {
  // An all-cloud camera and a pinned-split camera sharing one runtime (one
  // classifier, two WAN senders and two cloud-nn workers interleaving both
  // sessions' frames) each get exactly the database they would get
  // streaming alone through a serial cloud tier.
  SessionConfig cloud_cfg = SceneSession();
  cloud_cfg.placement = PlacementMode::kCloud;
  SessionConfig fixed_cfg = SceneSession();
  fixed_cfg.placement = PlacementMode::kFixed;
  fixed_cfg.fixed_split = 2;
  const std::vector<SessionConfig> configs = {cloud_cfg, fixed_cfg};

  RuntimeConfig shared_config = SmallConfig();
  shared_config.cloud_parallelism = 2;
  Runtime shared(shared_config, classifier_);
  std::vector<std::unique_ptr<SieveSession>> sessions;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    auto session = shared.OpenSession("cam-" + std::to_string(i), configs[i]);
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  for (const auto& frame : scene_->video.frames) {
    for (auto& session : sessions) {
      ASSERT_TRUE(session->PushFrame(frame).ok());
    }
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SessionReport report = sessions[i]->Drain();
    EXPECT_EQ(report.placement, configs[i].placement);
    EXPECT_EQ(report.nn_split, configs[i].fixed_split);
    EXPECT_GT(report.labels_written, 0u);
    EXPECT_GT(report.edge_to_cloud_bytes, 0u);

    Runtime isolated(SmallConfig(), classifier_);
    auto alone = isolated.OpenSession("alone", configs[i]);
    ASSERT_TRUE(alone.ok());
    for (const auto& frame : scene_->video.frames) {
      ASSERT_TRUE((*alone)->PushFrame(frame).ok());
    }
    (void)(*alone)->Drain();
    EXPECT_EQ(sessions[i]->db().rows(), (*alone)->db().rows())
        << "split " << configs[i].fixed_split
        << ": a shared runtime changed this session's results";
  }
}

// A pre-encoded video replayed through a one-session Runtime with
// PushEncoded: the offline "stream this recording" use of the tiers.
class RuntimeReplayTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::SceneConfig c;
    c.width = 128;
    c.height = 96;
    c.num_frames = 150;
    c.seed = 71;
    c.mean_gap_seconds = 1.2;
    c.min_gap_seconds = 0.6;
    c.mean_dwell_seconds = 1.5;
    c.min_dwell_seconds = 0.8;
    scene_ = new synth::SyntheticVideo(synth::GenerateScene(c));

    nn::ClassifierParams cp;
    cp.input_size = 48;
    cp.embedding_dim = 32;
    classifier_ = new nn::FrameClassifier(cp);
    ASSERT_TRUE(classifier_->Fit(scene_->video.frames, scene_->truth, 5).ok());

    auto encoded =
        codec::VideoEncoder(codec::EncoderParams::Semantic(100000, 280))
            .Encode(scene_->video);
    ASSERT_TRUE(encoded.ok());
    encoded_ = new codec::EncodedVideo(std::move(*encoded));
  }
  static void TearDownTestSuite() {
    delete scene_;
    delete classifier_;
    delete encoded_;
  }

  struct Replay {
    SessionReport report;
    std::vector<dataflow::StageStats> stages;
    core::ResultsDatabase db;
  };

  /// Replay encoded_ through a fresh one-session Runtime built from
  /// `config`, at `placement`.
  static Replay Run(PlacementMode placement, RuntimeConfig config = {}) {
    config.default_placement = placement;
    config.nn_input_size = 48;
    Runtime runtime(config, classifier_);
    SessionConfig session_config;
    session_config.width = encoded_->header.width;
    session_config.height = encoded_->header.height;
    session_config.fps = encoded_->header.fps;
    session_config.encoder.qp = encoded_->header.qp;  // edge decode context
    auto session = runtime.OpenSession("camera", session_config);
    EXPECT_TRUE(session.ok());
    Replay replay;
    if (!session.ok()) return replay;
    const std::span<const std::uint8_t> bytes(encoded_->bytes);
    for (const codec::FrameRecord& record : encoded_->records) {
      const auto wire =
          bytes.subspan(record.payload_offset - codec::FrameRecord::kHeaderSize,
                        codec::FrameRecord::kHeaderSize + record.payload_size);
      EXPECT_TRUE(
          (*session)->PushEncoded(record.type, record.index, wire).ok());
    }
    replay.report = (*session)->Drain();
    auto stages = runtime.Shutdown();
    EXPECT_TRUE(stages.ok());
    if (stages.ok()) replay.stages = std::move(*stages);
    for (const auto& [frame, labels] : (*session)->db().rows()) {
      replay.db.Insert(frame, labels);
    }
    return replay;
  }

  static synth::SyntheticVideo* scene_;
  static nn::FrameClassifier* classifier_;
  static codec::EncodedVideo* encoded_;
};

synth::SyntheticVideo* RuntimeReplayTest::scene_ = nullptr;
nn::FrameClassifier* RuntimeReplayTest::classifier_ = nullptr;
codec::EncodedVideo* RuntimeReplayTest::encoded_ = nullptr;

TEST_F(RuntimeReplayTest, CloudRunProcessesOnlyIFrames) {
  const Replay replay = Run(PlacementMode::kCloud);
  EXPECT_EQ(replay.report.frames_pushed, encoded_->records.size());
  EXPECT_EQ(replay.report.iframes_selected, encoded_->IntraFrameCount());
  EXPECT_EQ(replay.report.labels_written, replay.report.iframes_selected);
  EXPECT_EQ(replay.db.size(), replay.report.iframes_selected);
}

TEST_F(RuntimeReplayTest, BytesAccountedOnBothHops) {
  const Replay replay = Run(PlacementMode::kCloud);
  // Camera->edge carries every frame (payload + header bytes).
  std::size_t expected_c2e = 0;
  for (const auto& r : encoded_->records) {
    expected_c2e += r.payload_size + codec::FrameRecord::kHeaderSize;
  }
  EXPECT_EQ(replay.report.camera_to_edge_bytes, expected_c2e);
  // Edge->cloud only carries resized stills of I-frames: far smaller.
  EXPECT_GT(replay.report.edge_to_cloud_bytes, 0u);
  EXPECT_LT(replay.report.edge_to_cloud_bytes,
            replay.report.camera_to_edge_bytes / 3);
}

TEST_F(RuntimeReplayTest, EdgeRunSendsNothingToCloud) {
  const Replay replay = Run(PlacementMode::kEdge);
  EXPECT_EQ(replay.report.edge_to_cloud_bytes, 0u);
  EXPECT_EQ(replay.report.labels_written, encoded_->IntraFrameCount());
}

// Figure 4's cloud-only placement: seeker, decode and NN all sit behind the
// WAN, which is the all-edge plan with the camera's hop set to the WAN model.
TEST_F(RuntimeReplayTest, CloudOnlyShipsTheWholeVideoOverTheWan) {
  RuntimeConfig wan_camera;
  wan_camera.camera_to_edge = net::LinkModel::Wan();
  wan_camera.link_time_scale = 0;
  const Replay cloud_only = Run(PlacementMode::kEdge, wan_camera);
  EXPECT_EQ(cloud_only.db.rows(), Run(PlacementMode::kCloud).db.rows());
  EXPECT_EQ(cloud_only.db.rows(), Run(PlacementMode::kEdge).db.rows());

  // Every frame record crosses the WAN: ComputeTransfer's cloud-only charge
  // (the whole container) minus the container header.
  std::uint64_t wire_bytes = 0;
  for (const auto& r : encoded_->records) {
    wire_bytes += r.payload_size + codec::FrameRecord::kHeaderSize;
  }
  EXPECT_EQ(wire_bytes + codec::ContainerHeader::kSerializedSize,
            encoded_->bytes.size());
  EXPECT_EQ(cloud_only.report.camera_to_edge_bytes, wire_bytes);
  EXPECT_EQ(cloud_only.report.edge_to_cloud_bytes, 0u);
  EXPECT_EQ(cloud_only.report.labels_written, encoded_->IntraFrameCount());
}

TEST_F(RuntimeReplayTest, PropagatedLabelsAreMostlyCorrect) {
  const Replay replay = Run(PlacementMode::kCloud);
  std::size_t correct = 0;
  for (std::size_t f = 0; f < scene_->truth.frame_count(); ++f) {
    if (replay.db.LabelAt(f) == scene_->truth.label(f)) ++correct;
  }
  const double accuracy = double(correct) / double(scene_->truth.frame_count());
  EXPECT_GT(accuracy, 0.7)
      << "end-to-end propagated per-frame accuracy through the real pipeline";
}

TEST_F(RuntimeReplayTest, StageStatsCoverPipeline) {
  const Replay replay = Run(PlacementMode::kCloud);
  // camera, seeker, transcode, edge-nn, wan, cloud-nn, cloud-sink
  ASSERT_EQ(replay.stages.size(), 7u);
  EXPECT_EQ(replay.stages[0].out, encoded_->records.size());
  EXPECT_EQ(replay.stages[1].in, encoded_->records.size());
  EXPECT_EQ(replay.stages[1].out, encoded_->IntraFrameCount());
}

}  // namespace
}  // namespace sieve::runtime
