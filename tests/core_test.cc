// Integration tests: full-system assembly, DAN vs bus media paths, recording
// to and playback from the storage node, naming across nodes (§2.3, Fig 4).
#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/devices/sync.h"
#include "src/naming/name_space.h"

namespace pegasus::core {
namespace {

using sim::Milliseconds;
using sim::Seconds;

class SystemFixture : public ::testing::Test {
 protected:
  SystemFixture() : system_(&sim_) {}

  sim::Simulator sim_;
  PegasusSystem system_;
};

TEST_F(SystemFixture, VideoPhoneAcrossWorkstations) {
  Workstation* alice = system_.AddWorkstation("alice");
  Workstation* bob = system_.AddWorkstation("bob");
  dev::AtmCamera::Config cam_cfg;
  cam_cfg.width = 64;
  cam_cfg.height = 48;
  cam_cfg.compression = dev::CompressionMode::kMotionJpeg;
  dev::AtmCamera* camera = alice->AddCamera(cam_cfg);
  dev::AtmDisplay* display = bob->AddDisplay(320, 240);

  auto session = system_.BuildStream("phone/video")
                     .From(alice, camera)
                     .To(bob, display)
                     .WithSpec(StreamSpec::Video(25, 0))
                     .WithWindow(20, 20)
                     .Open();
  ASSERT_TRUE(session.report.ok());
  camera->Start(session.session->source_vci());
  sim_.RunUntil(Seconds(1));

  EXPECT_GT(display->tiles_blitted(), 500);
  EXPECT_NE(display->PixelAt(25, 25), 0);
  EXPECT_EQ(display->decode_errors(), 0u);
  // The media path crossed two local switches and the backbone, but neither
  // host endpoint saw a single media cell.
  EXPECT_EQ(alice->host()->cells_received(), 0u);
  EXPECT_EQ(bob->host()->cells_received(), 0u);
}

TEST_F(SystemFixture, DanPathBeatsBusPathOnCpuAndLatency) {
  // E03 in miniature. DAN: camera -> display direct. Bus: camera -> host
  // NIC -> (CPU relay) -> display.
  Workstation* ws = system_.AddWorkstation("ws");
  dev::AtmCamera::Config cam_cfg;
  cam_cfg.width = 64;
  cam_cfg.height = 48;
  dev::AtmCamera* camera = ws->AddCamera(cam_cfg);
  dev::AtmDisplay* display = ws->AddDisplay(320, 240);

  auto dan = system_.BuildStream("dan")
                 .From(ws, camera)
                 .To(ws, display)
                 .WithWindow(0, 0)
                 .Open();
  ASSERT_TRUE(dan.report.ok());
  camera->Start(dan.session->source_vci());
  sim_.RunUntil(Seconds(1));
  camera->Stop();
  const double dan_latency = display->tile_latency().mean();
  ASSERT_GT(display->tile_latency().count(), 0);

  // Now the bus path on a second workstation.
  Workstation* ws2 = system_.AddWorkstation("ws2");
  dev::AtmCamera* camera2 = ws2->AddCamera(cam_cfg);
  dev::AtmDisplay* display2 = ws2->AddDisplay(320, 240);
  HostRelay* relay = ws2->EnableHostRelay(sim::Microseconds(8));
  atm::Endpoint* bus_nic = ws2->device_endpoint(relay);
  auto leg1 = system_.network().OpenVc(ws2->device_endpoint(camera2), bus_nic);
  auto leg2 = system_.network().OpenVc(bus_nic, ws2->device_endpoint(display2));
  ASSERT_TRUE(leg1.has_value());
  ASSERT_TRUE(leg2.has_value());
  relay->AddRoute(leg1->destination_vci, leg2->source_vci);
  dev::WindowManager wm(display2);
  wm.CreateWindow(leg2->destination_vci, 0, 0, 64, 48);
  camera2->Start(leg1->source_vci);
  sim_.RunUntil(sim_.now() + Seconds(1));
  camera2->Stop();

  ASSERT_GT(display2->tile_latency().count(), 0);
  const double bus_latency = display2->tile_latency().mean();
  EXPECT_GT(relay->cells_relayed(), 1000);
  EXPECT_GT(relay->cpu_time_spent(), Milliseconds(10));
  EXPECT_GT(bus_latency, dan_latency);
}

TEST_F(SystemFixture, RecordThenPlayback) {
  Workstation* ws = system_.AddWorkstation("ws");
  dev::AtmCamera::Config cam_cfg;
  cam_cfg.width = 32;
  cam_cfg.height = 32;
  cam_cfg.fps = 25;
  dev::AtmCamera* camera = ws->AddCamera(cam_cfg);
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  auto rec = system_.BuildStream("rec")
                 .FromEndpoint(ws, ws->device_endpoint(camera))
                 .ToStorage(storage, /*stream_id=*/1)
                 .Open();
  ASSERT_TRUE(rec.report.ok());
  StreamSession* session = rec.session;
  pfs::FileId file = session->file();
  ASSERT_GE(file, 0);

  // The camera's manager announces sync marks on the control stream once per
  // frame, which the storage node turns into index entries.
  atm::MessageTransport* host_t = ws->host_transport();
  for (int i = 0; i < 25; ++i) {
    sim_.ScheduleAt(i * Milliseconds(40), [host_t, session, i]() {
      dev::ControlMessage mark;
      mark.type = dev::ControlType::kSyncMark;
      mark.stream_id = 1;
      mark.media_ts = i * Milliseconds(40);
      host_t->Send(session->control_send_vci(), mark.Serialize());
    });
  }
  camera->Start(session->source_vci());
  sim_.RunUntil(Seconds(1));
  camera->Stop();
  bool synced = false;
  storage->StopRecording(session->sink_vci(), [&]() { synced = true; });
  sim_.RunUntilPredicate([&]() { return synced; });

  EXPECT_GT(storage->records_recorded(), 50);
  EXPECT_GT(storage->server()->FileSize(file), 10'000);
  // The control stream produced a usable index.
  EXPECT_TRUE(storage->server()->LookupIndex(file, Milliseconds(400)).has_value());

  // Play the recording back to a display.
  dev::AtmDisplay* display = ws->AddDisplay(320, 240);
  auto play = system_.BuildStream("play")
                  .FromStorage(storage, file)
                  .To(ws, display)
                  .WithWindow(0, 0, 32, 32)
                  .Open();
  ASSERT_TRUE(play.report.ok());
  ASSERT_TRUE(storage->StartPlayback(file, play.session->source_vci()));
  sim_.RunUntil(sim_.now() + Seconds(3));
  EXPECT_GT(storage->records_played(), 50);
  EXPECT_GT(display->tiles_blitted(), 100);
  EXPECT_NE(display->PixelAt(5, 5), 0);
}

TEST_F(SystemFixture, PlaybackFromIndexSkipsAhead) {
  Workstation* ws = system_.AddWorkstation("ws");
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  // Hand-record a message stream with index marks via the network.
  auto data_vc = system_.network().OpenVc(ws->host(), storage->endpoint());
  auto ctl_vc = system_.network().OpenVc(ws->host(), storage->endpoint());
  ASSERT_TRUE(data_vc.has_value());
  ASSERT_TRUE(ctl_vc.has_value());
  pfs::FileId file =
      storage->StartRecording(data_vc->destination_vci, ctl_vc->destination_vci, 9);

  atm::MessageTransport* t = ws->host_transport();
  for (int i = 0; i < 10; ++i) {
    sim_.ScheduleAt(i * Milliseconds(100), [t, &data_vc, &ctl_vc, i]() {
      dev::ControlMessage mark;
      mark.type = dev::ControlType::kSyncMark;
      mark.media_ts = i * Milliseconds(100);
      t->Send(ctl_vc->source_vci, mark.Serialize());
      t->Send(data_vc->source_vci, std::vector<uint8_t>(100, static_cast<uint8_t>(i)));
    });
  }
  sim_.RunUntil(Seconds(2));
  bool synced = false;
  storage->StopRecording(data_vc->destination_vci, [&]() { synced = true; });
  sim_.RunUntilPredicate([&]() { return synced; });

  // Play from media time 500 ms: first record received must be payload 5+.
  auto out_vc = system_.network().OpenVc(storage->endpoint(), ws->host());
  ASSERT_TRUE(out_vc.has_value());
  std::vector<uint8_t> first;
  t->SetHandler(out_vc->destination_vci,
                [&](atm::Vci, std::vector<uint8_t> msg, sim::TimeNs) {
                  if (first.empty()) {
                    first = std::move(msg);
                  }
                });
  ASSERT_TRUE(storage->StartPlayback(file, out_vc->source_vci, 1.0, Milliseconds(500)));
  sim_.RunUntil(sim_.now() + Seconds(2));
  ASSERT_FALSE(first.empty());
  EXPECT_GE(first[0], 5);
}

// A title whose segment write is still in flight plays from memory: Sync
// starts the flush and the play-out begins in the same instant.
TEST_F(SystemFixture, PlaybackDuringAFlushPlaysEveryRecord) {
  Workstation* ws = system_.AddWorkstation("ws");
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);
  const pfs::FileId file = storage->SeedContinuousFile(8, 3000, Milliseconds(40));
  sim_.RunUntil(sim_.now() + Milliseconds(1));  // the seeding write commits
  ASSERT_GT(storage->server()->FileSize(file), 0);

  auto out_vc = system_.network().OpenVc(storage->endpoint(), ws->host());
  ASSERT_TRUE(out_vc.has_value());
  std::vector<std::vector<uint8_t>> received;
  ws->host_transport()->SetHandler(
      out_vc->destination_vci,
      [&](atm::Vci, std::vector<uint8_t> msg, sim::TimeNs) { received.push_back(std::move(msg)); });
  bool synced = false;
  storage->server()->Sync([&]() { synced = true; });
  ASSERT_TRUE(storage->StartPlayback(file, out_vc->source_vci));
  sim_.RunUntil(sim_.now() + Seconds(1));
  EXPECT_TRUE(synced);
  EXPECT_EQ(storage->records_played(), 8);
  ASSERT_EQ(received.size(), 8u);
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], std::vector<uint8_t>(3000, static_cast<uint8_t>(i))) << "record " << i;
  }
}

TEST_F(SystemFixture, UnixNodeServesRpcAndRemoteNames) {
  Workstation* ws = system_.AddWorkstation("ws");
  UnixNode* unix = system_.AddUnixNode("unix");

  naming::CounterObject counter;
  unix->Export("app/counter", &counter);

  // Client on the workstation host: duplex VC pair to the Unix node.
  auto pair = system_.network().OpenDuplex(ws->host(), unix->endpoint());
  ASSERT_TRUE(pair.has_value());
  unix->ServeRpc(pair->first.destination_vci, pair->second.source_vci);
  naming::RpcClient client(&sim_, ws->host_transport(), pair->first.source_vci,
                           pair->second.destination_vci);

  // Mount the Unix node's name space at /global/unix, per the paper's
  // convention for shared names.
  naming::NameSpace local("ws-process");
  local.Mount("global/unix", std::make_shared<naming::RemoteNameSpaceConnection>(&client));

  std::optional<naming::ObjectHandle> handle;
  local.Resolve("global/unix/app/counter",
                [&](std::optional<naming::ObjectHandle> h) { handle = std::move(h); });
  sim_.Run();
  ASSERT_TRUE(handle.has_value());

  // Invoke through the handle: remote procedure call over the ATM network.
  std::vector<uint8_t> delta(8, 0);
  delta[0] = 5;
  naming::InvokeStatus status = naming::InvokeStatus::kTransportError;
  handle->Invoke("add", delta, [&](naming::InvokeStatus s, std::vector<uint8_t>) {
    status = s;
  });
  sim_.Run();
  EXPECT_EQ(status, naming::InvokeStatus::kOk);
  EXPECT_EQ(counter.value(), 5);
  EXPECT_EQ(handle->kind(), "remote-procedure-call");
}

TEST_F(SystemFixture, LiveAvSessionStaysInLipSync) {
  // End-to-end E13: camera and microphone stream across the backbone to a
  // display and speaker; the playback controller aligns their play-out using
  // the devices' own timestamps.
  Workstation* src = system_.AddWorkstation("src");
  Workstation* dst = system_.AddWorkstation("dst");
  dev::AtmCamera::Config cam_cfg;
  cam_cfg.width = 64;
  cam_cfg.height = 48;
  dev::AtmCamera* camera = src->AddCamera(cam_cfg);
  dev::AudioCapture* mic = src->AddAudioCapture();
  dev::AtmDisplay* display = dst->AddDisplay(320, 240);
  dev::AudioPlayback* speaker = dst->AddAudioPlayback();

  auto v = system_.BuildStream("av/video")
               .From(src, camera)
               .To(dst, display)
               .WithWindow(0, 0)
               .Open();
  auto a = system_.BuildStream("av/audio")
               .From(src, mic)
               .To(dst, speaker)
               .WithSpec(StreamSpec::Audio(0))
               .Open();
  ASSERT_TRUE(v.report.ok());
  ASSERT_TRUE(a.report.ok());

  dev::PlaybackController::Options opts;
  opts.margin = Milliseconds(30);
  dev::PlaybackController sync(&sim_, opts);
  const int vs = sync.RegisterStream("video");
  const int as = sync.RegisterStream("audio");
  display->set_packet_callback(
      [&sync, vs, last = std::make_shared<uint32_t>(UINT32_MAX)](atm::Vci, uint32_t frame_no,
                                                                 sim::TimeNs ts) {
        if (*last != frame_no) {
          *last = frame_no;
          sync.OnArrival(vs, ts);
        }
      });
  speaker->set_playout_callback(
      [&sync, as](sim::TimeNs capture_ts, sim::TimeNs) { sync.OnArrival(as, capture_ts); });

  camera->Start(v.session->source_vci());
  mic->Start(a.session->source_vci());
  sim_.RunUntil(Seconds(5));

  ASSERT_GT(sync.skew().count(), 100);
  // Audio sits behind a 10 ms jitter buffer; the controller still keeps the
  // playout skew far below a frame time.
  EXPECT_LT(sync.skew().Quantile(0.9), 15e6);
  EXPECT_EQ(speaker->underruns(), 0);
}

TEST_F(SystemFixture, QosSessionRejectedWhenLinksFull) {
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* cam1 = a->AddCamera(cfg);
  dev::AtmCamera* cam2 = a->AddCamera(cfg);
  dev::AtmDisplay* disp = b->AddDisplay(640, 480);

  const StreamSpec heavy = StreamSpec::Video(25, 100'000'000);
  auto s1 = system_.BuildStream("s1")
                .From(a, cam1)
                .To(b, disp)
                .WithSpec(heavy)
                .WithWindow(0, 0)
                .Open();
  EXPECT_TRUE(s1.report.ok());
  // The second 100 Mb/s reservation exceeds the 155 Mb/s backbone uplink;
  // admission answers with a counter-offer for the remaining capacity.
  auto s2 = system_.BuildStream("s2")
                .From(a, cam2)
                .To(b, disp)
                .WithSpec(heavy)
                .WithWindow(0, 200)
                .Open();
  EXPECT_FALSE(s2.report.ok());
  EXPECT_EQ(s2.report.failure, AdmitFailure::kNetworkBandwidth);
  ASSERT_EQ(s2.report.verdict, AdmitVerdict::kCounterOffer);
  ASSERT_TRUE(s2.report.counter_offer.has_value());
  EXPECT_EQ(s2.report.counter_offer->bandwidth_bps, 55'000'000);
}

}  // namespace
}  // namespace pegasus::core
