// The cross-layer adaptation plane: a QoS-manager CPU cut, a network
// congestion signal or disk budget pressure each drive exactly ONE joint
// renegotiation that moves every layer to the proportional target; reclaim
// cuts hold the other layers; refusals leave the contract intact; and every
// paced media source (camera, audio capture, storage play-out) actually
// slows to the renegotiated rate.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/atm/wire.h"
#include "src/core/compute_node.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/devices/sync.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"
#include "src/nemesis/qos_manager.h"

namespace pegasus::core {
namespace {

using nemesis::QosParams;
using sim::Milliseconds;
using sim::Seconds;

class AdaptationFixture : public ::testing::Test {
 protected:
  AdaptationFixture() : system_(&sim_) {
    ws_ = system_.AddWorkstation("desk");
    kernel_ = std::make_unique<nemesis::Kernel>(
        &sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
    ws_->AttachKernel(kernel_.get());
    pfs::PfsConfig pfs_cfg;
    pfs_cfg.segment_size = 64 << 10;
    pfs_cfg.block_size = 8 << 10;
    pfs_cfg.geometry.capacity_bytes = 64 << 20;
    storage_ = system_.AddStorageServer(pfs_cfg);
  }

  int64_t TotalReservedBps() {
    int64_t total = 0;
    for (const auto& link : system_.network().links()) {
      total += system_.network().ReservedBps(link.get());
    }
    return total;
  }

  AdaptationPolicy Policy(AdaptationMode mode = AdaptationMode::kFrameRateScaling) {
    AdaptationPolicy policy;
    policy.mode = mode;
    policy.floor = 0.05;
    policy.hysteresis = 0.02;
    policy.smoothing = 1.0;
    return policy;
  }

  sim::Simulator sim_;
  PegasusSystem system_;
  Workstation* ws_ = nullptr;
  StorageNode* storage_ = nullptr;
  std::unique_ptr<nemesis::Kernel> kernel_;
};

// A QoS-manager contention cut triggers exactly one joint renegotiation in
// which network bandwidth and disk rate follow the CPU's steady-state share
// proportionally — despite the manager's EWMA emitting a grant change every
// epoch on the way down.
TEST_F(AdaptationFixture, CpuCutDrivesOneJointRenegotiationAcrossLayers) {
  nemesis::QosManagerDomain::Options opts;
  opts.epoch = Milliseconds(250);
  opts.target_utilization = 0.5;
  opts.reclaim_unused = false;
  opts.smoothing = 0.4;  // EWMA: many grant steps, one steady-state target
  nemesis::QosManagerDomain manager(&sim_, "mgr",
                                    QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)),
                                    opts);
  ASSERT_TRUE(kernel_.get()->AddDomain(&manager));

  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  StreamSpec spec = StreamSpec::Video(25, 8'000'000);
  spec.source_cpu = QosParams::Guaranteed(Milliseconds(40), Milliseconds(100));
  spec.disk_bps = 2'000'000;
  auto r = system_.BuildStream("rec")
               .From(ws_, camera)
               .ToStorage(storage_)
               .WithSpec(spec)
               .ManagedBy(&manager, 1.0)
               .WithAdaptation(Policy())
               .Open();
  ASSERT_TRUE(r.report.ok());
  EXPECT_EQ(camera->config().pace_bps, 8'000'000);
  EXPECT_EQ(storage_->server()->reserved_stream_bps(), 2'000'000);

  // An equal-weight competitor squeezes the stream to 0.25 of the CPU: the
  // steady-state share of its 0.4 request is 0.625 of nominal.
  nemesis::BatchDomain competitor("competitor",
                                  QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)));
  ASSERT_TRUE(kernel_.get()->AddDomain(&competitor));
  manager.Register(&competitor, 1.0,
                   QosParams::Guaranteed(Milliseconds(40), Milliseconds(100)));

  kernel_.get()->Start();
  sim_.RunUntil(Seconds(3));

  // Exactly ONE joint renegotiation, not one per EWMA epoch.
  EXPECT_EQ(r.session->contract().renegotiations, 1);
  EXPECT_EQ(r.session->adaptations_applied(), 1);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.625, 1e-9);
  // Network and disk moved to the proportional target together...
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 5'000'000);
  EXPECT_EQ(r.session->contract().granted.disk_bps, 1'250'000);
  EXPECT_EQ(storage_->server()->reserved_stream_bps(), 1'250'000);
  // ...and the camera paces at the renegotiated rate.
  EXPECT_EQ(camera->config().pace_bps, 5'000'000);
  // Frame-rate scaling shrinks the presentation rate too.
  EXPECT_NEAR(r.session->contract().granted.frame_rate, 25 * 0.625, 1e-6);

  // The applied event records the per-layer movement.
  const auto& log = r.session->adaptation_log();
  ASSERT_FALSE(log.empty());
  const AdaptationEvent& applied = log.front();
  EXPECT_TRUE(applied.applied);
  EXPECT_EQ(applied.trigger, AdaptationEvent::Trigger::kCpuGrant);
  EXPECT_EQ(applied.reason, nemesis::GrantReason::kContention);
  EXPECT_EQ(applied.net_bps_before, 8'000'000);
  EXPECT_EQ(applied.net_bps_after, 5'000'000);
  EXPECT_EQ(applied.disk_bps_before, 2'000'000);
  EXPECT_EQ(applied.disk_bps_after, 1'250'000);
  EXPECT_LT(applied.cpu_util_after, applied.cpu_util_before);
  // Subsequent EWMA steps were held by hysteresis, not renegotiated.
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_TRUE(log[i].held) << "event " << i;
  }
}

// A reclaim cut mirrors the stream's own idleness: the manager trims CPU
// toward observed usage, but network and disk can still deliver, so the
// adaptation plane holds the cross-layer contracts.
TEST_F(AdaptationFixture, ReclaimCutHoldsNetworkAndDisk) {
  nemesis::QosManagerDomain::Options opts;
  opts.epoch = Milliseconds(250);
  opts.target_utilization = 0.9;
  opts.reclaim_unused = true;
  opts.smoothing = 1.0;
  nemesis::QosManagerDomain manager(&sim_, "mgr",
                                    QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)),
                                    opts);
  ASSERT_TRUE(kernel_.get()->AddDomain(&manager));

  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  StreamSpec spec = StreamSpec::Video(25, 8'000'000);
  spec.source_cpu = QosParams::Guaranteed(Milliseconds(40), Milliseconds(100));
  spec.disk_bps = 2'000'000;
  auto r = system_.BuildStream("rec")
               .From(ws_, camera)
               .ToStorage(storage_)
               .WithSpec(spec)
               .ManagedBy(&manager, 1.0)
               .WithAdaptation(Policy())
               .Open();
  ASSERT_TRUE(r.report.ok());

  kernel_.get()->Start();
  sim_.RunUntil(Seconds(1));
  // The handler goes idle (the application stopped decoding); the manager
  // reclaims its unused CPU over the following epochs.
  r.session->source_handler()->Stop();
  sim_.RunUntil(Seconds(4));

  EXPECT_LT(r.session->contract().granted.source_cpu.Utilization(), 0.2);
  // No cross-layer renegotiation happened: the cuts were reclaim, not
  // contention, so network and disk kept their full contracts.
  EXPECT_EQ(r.session->contract().renegotiations, 0);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 8'000'000);
  EXPECT_EQ(storage_->server()->reserved_stream_bps(), 2'000'000);
  const auto& log = r.session->adaptation_log();
  ASSERT_FALSE(log.empty());
  int reclaim_events = 0;
  for (const AdaptationEvent& event : log) {
    // Every event held: the reclaim cuts by rule, the transient restores
    // toward full rate by hysteresis (they aim within 2% of nominal).
    EXPECT_TRUE(event.held);
    reclaim_events += event.reason == nemesis::GrantReason::kReclaim ? 1 : 0;
  }
  EXPECT_GT(reclaim_events, 0);
}

// A refused restoration leaves the degraded contract fully intact: nothing
// is re-bound, the counter-offer names what is still available.
TEST_F(AdaptationFixture, RefusedAdaptationLeavesContractIntact) {
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* cam1 = ws_->AddCamera(cfg);
  dev::AtmCamera* cam2 = ws_->AddCamera(cfg);
  Workstation* peer = system_.AddWorkstation("peer");
  dev::AtmDisplay* display = peer->AddDisplay(640, 480);

  auto r = system_.BuildStream("adaptive")
               .From(ws_, cam1)
               .To(peer, display)
               .WithSpec(StreamSpec::Video(25, 100'000'000))
               .WithAdaptation(Policy())
               .Open();
  ASSERT_TRUE(r.report.ok());

  ASSERT_TRUE(r.session->AdaptTo(0.5).ok());
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 50'000'000);

  // A competitor takes the freed bandwidth; restoring to nominal no longer
  // fits on the shared uplink.
  auto competitor = system_.BuildStream("greedy")
                        .From(ws_, cam2)
                        .To(peer, display)
                        .WithSpec(StreamSpec::Video(25, 100'000'000))
                        .Open();
  ASSERT_TRUE(competitor.report.ok());

  auto refused = r.session->AdaptTo(1.0);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.failure, AdmitFailure::kNetworkBandwidth);
  ASSERT_TRUE(refused.counter_offer.has_value());
  EXPECT_EQ(refused.counter_offer->bandwidth_bps, 55'000'000);
  // The degraded contract is untouched.
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 50'000'000);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.5, 1e-9);
  EXPECT_EQ(r.session->contract().renegotiations, 1);
  const AdaptationEvent& last = r.session->adaptation_log().back();
  EXPECT_FALSE(last.applied);
  EXPECT_FALSE(last.held);
  EXPECT_EQ(last.net_bps_after, last.net_bps_before);
}

// The audio source paces at the renegotiated rate: below its nominal cell
// cadence the ADC decimates, and the measured cell rate follows the grant.
TEST_F(AdaptationFixture, AudioSourcePacesAtRenegotiatedRate) {
  dev::AudioCapture* capture = ws_->AddAudioCapture();
  Workstation* peer = system_.AddWorkstation("peer");
  dev::AudioPlayback* playback = peer->AddAudioPlayback();

  // Nominal audio is ~467 kb/s on the wire (one 53-byte cell per 40
  // samples at 44.1 kHz); grant just above it.
  auto r = system_.BuildStream("voice")
               .From(ws_, capture)
               .To(peer, playback)
               .WithSpec(StreamSpec::Audio(480'000))
               .WithAdaptation(Policy(AdaptationMode::kQualityScaling))
               .Open();
  ASSERT_TRUE(r.report.ok());
  EXPECT_EQ(capture->pace_bps(), 480'000);

  capture->Start(r.session->source_vci());
  sim_.RunUntil(Seconds(1));
  const int64_t full_rate_cells = capture->cells_sent();
  // Unthrottled cadence: one cell per ~907 us.
  EXPECT_NEAR(static_cast<double>(full_rate_cells), 1102.0, 15.0);

  ASSERT_TRUE(r.session->AdaptTo(0.5).ok());
  EXPECT_EQ(capture->pace_bps(), 240'000);
  sim_.RunUntil(Seconds(2));
  const int64_t degraded_cells = capture->cells_sent() - full_rate_cells;
  // 240 kb/s carries ~566 cells/s; the decimated balance is counted.
  EXPECT_NEAR(static_cast<double>(degraded_cells), 566.0, 30.0);
  EXPECT_GT(capture->cells_decimated(), 0);
  EXPECT_GT(playback->cells_played(), 0);
}

// Storage play-out paces at min(granted network, granted disk) rate and
// re-paces when the session renegotiates.
TEST_F(AdaptationFixture, StoragePlayoutPacesAtGrantedRate) {
  // Craft a continuous file of 200 length-prefixed records, 1000 payload
  // bytes each, recorded 1 ms apart (~8.1 Mb/s on the wire at full cadence).
  pfs::PegasusFileServer* server = storage_->server();
  const pfs::FileId file = server->CreateFile(pfs::FileType::kContinuous);
  for (int i = 0; i < 200; ++i) {
    // Spaced in time like a real recording: each append sees the previous
    // one's buffered block.
    sim_.ScheduleAt(sim::Microseconds(50) * i, [this, server, file, i]() {
      atm::WireWriter w;
      w.PutU32(1000);
      w.PutI64(sim::Milliseconds(i));
      std::vector<uint8_t> record = w.Take();
      record.resize(record.size() + 1000, static_cast<uint8_t>(i));
      server->Write(file, static_cast<int64_t>(i) * 1012, std::move(record),
                    [](bool ok) { ASSERT_TRUE(ok); });
    });
  }
  sim_.RunUntil(Milliseconds(100));

  // Grant 4 Mb/s network and 500 kB/s disk (equal on the wire): each 1012-
  // byte record needs ~2.02 ms, halving the recorded cadence.
  StreamSpec spec;
  spec.media = MediaType::kVideo;
  spec.bandwidth_bps = 4'000'000;
  spec.disk_bps = 500'000;
  auto r = system_.BuildStream("playout")
               .FromStorage(storage_, file)
               .ToEndpoint(ws_, ws_->host())
               .WithSpec(spec)
               .WithAdaptation(Policy(AdaptationMode::kQualityScaling))
               .Open();
  ASSERT_TRUE(r.report.ok());
  EXPECT_EQ(storage_->PlayoutPaceBps(file), 4'000'000);

  const sim::TimeNs start = sim_.now();
  ASSERT_TRUE(storage_->StartPlayback(file, r.session->source_vci()));
  sim_.RunUntil(start + Milliseconds(250));
  const int64_t paced_records = storage_->records_played();
  // ~123 records in 250 ms at the paced rate (vs ~250 unpaced).
  EXPECT_GT(paced_records, 90);
  EXPECT_LT(paced_records, 160);

  // Degrade to half: the running play-out slows immediately.
  ASSERT_TRUE(r.session->AdaptTo(0.5).ok());
  EXPECT_EQ(storage_->PlayoutPaceBps(file), 2'000'000);
  sim_.RunUntil(start + Milliseconds(500));
  const int64_t degraded_records = storage_->records_played() - paced_records;
  EXPECT_LT(degraded_records, paced_records);
  EXPECT_GT(degraded_records, 30);

  // Close releases the pacing along with everything else.
  r.session->Close();
  EXPECT_EQ(storage_->PlayoutPaceBps(file), 0);
}

// Network congestion funnels into the same joint renegotiation: bandwidth,
// unmanaged CPU and the playback controller's effective rate all move, and
// the signal's clear restores them.
TEST_F(AdaptationFixture, CongestionSignalDrivesJointRenegotiation) {
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  Workstation* peer = system_.AddWorkstation("peer");
  nemesis::Kernel peer_kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  peer->AttachKernel(&peer_kernel);
  dev::AtmDisplay* display = peer->AddDisplay(640, 480);

  dev::PlaybackController controller(&sim_, dev::PlaybackController::Options{});
  const int video = controller.RegisterStream("video");

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(8), Milliseconds(40));
  StreamSession* session = nullptr;
  auto r = system_.BuildStream("feed")
               .From(ws_, camera)
               .To(peer, display)
               .WithSpec(spec)
               .WithAdaptation(Policy())
               .OnDegrade([&](const QosContract&) {
                 controller.SetEffectiveRate(video, session->adaptation_fraction());
               })
               .Open();
  ASSERT_TRUE(r.report.ok());
  session = r.session;
  EXPECT_NEAR(peer_kernel.scheduler()->AdmittedUtilization(), 0.2, 1e-9);

  // 40% of the first link's deliverable capacity goes away.
  const std::vector<atm::Link*>* links = system_.network().VcLinks(session->data_vc());
  ASSERT_NE(links, nullptr);
  EXPECT_EQ(system_.network().SignalCongestion(links->front(), 0.4), 1);

  EXPECT_EQ(session->contract().renegotiations, 1);
  EXPECT_EQ(session->contract().granted.bandwidth_bps, 6'000'000);
  EXPECT_EQ(camera->config().pace_bps, 6'000'000);
  // The unmanaged sink CPU scaled with the stream.
  EXPECT_NEAR(peer_kernel.scheduler()->AdmittedUtilization(), 0.12, 1e-9);
  // A/V sync sees the degradation coherently.
  EXPECT_NEAR(controller.EffectiveRate(video), 0.6, 1e-9);
  EXPECT_EQ(session->adaptation_log().back().trigger,
            AdaptationEvent::Trigger::kNetworkCongestion);

  // The congestion clears: everything restores to nominal.
  EXPECT_EQ(system_.network().SignalCongestion(links->front(), 0.0), 1);
  EXPECT_EQ(session->contract().granted.bandwidth_bps, 10'000'000);
  EXPECT_NEAR(peer_kernel.scheduler()->AdmittedUtilization(), 0.2, 1e-9);
  EXPECT_NEAR(controller.EffectiveRate(video), 1.0, 1e-9);
}

// Disk budget pressure shrinks the whole stream, and the pressure hook
// survives the release-and-re-reserve renegotiation cycle.
TEST_F(AdaptationFixture, DiskPressureShrinksJointlyAndRearms) {
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  StreamSpec spec = StreamSpec::Video(25, 8'000'000);
  spec.disk_bps = 2'000'000;
  auto r = system_.BuildStream("rec")
               .From(ws_, camera)
               .ToStorage(storage_)
               .WithSpec(spec)
               .WithAdaptation(Policy(AdaptationMode::kQualityScaling))
               .Open();
  ASSERT_TRUE(r.report.ok());

  EXPECT_EQ(storage_->server()->SignalBudgetPressure(0.5), 1);
  EXPECT_EQ(r.session->contract().granted.disk_bps, 1'000'000);
  EXPECT_EQ(storage_->server()->reserved_stream_bps(), 1'000'000);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 4'000'000);
  // Quality scaling holds the frame rate.
  EXPECT_NEAR(r.session->contract().granted.frame_rate, 25.0, 1e-9);
  EXPECT_EQ(r.session->adaptation_log().back().trigger,
            AdaptationEvent::Trigger::kDiskPressure);

  // The hook re-armed across the reserve cycle: the clear restores.
  EXPECT_EQ(storage_->server()->SignalBudgetPressure(1.0), 1);
  EXPECT_EQ(r.session->contract().granted.disk_bps, 2'000'000);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 8'000'000);

  // Close drops the subscription: later pressure reaches nobody.
  r.session->Close();
  EXPECT_EQ(storage_->server()->SignalBudgetPressure(0.5), 0);
}

// Independent degradation signals compose: the session always sits at the
// MINIMUM of every source's limit, so a milder signal from one layer never
// un-degrades a deeper cut from another.
TEST_F(AdaptationFixture, LimitsComposeAcrossTriggers) {
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  Workstation* peer = system_.AddWorkstation("peer");
  dev::AtmDisplay* display = peer->AddDisplay(640, 480);
  auto r = system_.BuildStream("feed")
               .From(ws_, camera)
               .To(peer, display)
               .WithSpec(StreamSpec::Video(25, 10'000'000))
               .WithAdaptation(Policy())
               .Open();
  ASSERT_TRUE(r.report.ok());
  const std::vector<atm::Link*>* links = system_.network().VcLinks(r.session->data_vc());
  ASSERT_NE(links, nullptr);

  // The application limits itself to 0.4; a mild congestion signal (limit
  // 0.8) must NOT un-degrade it.
  ASSERT_TRUE(r.session->AdaptTo(0.4).ok());
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 4'000'000);
  system_.network().SignalCongestion(links->front(), 0.2);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.4, 1e-9);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 4'000'000);
  EXPECT_EQ(r.session->contract().renegotiations, 1);

  // A deeper congestion cut takes over (min wins)...
  system_.network().SignalCongestion(links->front(), 0.7);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.3, 1e-9);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 3'000'000);

  // ...and lifting only the application limit changes nothing while the
  // network still holds the stream down.
  ASSERT_TRUE(r.session->AdaptTo(1.0).ok());
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.3, 1e-9);

  // Clearing the congestion releases the last limit: full restore.
  system_.network().SignalCongestion(links->front(), 0.0);
  EXPECT_NEAR(r.session->adaptation_fraction(), 1.0, 1e-9);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 10'000'000);

  // Congestion limits are tracked per link: a milder signal (or a clear)
  // on a second link does not lift a deeper cut still in force on the
  // first.
  ASSERT_GE(links->size(), 2u);
  system_.network().SignalCongestion(links->front(), 0.5);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.5, 1e-9);
  system_.network().SignalCongestion(links->back(), 0.2);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.5, 1e-9);
  system_.network().SignalCongestion(links->back(), 0.0);
  EXPECT_NEAR(r.session->adaptation_fraction(), 0.5, 1e-9);
  system_.network().SignalCongestion(links->front(), 0.0);
  EXPECT_NEAR(r.session->adaptation_fraction(), 1.0, 1e-9);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 10'000'000);
}

// Manual adaptation of a pipeline scales every leg's bandwidth and every
// unmanaged compute-stage contract in the one renegotiation.
TEST_F(AdaptationFixture, PipelineAdaptationScalesStagesAndLegs) {
  ComputeNode* compute = system_.AddComputeServer();
  nemesis::Kernel compute_kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  compute->AttachKernel(&compute_kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  dev::AtmDisplay* display = ws_->AddDisplay(640, 480);

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.legs.resize(2);
  spec.legs[0].compute_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  dev::TileProcessor::Config stage;
  stage.transform = dev::InvertTransform();
  auto r = system_.BuildStream("fx")
               .From(ws_, camera)
               .Via(compute, stage)
               .To(ws_, display)
               .WithSpec(spec)
               .WithAdaptation(Policy())
               .Open();
  ASSERT_TRUE(r.report.ok());
  EXPECT_NEAR(compute_kernel.scheduler()->AdmittedUtilization(), 0.1, 1e-9);

  ASSERT_TRUE(r.session->AdaptTo(0.5).ok());
  EXPECT_EQ(r.session->legs()[0].granted_bps, 5'000'000);
  EXPECT_EQ(r.session->legs()[1].granted_bps, 5'000'000);
  EXPECT_NEAR(compute_kernel.scheduler()->AdmittedUtilization(), 0.05, 1e-9);
  EXPECT_NEAR(r.session->contract().granted.legs[0].compute_cpu.Utilization(), 0.05, 1e-9);

  ASSERT_TRUE(r.session->AdaptTo(1.0).ok());
  EXPECT_EQ(r.session->legs()[0].granted_bps, 10'000'000);
  EXPECT_NEAR(compute_kernel.scheduler()->AdmittedUtilization(), 0.1, 1e-9);
}

// A one-leg session opened with an explicit leg rate records the rate it
// reserved, so adaptation scales that rate rather than the stream-wide
// default: half of the 4 Mb/s leg is 2 Mb/s, not half of 10 Mb/s.
TEST_F(AdaptationFixture, ExplicitLegRateIsTheGrantedRateAdaptationScales) {
  Workstation* far = system_.AddWorkstation("far");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws_->AddCamera(cfg);
  dev::AtmDisplay* display = far->AddDisplay(640, 480);

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.legs.resize(1);
  spec.legs[0].bandwidth_bps = 4'000'000;
  auto r = system_.BuildStream("leg")
               .From(ws_, camera)
               .To(far, display)
               .WithSpec(spec)
               .WithAdaptation(Policy())
               .Open();
  ASSERT_TRUE(r.report.ok());
  EXPECT_EQ(r.session->legs()[0].granted_bps, 4'000'000);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 4'000'000);
  const int64_t reserved = TotalReservedBps();

  ASSERT_TRUE(r.session->AdaptTo(0.5).ok());
  EXPECT_EQ(r.session->legs()[0].granted_bps, 2'000'000);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 2'000'000);
  EXPECT_EQ(TotalReservedBps(), reserved / 2);
  EXPECT_EQ(camera->config().pace_bps, 2'000'000);
}

// The admission pass reuses its per-call vectors from call to call. A
// degrade callback runs inside a congestion-driven adaptation, and may open
// and renegotiate other streams there. Runs that scenario — a pipeline
// adapts, and its callback opens a second stream and renegotiates a third
// (a two-sink tree) — or, with `in_callback` false, makes the same two calls
// after the signal, and appends every verdict, VC, VCI, grant, link
// reservation and kernel load they leave to `facts`.
void AdmitAroundAnAdaptation(bool in_callback, std::vector<int64_t>* facts) {
  sim::Simulator sim;
  PegasusSystem system(&sim);
  std::vector<std::unique_ptr<nemesis::Kernel>> kernels;
  auto add_kernel = [&]() {
    kernels.push_back(std::make_unique<nemesis::Kernel>(
        &sim, std::make_unique<nemesis::AtroposScheduler>(1.0)));
    return kernels.back().get();
  };
  Workstation* a = system.AddWorkstation("a");
  Workstation* b = system.AddWorkstation("b");
  Workstation* c = system.AddWorkstation("c");
  for (Workstation* ws : {a, b, c}) {
    ws->AttachKernel(add_kernel());
  }
  ComputeNode* compute = system.AddComputeServer();
  compute->AttachKernel(add_kernel());
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera_a = a->AddCamera(cfg);
  dev::AtmCamera* camera_b = b->AddCamera(cfg);
  dev::AtmCamera* camera_c = c->AddCamera(cfg);
  dev::AtmDisplay* display_a = a->AddDisplay(640, 480);
  dev::AtmDisplay* display_b = b->AddDisplay(640, 480);
  dev::AtmDisplay* display_c = c->AddDisplay(640, 480);

  StreamSpec tree_spec = StreamSpec::Video(25, 6'000'000);
  tree_spec.sink_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  MulticastSink to_a;
  to_a.ws = a;
  to_a.display = display_a;
  MulticastSink to_b;
  to_b.ws = b;
  to_b.display = display_b;
  StreamResult third =
      system.BuildStream("third").From(c, camera_c).ToMany({to_a, to_b}).WithSpec(tree_spec).Open();
  ASSERT_TRUE(third.report.ok());

  StreamSpec second_spec = StreamSpec::Video(25, 5'000'000);
  second_spec.source_cpu = QosParams::Guaranteed(Milliseconds(8), Milliseconds(40));
  StreamSpec third_spec = third.session->contract().granted;
  third_spec.bandwidth_bps = 3'000'000;
  third_spec.sink_cpu = QosParams::Guaranteed(Milliseconds(2), Milliseconds(40));
  StreamResult second;
  AdmissionReport renegotiated;
  auto admit_others = [&]() {
    second = system.BuildStream("second").From(b, camera_b).To(c, display_c).WithSpec(second_spec).Open();
    renegotiated = third.session->Renegotiate(third_spec);
  };

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.legs.resize(2);
  spec.legs[0].compute_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(8), Milliseconds(40));
  int degrades = 0;
  StreamResult first = system.BuildStream("first")
                           .From(a, camera_a)
                           .Via(compute, dev::TileProcessor::Config{})
                           .To(b, display_b)
                           .WithSpec(spec)
                           .WithAdaptation(AdaptationPolicy{})
                           .OnDegrade([&](const QosContract&) {
                             if (in_callback && degrades == 0) {
                               admit_others();
                             }
                             ++degrades;
                           })
                           .Open();
  ASSERT_TRUE(first.report.ok());
  const std::vector<atm::Link*>* links = system.network().VcLinks(first.session->data_vc());
  ASSERT_NE(links, nullptr);
  EXPECT_EQ(system.network().SignalCongestion(links->front(), 0.4), 1);
  if (!in_callback) {
    admit_others();
  }
  EXPECT_EQ(degrades, 1);
  EXPECT_EQ(first.session->adaptations_applied(), 1);
  ASSERT_TRUE(second.report.ok());
  ASSERT_TRUE(renegotiated.ok());

  for (const StreamSession* s : {first.session, second.session, third.session}) {
    for (const StreamSession::Leg& leg : s->legs()) {
      facts->insert(facts->end(),
                    {leg.vc, leg.source_vci, leg.sink_vci, leg.granted_bps, leg.hop_count});
    }
    const StreamSpec& granted = s->contract().granted;
    facts->insert(facts->end(), {granted.bandwidth_bps, granted.source_cpu.slice,
                                 granted.sink_cpu.slice, s->control_send_vci()});
    for (const LegSpec& leg : granted.legs) {
      facts->insert(facts->end(), {leg.bandwidth_bps, leg.compute_cpu.slice});
    }
  }
  for (const atm::Endpoint* ep :
       {a->device_endpoint(display_a), b->device_endpoint(display_b)}) {
    facts->push_back(third.session->SinkVci(ep).value_or(atm::kVciUnassigned));
  }
  for (const auto& link : system.network().links()) {
    facts->push_back(system.network().ReservedBps(link.get()));
  }
  for (const auto& kernel : kernels) {
    facts->push_back(std::llround(kernel->scheduler()->AdmittedUtilization() * 1e9));
  }
}

TEST(NestedAdmission, CallsFromADegradeCallbackMatchTheSameCallsInTurn) {
  std::vector<int64_t> in_turn;
  ASSERT_NO_FATAL_FAILURE(AdmitAroundAnAdaptation(false, &in_turn));
  std::vector<int64_t> nested;
  ASSERT_NO_FATAL_FAILURE(AdmitAroundAnAdaptation(true, &nested));
  EXPECT_EQ(nested, in_turn);
}

}  // namespace
}  // namespace pegasus::core
