// The cross-layer stream API: admission across network, CPU and disk,
// counter-offers, teardown releasing every layer, and renegotiation.
#include <gtest/gtest.h>

#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"
#include "src/nemesis/qos_manager.h"

namespace pegasus::core {
namespace {

using nemesis::QosParams;
using sim::Milliseconds;
using sim::Seconds;

// An Atropos scheduler that refuses admissions and QoS updates on demand
// while Capacity() still reports headroom: a layer refusing after the joint
// pre-check has passed.
class RefusingScheduler : public nemesis::AtroposScheduler {
 public:
  bool Admit(nemesis::Domain* domain) override {
    return !refuse && AtroposScheduler::Admit(domain);
  }
  bool UpdateQos(nemesis::Domain* domain, const QosParams& qos) override {
    return !refuse && AtroposScheduler::UpdateQos(domain, qos);
  }

  bool refuse = false;
};

class StreamFixture : public ::testing::Test {
 protected:
  StreamFixture() : system_(&sim_) {}

  // Total bandwidth currently reserved anywhere in the network.
  int64_t TotalReservedBps() {
    int64_t total = 0;
    for (const auto& link : system_.network().links()) {
      total += system_.network().ReservedBps(link.get());
    }
    return total;
  }

  sim::Simulator sim_;
  PegasusSystem system_;
};

TEST_F(StreamFixture, AdmitAcceptBindsEveryLayer) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* dst = system_.AddWorkstation("dst");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  dst->AttachKernel(&kernel);

  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  dev::AtmDisplay* display = dst->AddDisplay(640, 480);

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(5), Milliseconds(40));

  auto r = system_.BuildStream("accept")
               .From(src, camera)
               .To(dst, display)
               .WithSpec(spec)
               .WithWindow(10, 10)
               .Open();
  ASSERT_TRUE(r.report.ok());
  ASSERT_NE(r.session, nullptr);
  EXPECT_TRUE(r.session->active());
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 10'000'000);
  EXPECT_GT(r.session->contract().hop_count, 0);

  // Network layer: the reservation shows on the traversed links.
  EXPECT_GT(TotalReservedBps(), 0);
  // Every hop carries the full peak rate: camera uplink, two inter-switch
  // hops (src->backbone, backbone->dst), display downlink.
  EXPECT_GE(TotalReservedBps(), 4 * 10'000'000);
  // CPU layer: the sink host's scheduler now carries the handler contract.
  EXPECT_NEAR(kernel.scheduler()->AdmittedUtilization(), 0.125, 1e-9);
  ASSERT_NE(r.session->sink_handler(), nullptr);
  EXPECT_EQ(r.session->source_handler(), nullptr);
  // Device layer: the camera is paced to the granted bandwidth.
  EXPECT_EQ(camera->config().pace_bps, 10'000'000);
}

TEST_F(StreamFixture, AdmitRejectsOversubscribedLink) {
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* cam1 = a->AddCamera(cfg);
  dev::AtmCamera* cam2 = a->AddCamera(cfg);
  dev::AtmDisplay* disp = b->AddDisplay(640, 480);

  // Two 100 Mb/s reservations cannot share one 155 Mb/s backbone uplink.
  const StreamSpec heavy = StreamSpec::Video(25, 100'000'000);
  auto s1 = system_.BuildStream("s1").From(a, cam1).To(b, disp).WithSpec(heavy).Open();
  ASSERT_TRUE(s1.report.ok());

  auto s2 = system_.BuildStream("s2").From(a, cam2).To(b, disp).WithSpec(heavy).Open();
  EXPECT_FALSE(s2.report.ok());
  EXPECT_EQ(s2.report.failure, AdmitFailure::kNetworkBandwidth);
  EXPECT_EQ(s2.session, nullptr);
  // The counter-offer is the remaining capacity of the tightest hop.
  ASSERT_EQ(s2.report.verdict, AdmitVerdict::kCounterOffer);
  ASSERT_TRUE(s2.report.counter_offer.has_value());
  EXPECT_EQ(s2.report.counter_offer->bandwidth_bps, 55'000'000);

  // Accepting the counter-offer succeeds.
  auto s3 = system_.BuildStream("s3")
                .From(a, cam2)
                .To(b, disp)
                .WithSpec(*s2.report.counter_offer)
                .Open();
  EXPECT_TRUE(s3.report.ok());
}

TEST_F(StreamFixture, AdmitRejectsCpuOverCommitment) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* dst = system_.AddWorkstation("dst");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  dst->AttachKernel(&kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* cam1 = src->AddCamera(cfg);
  dev::AtmCamera* cam2 = src->AddCamera(cfg);
  dev::AtmDisplay* disp = dst->AddDisplay(640, 480);

  StreamSpec first = StreamSpec::Video(25, 0);
  first.sink_cpu = QosParams::Guaranteed(Milliseconds(600), Milliseconds(1000));
  auto s1 = system_.BuildStream("s1").From(src, cam1).To(dst, disp).WithSpec(first).Open();
  ASSERT_TRUE(s1.report.ok());

  // Another 60% demand exceeds the remaining 40% Atropos headroom.
  auto s2 = system_.BuildStream("s2").From(src, cam2).To(dst, disp).WithSpec(first).Open();
  EXPECT_FALSE(s2.report.ok());
  EXPECT_EQ(s2.report.failure, AdmitFailure::kSinkCpu);
  ASSERT_EQ(s2.report.verdict, AdmitVerdict::kCounterOffer);
  ASSERT_TRUE(s2.report.counter_offer.has_value());
  const sim::DurationNs offered = s2.report.counter_offer->sink_cpu.slice;
  EXPECT_GT(offered, Milliseconds(300));
  EXPECT_LE(offered, Milliseconds(400));

  // A CPU demand on a host with no kernel attached is an outright reject.
  StreamSpec no_kernel = StreamSpec::Video(25, 0);
  no_kernel.source_cpu = QosParams::Guaranteed(Milliseconds(1), Milliseconds(100));
  auto s3 = system_.BuildStream("s3").From(src, cam2).To(dst, disp).WithSpec(no_kernel).Open();
  EXPECT_FALSE(s3.report.ok());
  EXPECT_EQ(s3.report.failure, AdmitFailure::kSourceCpu);
  EXPECT_EQ(s3.report.verdict, AdmitVerdict::kRejected);
}

TEST_F(StreamFixture, TeardownReleasesAllThreeLayers) {
  Workstation* ws = system_.AddWorkstation("ws");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  ws->AttachKernel(&kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws->AddCamera(cfg);
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  const int64_t base_vcs = system_.network().open_vc_count();
  StreamSpec spec = StreamSpec::Video(25, 20'000'000);
  spec.source_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  spec.disk_bps = 2'000'000;
  auto r = system_.BuildStream("rec")
               .FromEndpoint(ws, ws->device_endpoint(camera))
               .ToStorage(storage, /*stream_id=*/1)
               .WithSpec(spec)
               .Open();
  ASSERT_TRUE(r.report.ok());

  // All three layers hold reservations while the session is live.
  EXPECT_GT(TotalReservedBps(), 0);
  EXPECT_GT(kernel.scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 2'000'000);
  EXPECT_GT(system_.network().open_vc_count(), base_vcs);

  r.session->Close();
  EXPECT_FALSE(r.session->active());

  // ...and all three are fully released on teardown.
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(kernel.scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);

  // Close is idempotent.
  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
}

TEST_F(StreamFixture, RenegotiationRoundTrip) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* dst = system_.AddWorkstation("dst");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  dst->AttachKernel(&kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  dev::AtmDisplay* display = dst->AddDisplay(640, 480);

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  auto r = system_.BuildStream("stream")
               .From(src, camera)
               .To(dst, display)
               .WithSpec(spec)
               .Open();
  ASSERT_TRUE(r.report.ok());
  const int64_t reserved_before = TotalReservedBps();

  // Scale up within capacity: both layers re-admit in place.
  StreamSpec more = r.session->contract().granted;
  more.bandwidth_bps = 40'000'000;
  more.sink_cpu = QosParams::Guaranteed(Milliseconds(8), Milliseconds(40));
  auto up = r.session->Renegotiate(more);
  EXPECT_TRUE(up.ok());
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 40'000'000);
  EXPECT_EQ(r.session->contract().renegotiations, 1);
  EXPECT_EQ(TotalReservedBps(), reserved_before * 4);
  EXPECT_NEAR(kernel.scheduler()->AdmittedUtilization(), 0.2, 1e-9);
  EXPECT_EQ(camera->config().pace_bps, 40'000'000);

  // An infeasible demand is refused atomically: nothing changes.
  StreamSpec too_much = more;
  too_much.bandwidth_bps = 500'000'000;
  auto refused = r.session->Renegotiate(too_much);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.failure, AdmitFailure::kNetworkBandwidth);
  ASSERT_TRUE(refused.counter_offer.has_value());
  EXPECT_EQ(refused.counter_offer->bandwidth_bps, 155'000'000);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 40'000'000);
  EXPECT_EQ(TotalReservedBps(), reserved_before * 4);
  EXPECT_NEAR(kernel.scheduler()->AdmittedUtilization(), 0.2, 1e-9);

  // Scale back down: the freed bandwidth is admissible again elsewhere.
  StreamSpec back = r.session->contract().granted;
  back.bandwidth_bps = 10'000'000;
  back.sink_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  EXPECT_TRUE(r.session->Renegotiate(back).ok());
  EXPECT_EQ(TotalReservedBps(), reserved_before);
  EXPECT_NEAR(kernel.scheduler()->AdmittedUtilization(), 0.1, 1e-9);
  // The refused attempt does not count: only bound contracts do.
  EXPECT_EQ(r.session->contract().renegotiations, 2);
}

TEST_F(StreamFixture, ManagerDegradationReachesTheSession) {
  Workstation* ws = system_.AddWorkstation("ws");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  ws->AttachKernel(&kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = ws->AddCamera(cfg);
  dev::AtmDisplay* display = ws->AddDisplay(640, 480);

  nemesis::QosManagerDomain::Options opts;
  opts.epoch = Milliseconds(250);
  opts.target_utilization = 0.5;
  opts.reclaim_unused = false;
  opts.smoothing = 1.0;
  nemesis::QosManagerDomain manager(&sim_, "mgr",
                                    QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)),
                                    opts);
  ASSERT_TRUE(kernel.AddDomain(&manager));

  // The stream holds 40% but the manager's target only sustains 50% total;
  // a second registered client forces a weighted squeeze.
  StreamSpec spec = StreamSpec::Video(25, 0);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(40), Milliseconds(100));
  int degrade_calls = 0;
  double last_granted = -1.0;
  auto r = system_.BuildStream("managed")
               .From(ws, camera)
               .To(ws, display)
               .WithSpec(spec)
               .ManagedBy(&manager, /*weight=*/1.0)
               .OnDegrade([&](const QosContract& c) {
                 ++degrade_calls;
                 last_granted = c.granted.sink_cpu.Utilization();
               })
               .Open();
  ASSERT_TRUE(r.report.ok());

  nemesis::BatchDomain competitor("competitor",
                                  QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)));
  ASSERT_TRUE(kernel.AddDomain(&competitor));
  manager.Register(&competitor, /*weight=*/1.0,
                   QosParams::Guaranteed(Milliseconds(40), Milliseconds(100)));

  kernel.Start();
  sim_.RunUntil(Seconds(2));

  // Equal weights, 50% to divide: the stream was squeezed to ~25% and the
  // session heard about it through the degradation callback.
  EXPECT_GT(degrade_calls, 0);
  EXPECT_NEAR(last_granted, 0.25, 0.02);
  EXPECT_NEAR(r.session->contract().granted.sink_cpu.Utilization(), 0.25, 0.02);
}


// --- one-to-many sessions (ToMany / AddSink / RemoveSink) ---

TEST_F(StreamFixture, ToManyChargesSharedEdgesOnce) {
  Workstation* src = system_.AddWorkstation("head");
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  Workstation* c = system_.AddWorkstation("c");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  std::vector<MulticastSink> sinks;
  for (Workstation* ws : {a, b, c}) {
    MulticastSink sink;
    sink.ws = ws;
    sink.display = ws->AddDisplay(640, 480);
    sinks.push_back(sink);
  }

  auto r = system_.BuildStream("broadcast")
               .From(src, camera)
               .ToMany(sinks)
               .WithSpec(StreamSpec::Video(25, 10'000'000))
               .WithWindow(0, 0, 320, 240)
               .Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  ASSERT_NE(r.session, nullptr);
  EXPECT_EQ(r.session->sink_count(), 3);
  // The tree reserves each EDGE once: camera uplink and head->backbone are
  // shared by all three viewers (charged once), then backbone->edge plus
  // display downlink per viewer. Per-viewer unicast would reserve 4 links
  // each (12 total); the tree reserves 8.
  EXPECT_EQ(TotalReservedBps(), (2 + 2 * 3) * 10'000'000);
  // Every leaf observes its own incoming VCI.
  for (const MulticastSink& sink : sinks) {
    EXPECT_TRUE(r.session->SinkVci(sink.ws->device_endpoint(sink.display)).has_value());
  }
  // The camera is paced to the ONE tree rate, not the sum over viewers.
  EXPECT_EQ(camera->config().pace_bps, 10'000'000);

  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
}

TEST_F(StreamFixture, AddSinkAdmitsOnlyGraftPathAndRemoveSinkPrunes) {
  Workstation* src = system_.AddWorkstation("head");
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  MulticastSink first;
  first.ws = a;
  first.display = a->AddDisplay(640, 480);

  auto r = system_.BuildStream("join-leave")
               .From(src, camera)
               .ToMany({first})
               .WithSpec(StreamSpec::Video(25, 10'000'000))
               .Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  EXPECT_EQ(TotalReservedBps(), 4 * 10'000'000);

  // A late join grafts only its own branch: +2 links, the shared trunk
  // stays at one stream's reservation.
  MulticastSink late;
  late.ws = b;
  late.display = b->AddDisplay(640, 480);
  auto graft = r.session->AddSink(late);
  ASSERT_TRUE(graft.ok()) << graft.detail;
  EXPECT_EQ(r.session->sink_count(), 2);
  EXPECT_EQ(TotalReservedBps(), 6 * 10'000'000);
  atm::Endpoint* late_ep = b->device_endpoint(late.display);
  EXPECT_TRUE(r.session->SinkVci(late_ep).has_value());

  // Re-joining an existing leaf is refused.
  EXPECT_FALSE(r.session->AddSink(late).ok());

  // Leaving prunes exactly the leaf's branches.
  atm::Endpoint* first_ep = a->device_endpoint(first.display);
  EXPECT_TRUE(r.session->RemoveSink(first_ep));
  EXPECT_EQ(r.session->sink_count(), 1);
  EXPECT_EQ(TotalReservedBps(), 4 * 10'000'000);
  EXPECT_FALSE(r.session->SinkVci(first_ep).has_value());

  // The last viewer cannot leave; the session closes instead.
  EXPECT_FALSE(r.session->RemoveSink(late_ep));
  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
}

TEST_F(StreamFixture, ToManyCounterOfferTakesTightestLeafHost) {
  Workstation* src = system_.AddWorkstation("head");
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  nemesis::Kernel kernel_a(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  nemesis::Kernel kernel_b(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  a->AttachKernel(&kernel_a);
  b->AttachKernel(&kernel_b);
  // Host b is already 60% committed; host a is idle.
  nemesis::BatchDomain load("load",
                            QosParams::Guaranteed(Milliseconds(600), Milliseconds(1000)));
  ASSERT_TRUE(kernel_b.AddDomain(&load));

  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  MulticastSink sa;
  sa.ws = a;
  sa.display = a->AddDisplay(640, 480);
  MulticastSink sb;
  sb.ws = b;
  sb.display = b->AddDisplay(640, 480);

  // 50% of each leaf host: fits a, exceeds b's 40% headroom. The joint
  // counter-offer must carry the TIGHTEST leaf's clamp, so resubmitting it
  // admits everywhere.
  StreamSpec spec = StreamSpec::Video(25, 1'000'000);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(500), Milliseconds(1000));
  auto r = system_.BuildStream("tight")
               .From(src, camera)
               .ToMany({sa, sb})
               .WithSpec(spec)
               .Open();
  EXPECT_FALSE(r.report.ok());
  EXPECT_EQ(r.report.failure, AdmitFailure::kSinkCpu);
  ASSERT_EQ(r.report.verdict, AdmitVerdict::kCounterOffer);
  ASSERT_TRUE(r.report.counter_offer.has_value());
  EXPECT_LE(r.report.counter_offer->sink_cpu.Utilization(), 0.4);
  EXPECT_GT(r.report.counter_offer->sink_cpu.Utilization(), 0.35);

  auto r2 = system_.BuildStream("tight2")
                .From(src, camera)
                .ToMany({sa, sb})
                .WithSpec(*r.report.counter_offer)
                .Open();
  ASSERT_TRUE(r2.report.ok()) << r2.report.detail;
  // BOTH leaf hosts now carry the clamped per-sink contract.
  const double clamped = r.report.counter_offer->sink_cpu.Utilization();
  EXPECT_NEAR(kernel_a.scheduler()->AdmittedUtilization(), clamped, 1e-9);
  EXPECT_NEAR(kernel_b.scheduler()->AdmittedUtilization(), 0.6 + clamped, 1e-9);
  r2.session->Close();
}

TEST_F(StreamFixture, MulticastRenegotiateScalesTreeAndEveryLeafTogether) {
  Workstation* src = system_.AddWorkstation("head");
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  nemesis::Kernel kernel_a(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  nemesis::Kernel kernel_b(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  a->AttachKernel(&kernel_a);
  b->AttachKernel(&kernel_b);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  MulticastSink sa;
  sa.ws = a;
  sa.display = a->AddDisplay(640, 480);
  MulticastSink sb;
  sb.ws = b;
  sb.display = b->AddDisplay(640, 480);

  StreamSpec spec = StreamSpec::Video(25, 20'000'000);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(10), Milliseconds(100));
  auto r = system_.BuildStream("scaled")
               .From(src, camera)
               .ToMany({sa, sb})
               .WithSpec(spec)
               .Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  EXPECT_EQ(TotalReservedBps(), 6 * 20'000'000);
  EXPECT_NEAR(kernel_a.scheduler()->AdmittedUtilization(), 0.1, 1e-9);
  EXPECT_NEAR(kernel_b.scheduler()->AdmittedUtilization(), 0.1, 1e-9);

  // One renegotiation moves the WHOLE tree and every leaf contract.
  StreamSpec smaller = r.session->contract().granted;
  smaller.bandwidth_bps = 10'000'000;
  smaller.sink_cpu = QosParams::Guaranteed(Milliseconds(5), Milliseconds(100));
  auto renego = r.session->Renegotiate(smaller);
  ASSERT_TRUE(renego.ok()) << renego.detail;
  EXPECT_EQ(TotalReservedBps(), 6 * 10'000'000);
  EXPECT_NEAR(kernel_a.scheduler()->AdmittedUtilization(), 0.05, 1e-9);
  EXPECT_NEAR(kernel_b.scheduler()->AdmittedUtilization(), 0.05, 1e-9);
  EXPECT_EQ(camera->config().pace_bps, 10'000'000);

  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_NEAR(kernel_a.scheduler()->AdmittedUtilization(), 0.0, 1e-9);
  EXPECT_NEAR(kernel_b.scheduler()->AdmittedUtilization(), 0.0, 1e-9);
}

// --- one session shape: every sink end is a leaf of the final leg's tree ---

// A play-out fanned out to two viewers still has one file to reserve: the
// disk rate is reserved once, however many sinks watch, and Close returns it.
TEST_F(StreamFixture, PlayOutToManyReservesTheDiskRateOnce) {
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);
  const pfs::FileId title = storage->SeedContinuousFile(50, 1000, Milliseconds(40));
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  MulticastSink sa;
  sa.ws = a;
  sa.endpoint = a->host();
  MulticastSink sb;
  sb.ws = b;
  sb.endpoint = b->host();

  StreamSpec spec = StreamSpec::Video(25, 4'000'000);
  spec.disk_bps = 500'000;
  auto r = system_.BuildStream("vod-party")
               .FromStorage(storage, title)
               .ToMany({sa, sb})
               .WithSpec(spec)
               .Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  EXPECT_EQ(r.session->file(), title);
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 500'000);
  // Play-out is paced to the tighter of network and disk (500 kB/s = 4 Mb/s).
  EXPECT_EQ(storage->PlayoutPaceBps(title), 4'000'000);

  r.session->Close();
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 0);
  EXPECT_EQ(storage->PlayoutPaceBps(title), 0);
  EXPECT_EQ(TotalReservedBps(), 0);

  // Two recording sinks are two files: a disk rate has nothing single to
  // reserve and is refused.
  Workstation* src = system_.AddWorkstation("src");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  StorageNode* second = system_.AddStorageServer(pfs_cfg, "storage-2");
  MulticastSink rec1;
  rec1.storage = storage;
  MulticastSink rec2;
  rec2.storage = second;
  auto twice = system_.BuildStream("two-recorders")
                   .From(src, camera)
                   .ToMany({rec1, rec2})
                   .WithSpec(spec)
                   .Open();
  EXPECT_FALSE(twice.report.ok());
  EXPECT_EQ(twice.report.failure, AdmitFailure::kDiskBandwidth);
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 0);

  // One recording sink beside a viewer is one file: its disk rate is
  // reserved, and goes when that sink leaves the tree.
  MulticastSink viewer;
  viewer.ws = a;
  viewer.endpoint = a->host();
  auto tap = system_.BuildStream("tap")
                 .From(src, camera)
                 .ToMany({viewer, rec1})
                 .WithSpec(spec)
                 .Open();
  ASSERT_TRUE(tap.report.ok()) << tap.report.detail;
  EXPECT_GE(tap.session->file(), 0);
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 500'000);
  ASSERT_TRUE(tap.session->RemoveSink(storage->endpoint()));
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 0);
  EXPECT_EQ(tap.session->file(), -1);
  EXPECT_EQ(tap.session->contract().granted.disk_bps, 0);
  EXPECT_TRUE(tap.session->Renegotiate(tap.session->contract().granted).ok());
  tap.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
}

// A To() session is a one-sink tree: sinks graft onto it and prune off it
// like any other, and its own To() end takes its control duplex along when
// it leaves.
TEST_F(StreamFixture, ToSessionGraftsAndPrunesSinks) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  dev::AtmDisplay* disp_a = a->AddDisplay(640, 480);
  dev::AtmDisplay* disp_b = b->AddDisplay(640, 480);

  const int64_t base_vcs = system_.network().open_vc_count();
  auto r = system_.BuildStream("p2p")
               .From(src, camera)
               .To(a, disp_a)
               .WithSpec(StreamSpec::Video(25, 10'000'000))
               .Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  // The data tree plus the To() end's control duplex.
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs + 3);
  EXPECT_EQ(TotalReservedBps(), 4 * 10'000'000);

  MulticastSink late;
  late.ws = b;
  late.display = disp_b;
  auto graft = r.session->AddSink(late);
  ASSERT_TRUE(graft.ok()) << graft.detail;
  EXPECT_EQ(r.session->sink_count(), 2);
  // The camera uplink and head->backbone are shared: +2 links, no new VC.
  EXPECT_EQ(TotalReservedBps(), 6 * 10'000'000);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs + 3);
  const atm::Endpoint* b_ep = b->device_endpoint(disp_b);
  ASSERT_TRUE(r.session->SinkVci(b_ep).has_value());

  // The original To() end leaves: its branch and control duplex go, and
  // the session's first sink is now the late joiner.
  EXPECT_TRUE(r.session->RemoveSink(a->device_endpoint(disp_a)));
  EXPECT_EQ(r.session->sink_count(), 1);
  EXPECT_EQ(TotalReservedBps(), 4 * 10'000'000);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs + 1);
  EXPECT_EQ(r.session->sink_vci(), *r.session->SinkVci(b_ep));
  EXPECT_FALSE(r.session->RemoveSink(b_ep));  // the last sink stays

  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
}

// The only shape refused outright: a QoS-managed session with more than one
// sink end (a manager registration per sink end is undefined).
TEST_F(StreamFixture, ManagedSessionKeepsOneSinkEnd) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* a = system_.AddWorkstation("a");
  Workstation* b = system_.AddWorkstation("b");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  a->AttachKernel(&kernel);
  nemesis::QosManagerDomain manager(&sim_, "mgr",
                                    QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)),
                                    nemesis::QosManagerDomain::Options{});
  ASSERT_TRUE(kernel.AddDomain(&manager));
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  MulticastSink sa;
  sa.ws = a;
  sa.display = a->AddDisplay(640, 480);
  MulticastSink sb;
  sb.ws = b;
  sb.display = b->AddDisplay(640, 480);
  const int64_t base_vcs = system_.network().open_vc_count();

  auto both = system_.BuildStream("managed-many")
                  .From(src, camera)
                  .ToMany({sa, sb})
                  .WithSpec(StreamSpec::Video(25, 1'000'000))
                  .ManagedBy(&manager)
                  .Open();
  EXPECT_FALSE(both.report.ok());
  EXPECT_EQ(both.report.failure, AdmitFailure::kEndpoint);
  EXPECT_EQ(both.report.verdict, AdmitVerdict::kRejected);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);

  auto one = system_.BuildStream("managed-one")
                 .From(src, camera)
                 .To(a, sa.display)
                 .WithSpec(StreamSpec::Video(25, 1'000'000))
                 .ManagedBy(&manager)
                 .Open();
  ASSERT_TRUE(one.report.ok()) << one.report.detail;
  auto graft = one.session->AddSink(sb);
  EXPECT_FALSE(graft.ok());
  EXPECT_EQ(graft.failure, AdmitFailure::kEndpoint);
  EXPECT_EQ(one.session->sink_count(), 1);
  one.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
}

// The storage-sink CPU rule: sink_cpu is demanded at every sink end, and a
// storage recorder has no host kernel, so the demand is refused whether the
// recorder is a ToStorage() end or a ToMany() leaf beside a display.
TEST_F(StreamFixture, StorageSinkRefusesSinkCpu) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* a = system_.AddWorkstation("a");
  nemesis::Kernel kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  a->AttachKernel(&kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  StreamSpec spec = StreamSpec::Video(25, 1'000'000);
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(1), Milliseconds(100));
  auto solo = system_.BuildStream("rec").From(src, camera).ToStorage(storage).WithSpec(spec).Open();
  EXPECT_FALSE(solo.report.ok());
  EXPECT_EQ(solo.report.failure, AdmitFailure::kSinkCpu);
  EXPECT_EQ(solo.report.verdict, AdmitVerdict::kRejected);

  MulticastSink live;
  live.ws = a;
  live.display = a->AddDisplay(640, 480);
  MulticastSink record;
  record.storage = storage;
  auto tap = system_.BuildStream("tap")
                 .From(src, camera)
                 .ToMany({live, record})
                 .WithSpec(spec)
                 .Open();
  EXPECT_FALSE(tap.report.ok());
  EXPECT_EQ(tap.report.failure, AdmitFailure::kSinkCpu);
  EXPECT_EQ(kernel.scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(TotalReservedBps(), 0);
}

// A renegotiation the sink host refuses after the joint pre-check moves
// every applied layer back: the raised leg and the source's lowered CPU
// contract are restored, the contract record is untouched, and the same
// renegotiation goes through once the scheduler admits again.
TEST_F(StreamFixture, RenegotiationRefusedAfterPreCheckRestoresEveryLayer) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* dst = system_.AddWorkstation("dst");
  nemesis::Kernel src_kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  src->AttachKernel(&src_kernel);
  auto refusing = std::make_unique<RefusingScheduler>();
  RefusingScheduler* sink_sched = refusing.get();
  nemesis::Kernel dst_kernel(&sim_, std::move(refusing));
  dst->AttachKernel(&dst_kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  dev::AtmDisplay* display = dst->AddDisplay(640, 480);

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.source_cpu = QosParams::Guaranteed(Milliseconds(10), Milliseconds(40));
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(5), Milliseconds(40));
  auto r = system_.BuildStream("refused").From(src, camera).To(dst, display).WithSpec(spec).Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  const int64_t reserved = TotalReservedBps();

  StreamSpec wider = spec;
  wider.bandwidth_bps = 20'000'000;
  wider.source_cpu = QosParams::Guaranteed(Milliseconds(5), Milliseconds(40));
  wider.sink_cpu = QosParams::Guaranteed(Milliseconds(10), Milliseconds(40));
  sink_sched->refuse = true;
  const AdmissionReport refused = r.session->Renegotiate(wider);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.failure, AdmitFailure::kSinkCpu);
  EXPECT_EQ(r.session->legs()[0].granted_bps, 10'000'000);
  EXPECT_EQ(TotalReservedBps(), reserved);
  EXPECT_NEAR(src_kernel.scheduler()->AdmittedUtilization(), 0.25, 1e-9);
  EXPECT_NEAR(dst_kernel.scheduler()->AdmittedUtilization(), 0.125, 1e-9);
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 10'000'000);
  EXPECT_NEAR(r.session->contract().granted.source_cpu.Utilization(), 0.25, 1e-9);
  EXPECT_NEAR(r.session->contract().granted.sink_cpu.Utilization(), 0.125, 1e-9);
  EXPECT_EQ(r.session->contract().renegotiations, 0);
  EXPECT_EQ(camera->config().pace_bps, 10'000'000);

  sink_sched->refuse = false;
  ASSERT_TRUE(r.session->Renegotiate(wider).ok());
  EXPECT_EQ(r.session->legs()[0].granted_bps, 20'000'000);
  EXPECT_EQ(TotalReservedBps(), 2 * reserved);
  EXPECT_NEAR(src_kernel.scheduler()->AdmittedUtilization(), 0.125, 1e-9);
  EXPECT_NEAR(dst_kernel.scheduler()->AdmittedUtilization(), 0.25, 1e-9);
  EXPECT_EQ(r.session->contract().renegotiations, 1);
}

// An Open the sink host refuses after admission passed leaves nothing
// bound: the source's CPU contract, every VC and every reservation it had
// already taken are released, and no session is returned.
TEST_F(StreamFixture, OpenRefusedAfterAdmissionLeavesNothingBound) {
  Workstation* src = system_.AddWorkstation("src");
  Workstation* dst = system_.AddWorkstation("dst");
  nemesis::Kernel src_kernel(&sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
  src->AttachKernel(&src_kernel);
  auto refusing = std::make_unique<RefusingScheduler>();
  refusing->refuse = true;
  nemesis::Kernel dst_kernel(&sim_, std::move(refusing));
  dst->AttachKernel(&dst_kernel);
  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = src->AddCamera(cfg);
  dev::AtmDisplay* display = dst->AddDisplay(640, 480);
  const int64_t base_vcs = system_.network().open_vc_count();

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.source_cpu = QosParams::Guaranteed(Milliseconds(10), Milliseconds(40));
  spec.sink_cpu = QosParams::Guaranteed(Milliseconds(5), Milliseconds(40));
  auto r = system_.BuildStream("refused").From(src, camera).To(dst, display).WithSpec(spec).Open();
  EXPECT_FALSE(r.report.ok());
  EXPECT_EQ(r.report.verdict, AdmitVerdict::kRejected);
  EXPECT_EQ(r.report.failure, AdmitFailure::kSinkCpu);
  EXPECT_EQ(r.session, nullptr);
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
  EXPECT_EQ(src_kernel.scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(dst_kernel.scheduler()->AdmittedUtilization(), 0.0);
}

}  // namespace
}  // namespace pegasus::core
