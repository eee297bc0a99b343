// Multi-leg pipeline contracts: camera -> compute -> display admitted
// atomically as ONE contract, joint counter-offers across all failing
// resources, all-or-nothing renegotiation, and teardown that restores
// every layer's capacity.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/compute_node.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"

namespace pegasus::core {
namespace {

using nemesis::QosParams;
using sim::Milliseconds;
using sim::Seconds;

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture() : system_(&sim_) {
    ws_ = system_.AddWorkstation("desk");
    ws_kernel_ = std::make_unique<nemesis::Kernel>(
        &sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
    ws_->AttachKernel(ws_kernel_.get());
    compute_ = system_.AddComputeServer();
    compute_kernel_ = std::make_unique<nemesis::Kernel>(
        &sim_, std::make_unique<nemesis::AtroposScheduler>(1.0));
    compute_->AttachKernel(compute_kernel_.get());

    dev::AtmCamera::Config cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.fps = 25;
    camera_ = ws_->AddCamera(cfg);
    display_ = ws_->AddDisplay(640, 480);
  }

  // Total bandwidth currently reserved anywhere in the network.
  int64_t TotalReservedBps() {
    int64_t total = 0;
    for (const auto& link : system_.network().links()) {
      total += system_.network().ReservedBps(link.get());
    }
    return total;
  }

  // A 2-leg pipeline spec: bandwidth on both legs, CPU at the filter stage
  // and the sink end.
  StreamSpec PipelineSpec(int64_t bps, sim::DurationNs stage_slice,
                          sim::DurationNs sink_slice) {
    StreamSpec spec = StreamSpec::Video(25, bps);
    spec.legs.resize(2);
    spec.legs[0].compute_cpu = QosParams::Guaranteed(stage_slice, Milliseconds(40));
    spec.sink_cpu = QosParams::Guaranteed(sink_slice, Milliseconds(40));
    return spec;
  }

  StreamResult OpenPipeline(const std::string& name, const StreamSpec& spec) {
    dev::TileProcessor::Config stage;
    stage.transform = dev::InvertTransform();
    stage.per_tile_cost = sim::Microseconds(5);
    return system_.BuildStream(name)
        .From(ws_, camera_)
        .Via(compute_, stage)
        .To(ws_, display_)
        .WithSpec(spec)
        .WithWindow(10, 10)
        .Open();
  }

  sim::Simulator sim_;
  PegasusSystem system_;
  Workstation* ws_ = nullptr;
  ComputeNode* compute_ = nullptr;
  std::unique_ptr<nemesis::Kernel> ws_kernel_;
  std::unique_ptr<nemesis::Kernel> compute_kernel_;
  dev::AtmCamera* camera_ = nullptr;
  dev::AtmDisplay* display_ = nullptr;
};

TEST_F(PipelineFixture, PipelineIsOneContractAcrossAllLayers) {
  auto r = OpenPipeline("fx", PipelineSpec(10'000'000, Milliseconds(4), Milliseconds(2)));
  ASSERT_TRUE(r.report.ok());
  ASSERT_NE(r.session, nullptr);
  ASSERT_EQ(r.session->leg_count(), 2);

  // Both legs carry the reservation on every link: camera->local switch,
  // uplink, backbone->compute, and the mirror path back to the display.
  EXPECT_EQ(TotalReservedBps(), 6 * 10'000'000);
  // The stage's CPU contract lives on the compute node's kernel, the sink
  // handler on the workstation's.
  EXPECT_NEAR(compute_kernel_->scheduler()->AdmittedUtilization(), 0.1, 1e-9);
  EXPECT_NEAR(ws_kernel_->scheduler()->AdmittedUtilization(), 0.05, 1e-9);
  EXPECT_EQ(compute_->active_stages(), 1);
  ASSERT_NE(r.session->legs()[0].processor, nullptr);
  ASSERT_NE(r.session->legs()[0].handler, nullptr);
  EXPECT_EQ(r.session->legs()[0].compute, compute_);
  EXPECT_EQ(r.session->legs()[1].compute, nullptr);
  // The granted contract carries fully explicit legs.
  EXPECT_EQ(r.session->contract().granted.legs[0].bandwidth_bps, 10'000'000);
  EXPECT_EQ(r.session->contract().granted.legs[1].bandwidth_bps, 10'000'000);

  // Media actually flows camera -> filter -> display under the contract.
  camera_->Start(r.session->source_vci());
  sim_.RunUntil(Seconds(1));
  EXPECT_GT(r.session->legs()[0].processor->tiles_processed(), 0);
  EXPECT_GT(display_->tile_latency().count(), 0);
}

TEST_F(PipelineFixture, OverCommittingAnySingleLegRejectsTheWholePipeline) {
  const int64_t base_vcs = system_.network().open_vc_count();
  struct Case {
    const char* name;
    StreamSpec spec;
    AdmitFailure expected;
  };
  std::vector<Case> cases;
  // (a) one leg's bandwidth beyond any link.
  StreamSpec fat_link = PipelineSpec(8'000'000, Milliseconds(4), Milliseconds(2));
  fat_link.legs[0].bandwidth_bps = 500'000'000;
  cases.push_back({"link", fat_link, AdmitFailure::kNetworkBandwidth});
  // (b) the compute stage beyond the node's CPU.
  cases.push_back({"compute",
                   PipelineSpec(8'000'000, Milliseconds(60), Milliseconds(2)),
                   AdmitFailure::kComputeCpu});
  // (c) the sink handler beyond the host's CPU.
  cases.push_back({"sink", PipelineSpec(8'000'000, Milliseconds(4), Milliseconds(60)),
                   AdmitFailure::kSinkCpu});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto r = OpenPipeline(c.name, c.spec);
    EXPECT_FALSE(r.report.ok());
    EXPECT_EQ(r.session, nullptr);
    EXPECT_EQ(r.report.failure, c.expected);
    ASSERT_EQ(r.report.verdict, AdmitVerdict::kCounterOffer);
    ASSERT_TRUE(r.report.counter_offer.has_value());
    // The whole chain was refused: nothing is left allocated anywhere.
    EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
    EXPECT_EQ(TotalReservedBps(), 0);
    EXPECT_EQ(compute_kernel_->scheduler()->AdmittedUtilization(), 0.0);
    EXPECT_EQ(ws_kernel_->scheduler()->AdmittedUtilization(), 0.0);
    EXPECT_EQ(compute_->active_stages(), 0);

    // The counter-offer is itself admissible.
    auto retry = OpenPipeline(std::string(c.name) + "-counter", *r.report.counter_offer);
    ASSERT_TRUE(retry.report.ok());
    retry.session->Close();
  }
}

TEST_F(PipelineFixture, JointCounterOfferCoversAllFailingResourcesInOnePass) {
  StreamSpec greedy = PipelineSpec(500'000'000, Milliseconds(60), Milliseconds(60));
  auto r = OpenPipeline("greedy", greedy);
  EXPECT_FALSE(r.report.ok());
  ASSERT_EQ(r.report.verdict, AdmitVerdict::kCounterOffer);

  // One pass reports every failing resource, not just the first: both legs'
  // bandwidth, the stage CPU and the sink CPU.
  const auto& failures = r.report.failures;
  EXPECT_EQ(static_cast<int>(std::count(failures.begin(), failures.end(),
                                        AdmitFailure::kNetworkBandwidth)),
            2);
  EXPECT_EQ(static_cast<int>(
                std::count(failures.begin(), failures.end(), AdmitFailure::kComputeCpu)),
            1);
  EXPECT_EQ(static_cast<int>(
                std::count(failures.begin(), failures.end(), AdmitFailure::kSinkCpu)),
            1);
  EXPECT_EQ(r.report.failure, AdmitFailure::kNetworkBandwidth);

  // Every failing resource is clamped in the same offer...
  const StreamSpec& offer = *r.report.counter_offer;
  EXPECT_EQ(offer.LegBandwidthBps(0), 155'000'000);
  EXPECT_EQ(offer.LegBandwidthBps(1), 155'000'000);
  EXPECT_LT(offer.LegComputeCpu(0).Utilization(), 1.0);
  EXPECT_GT(offer.LegComputeCpu(0).Utilization(), 0.9);
  EXPECT_LT(offer.sink_cpu.Utilization(), 1.0);
  EXPECT_GT(offer.sink_cpu.Utilization(), 0.9);
  // ...and the offer is jointly admissible verbatim.
  auto retry = OpenPipeline("greedy-counter", offer);
  EXPECT_TRUE(retry.report.ok());
}

TEST_F(PipelineFixture, CloseRestoresEveryLayersCapacity) {
  const int64_t base_vcs = system_.network().open_vc_count();
  auto r = OpenPipeline("fx", PipelineSpec(20'000'000, Milliseconds(8), Milliseconds(4)));
  ASSERT_TRUE(r.report.ok());
  EXPECT_GT(TotalReservedBps(), 0);
  EXPECT_GT(compute_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_GT(ws_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(compute_->active_stages(), 1);

  r.session->Close();
  EXPECT_FALSE(r.session->active());
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(compute_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(ws_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(compute_->active_stages(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);

  // Idempotent: a second Close releases nothing twice.
  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
}

TEST_F(PipelineFixture, RenegotiateScalesTheWholePipelineAtomically) {
  auto r = OpenPipeline("fx", PipelineSpec(10'000'000, Milliseconds(4), Milliseconds(2)));
  ASSERT_TRUE(r.report.ok());

  // Scale every layer up in one renegotiation.
  StreamSpec more = r.session->contract().granted;
  more.legs[0].bandwidth_bps = 30'000'000;
  more.legs[1].bandwidth_bps = 20'000'000;
  more.legs[0].compute_cpu = QosParams::Guaranteed(Milliseconds(8), Milliseconds(40));
  more.sink_cpu = QosParams::Guaranteed(Milliseconds(6), Milliseconds(40));
  ASSERT_TRUE(r.session->Renegotiate(more).ok());
  EXPECT_EQ(r.session->legs()[0].granted_bps, 30'000'000);
  EXPECT_EQ(r.session->legs()[1].granted_bps, 20'000'000);
  EXPECT_EQ(TotalReservedBps(), 3 * 30'000'000 + 3 * 20'000'000);
  EXPECT_NEAR(compute_kernel_->scheduler()->AdmittedUtilization(), 0.2, 1e-9);
  EXPECT_NEAR(ws_kernel_->scheduler()->AdmittedUtilization(), 0.15, 1e-9);
  EXPECT_EQ(r.session->contract().renegotiations, 1);
  // The camera is re-paced to the first leg's grant.
  EXPECT_EQ(camera_->config().pace_bps, 30'000'000);

  // The stream-wide bandwidth knob plays no part in pipeline renegotiation
  // and is not echoed into the granted contract.
  StreamSpec noop = r.session->contract().granted;
  noop.bandwidth_bps = 999;
  ASSERT_TRUE(r.session->Renegotiate(noop).ok());
  EXPECT_EQ(r.session->contract().granted.bandwidth_bps, 10'000'000);
  EXPECT_EQ(r.session->legs()[0].granted_bps, 30'000'000);

  // And back down; the freed capacity is admissible again.
  StreamSpec back = r.session->contract().granted;
  back.legs[0].bandwidth_bps = 10'000'000;
  back.legs[1].bandwidth_bps = 10'000'000;
  back.legs[0].compute_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  back.sink_cpu = QosParams::Guaranteed(Milliseconds(2), Milliseconds(40));
  ASSERT_TRUE(r.session->Renegotiate(back).ok());
  EXPECT_EQ(TotalReservedBps(), 6 * 10'000'000);
  EXPECT_NEAR(compute_kernel_->scheduler()->AdmittedUtilization(), 0.1, 1e-9);
  EXPECT_NEAR(ws_kernel_->scheduler()->AdmittedUtilization(), 0.05, 1e-9);
}

// Regression: a failed renegotiation is all-or-nothing — the original
// contract stays fully bound on every layer, and a later Close releases
// each layer exactly once.
TEST_F(PipelineFixture, FailedRenegotiateLeavesContractIntactAndCloseReleasesOnce) {
  const int64_t base_vcs = system_.network().open_vc_count();
  auto r = OpenPipeline("fx", PipelineSpec(10'000'000, Milliseconds(4), Milliseconds(2)));
  ASSERT_TRUE(r.report.ok());
  const int64_t reserved_before = TotalReservedBps();
  const double compute_util_before = compute_kernel_->scheduler()->AdmittedUtilization();
  const double ws_util_before = ws_kernel_->scheduler()->AdmittedUtilization();

  // Ask for the impossible on several layers at once.
  StreamSpec impossible = r.session->contract().granted;
  impossible.legs[0].bandwidth_bps = 900'000'000;
  impossible.legs[0].compute_cpu = QosParams::Guaranteed(Milliseconds(80), Milliseconds(40));
  impossible.sink_cpu = QosParams::Guaranteed(Milliseconds(80), Milliseconds(40));
  auto refused = r.session->Renegotiate(impossible);
  EXPECT_FALSE(refused.ok());
  EXPECT_GE(refused.failures.size(), 3u);

  // Every layer still holds exactly the original contract.
  EXPECT_TRUE(r.session->active());
  EXPECT_EQ(TotalReservedBps(), reserved_before);
  EXPECT_EQ(compute_kernel_->scheduler()->AdmittedUtilization(), compute_util_before);
  EXPECT_EQ(ws_kernel_->scheduler()->AdmittedUtilization(), ws_util_before);
  EXPECT_EQ(r.session->contract().granted.legs[0].bandwidth_bps, 10'000'000);
  EXPECT_EQ(r.session->contract().renegotiations, 0);
  EXPECT_EQ(compute_->active_stages(), 1);
  // All legs remain bound: their VCs still exist.
  for (const auto& leg : r.session->legs()) {
    EXPECT_NE(system_.network().GetVc(leg.vc), nullptr);
  }
  // The joint counter-offer covers the failing layers and is admissible.
  ASSERT_TRUE(refused.counter_offer.has_value());
  EXPECT_TRUE(r.session->Renegotiate(*refused.counter_offer).ok());

  // Close after the failed (then successful) renegotiation releases every
  // layer exactly once.
  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(compute_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(ws_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
  EXPECT_EQ(compute_->active_stages(), 0);
  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
}

// A failed renegotiation of a recording stream must not touch the PFS
// reservation either (the old implementation released-and-re-reserved).
TEST_F(PipelineFixture, FailedRenegotiateKeepsDiskReservation) {
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.disk_bps = 1'000'000;
  auto r = system_.BuildStream("rec")
               .FromEndpoint(ws_, ws_->device_endpoint(camera_))
               .ToStorage(storage)
               .WithSpec(spec)
               .Open();
  ASSERT_TRUE(r.report.ok());
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 1'000'000);

  StreamSpec impossible = r.session->contract().granted;
  impossible.disk_bps = storage->server()->StreamBudgetBps() * 2;
  impossible.bandwidth_bps = 900'000'000;
  auto refused = r.session->Renegotiate(impossible);
  EXPECT_FALSE(refused.ok());
  EXPECT_GE(refused.failures.size(), 2u);
  // The original disk reservation is untouched.
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 1'000'000);

  r.session->Close();
  EXPECT_EQ(storage->server()->reserved_stream_bps(), 0);
}


// Via() composes with ToMany(): a pipeline whose last leg is a tree. The
// whole chain is one contract, a counter-offer scales the tree leg alone,
// every leaf receives the processed stream, and Close drains every layer.
TEST_F(PipelineFixture, ViaThenToManyIsOnePipelineEndingInATree) {
  const int64_t base_vcs = system_.network().open_vc_count();
  Workstation* a = system_.AddWorkstation("viewer-a");
  Workstation* b = system_.AddWorkstation("viewer-b");
  MulticastSink sa;
  sa.ws = a;
  sa.display = a->AddDisplay(640, 480);
  MulticastSink sb;
  sb.ws = b;
  sb.display = b->AddDisplay(640, 480);
  dev::TileProcessor::Config stage;
  stage.transform = dev::InvertTransform();
  stage.per_tile_cost = sim::Microseconds(5);
  auto open = [&](const StreamSpec& spec) {
    return system_.BuildStream("fx-broadcast")
        .From(ws_, camera_)
        .Via(compute_, stage)
        .ToMany({sa, sb})
        .WithSpec(spec)
        .WithWindow(0, 0)
        .Open();
  };

  // The tree leg asks for more than any link carries: the joint offer clamps
  // that leg only, leaving the first leg and the stage contract as asked.
  StreamSpec spec = StreamSpec::Video(25, 10'000'000);
  spec.legs.resize(2);
  spec.legs[0].compute_cpu = QosParams::Guaranteed(Milliseconds(4), Milliseconds(40));
  spec.legs[1].bandwidth_bps = 200'000'000;
  auto over = open(spec);
  EXPECT_FALSE(over.report.ok());
  EXPECT_EQ(over.report.failure, AdmitFailure::kNetworkBandwidth);
  ASSERT_EQ(over.report.verdict, AdmitVerdict::kCounterOffer);
  const StreamSpec& offer = *over.report.counter_offer;
  ASSERT_EQ(offer.legs.size(), 2u);
  EXPECT_EQ(offer.LegBandwidthBps(0), 10'000'000);
  EXPECT_EQ(offer.LegBandwidthBps(1), 155'000'000);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);

  auto r = open(offer);
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  ASSERT_EQ(r.session->leg_count(), 2);
  EXPECT_EQ(r.session->sink_count(), 2);
  // One contract: the first leg reserved on its links, the tree leg once
  // per tree edge though both viewers ride the compute node's uplink.
  const std::vector<atm::Link*>& leg0 = *system_.network().VcLinks(r.session->legs()[0].vc);
  const std::vector<atm::Link*>& tree = *system_.network().VcLinks(r.session->legs()[1].vc);
  for (const atm::Link* l : tree) {
    EXPECT_EQ(std::count(tree.begin(), tree.end(), l), 1) << l->name();
    EXPECT_EQ(system_.network().ReservedBps(l), 155'000'000) << l->name();
  }
  EXPECT_EQ(TotalReservedBps(), static_cast<int64_t>(leg0.size()) * 10'000'000 +
                                    static_cast<int64_t>(tree.size()) * 155'000'000);
  EXPECT_NEAR(compute_kernel_->scheduler()->AdmittedUtilization(), 0.1, 1e-9);

  // Both leaves receive tiles, and only the filter stage feeds the tree.
  camera_->Start(r.session->source_vci());
  sim_.RunUntil(Seconds(1));
  camera_->Stop();
  EXPECT_GT(r.session->legs()[0].processor->tiles_processed(), 0);
  EXPECT_GT(sa.display->tiles_blitted(), 0);
  EXPECT_GT(sb.display->tiles_blitted(), 0);

  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
  EXPECT_EQ(compute_kernel_->scheduler()->AdmittedUtilization(), 0.0);
  EXPECT_EQ(compute_->active_stages(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
}

// A graft onto a pipeline's tree meets the latency bound over the earlier
// legs plus its own route from the last stage, not from the source.
TEST_F(PipelineFixture, GraftLatencyCountsFromTheLastStage) {
  Workstation* a = system_.AddWorkstation("viewer-a");
  Workstation* b = system_.AddWorkstation("viewer-b");
  Workstation* far = system_.AddWorkstation("far", a->local_switch(), a->ClaimPort(),
                                            155'000'000);
  auto sink_at = [](Workstation* ws) {
    MulticastSink sink;
    sink.ws = ws;
    sink.endpoint = ws->host();
    return sink;
  };
  atm::Network& net = system_.network();
  // The bound admits exactly the chain to one viewer host.
  StreamSpec spec = StreamSpec::Video(25, 1'000'000);
  spec.latency_bound =
      net.ResolveRoute(ws_->device_endpoint(camera_), compute_->endpoint())->latency_ns +
      net.ResolveRoute(compute_->endpoint(), a->host())->latency_ns;
  dev::TileProcessor::Config stage;
  auto r = system_.BuildStream("bounded")
               .From(ws_, camera_)
               .Via(compute_, stage)
               .ToMany({sink_at(a)})
               .WithSpec(spec)
               .Open();
  ASSERT_TRUE(r.report.ok()) << r.report.detail;
  // b sits as deep below the stage as a: the graft fits the bound.
  EXPECT_TRUE(r.session->AddSink(sink_at(b)).ok());
  // far hangs one switch further down: over the bound.
  auto graft = r.session->AddSink(sink_at(far));
  EXPECT_FALSE(graft.ok());
  EXPECT_EQ(graft.failure, AdmitFailure::kLatency);
  EXPECT_EQ(r.session->sink_count(), 2);
  r.session->Close();
  EXPECT_EQ(TotalReservedBps(), 0);
}

}  // namespace
}  // namespace pegasus::core
