// Mesh and dual-homed topologies: per-link admission accounting when VCs —
// and legs of ONE pipeline contract — share a directed link. The hub
// topologies of PegasusSystem never produce shared links; a triangle mesh
// and a pipeline that revisits a workstation uplink do, which is exactly
// what Network::ResolveRoute + the joint per-link admission pass exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/atm/network.h"
#include "src/core/compute_node.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"
#include "src/scenario/topology.h"
#include "src/sim/random.h"

namespace pegasus {
namespace {

using sim::Milliseconds;

// The largest reservation the route from `src` to `dst` can still admit:
// the smallest unreserved capacity over its links.
std::optional<int64_t> MinAvailableBps(const atm::Network& network, const atm::Endpoint* src,
                                       const atm::Endpoint* dst) {
  auto route = network.ResolveRoute(src, dst);
  if (!route.has_value()) {
    return std::nullopt;
  }
  int64_t available = std::numeric_limits<int64_t>::max();
  for (const atm::Link* l : route->links) {
    available = std::min(available, network.AvailableBandwidth(l));
  }
  return std::max<int64_t>(available, 0);
}

// --- raw Network mesh: a triangle of switches, endpoints on each corner,
// plus a dual-homed storage front-end (one NIC on sw2, one on sw3) ---
class MeshFixture : public ::testing::Test {
 protected:
  MeshFixture() : network_(&sim_) {
    sw1_ = network_.AddSwitch("sw1", 8);
    sw2_ = network_.AddSwitch("sw2", 8);
    sw3_ = network_.AddSwitch("sw3", 8);
    network_.ConnectSwitches(sw1_, 0, sw2_, 0, 155'000'000);
    network_.ConnectSwitches(sw2_, 1, sw3_, 0, 155'000'000);
    network_.ConnectSwitches(sw1_, 1, sw3_, 1, 155'000'000);
    a_ = network_.AddEndpoint("a", sw1_, 2, 155'000'000);
    b_ = network_.AddEndpoint("b", sw1_, 3, 155'000'000);
    c_ = network_.AddEndpoint("c", sw2_, 2, 155'000'000);
    // The dual-homed storage front-end: two NICs of one node.
    store_nic1_ = network_.AddEndpoint("store-nic1", sw2_, 3, 155'000'000);
    store_nic2_ = network_.AddEndpoint("store-nic2", sw3_, 2, 155'000'000);
  }

  // The directed inter-switch link sw1 -> sw2 (second hop of a -> c).
  atm::Link* Sw1ToSw2() {
    auto route = network_.ResolveRoute(a_, c_);
    EXPECT_TRUE(route.has_value());
    return route->links[1];
  }

  sim::Simulator sim_;
  atm::Network network_;
  atm::Switch* sw1_;
  atm::Switch* sw2_;
  atm::Switch* sw3_;
  atm::Endpoint* a_;
  atm::Endpoint* b_;
  atm::Endpoint* c_;
  atm::Endpoint* store_nic1_;
  atm::Endpoint* store_nic2_;
};

TEST_F(MeshFixture, RoutesTakeTheDirectMeshEdge) {
  // a(sw1) -> c(sw2): uplink, the direct sw1->sw2 edge, downlink — BFS does
  // not detour through sw3.
  auto route = network_.ResolveRoute(a_, c_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links.size(), 3u);
  // Both a and b reach c over the same directed middle link.
  auto route_b = network_.ResolveRoute(b_, c_);
  ASSERT_TRUE(route_b.has_value());
  EXPECT_EQ(route->links[1], route_b->links[1]);
  // The reverse direction is a different link (directed accounting).
  auto reverse = network_.ResolveRoute(c_, a_);
  ASSERT_TRUE(reverse.has_value());
  EXPECT_NE(route->links[1], reverse->links[1]);
}

TEST_F(MeshFixture, SharedDirectedLinkAdmitsAndRejectsJointly) {
  atm::Link* shared = Sw1ToSw2();
  const int64_t rejections_before = network_.admission_rejections();

  auto vc1 = network_.OpenVc(a_, c_, atm::QosSpec{100'000'000});
  ASSERT_TRUE(vc1.has_value());
  EXPECT_EQ(network_.ReservedBps(shared), 100'000'000);

  // A second VC from a different endpoint crosses the same directed link:
  // joint accounting rejects what no longer fits...
  auto vc2 = network_.OpenVc(b_, c_, atm::QosSpec{100'000'000});
  EXPECT_FALSE(vc2.has_value());
  EXPECT_EQ(network_.admission_rejections(), rejections_before + 1);
  // ...and admits exactly the remainder.
  EXPECT_EQ(MinAvailableBps(network_, b_, c_), 55'000'000);
  auto vc3 = network_.OpenVc(b_, c_, atm::QosSpec{55'000'000});
  ASSERT_TRUE(vc3.has_value());
  EXPECT_EQ(network_.AvailableBandwidth(shared), 0);

  // Raising either reservation in place is refused; freeing one re-opens
  // headroom for the other.
  EXPECT_FALSE(network_.UpdateVcQos(vc3->id, atm::QosSpec{56'000'000}));
  ASSERT_TRUE(network_.CloseVc(vc1->id));
  EXPECT_TRUE(network_.UpdateVcQos(vc3->id, atm::QosSpec{155'000'000}));
  EXPECT_EQ(network_.AvailableBandwidth(shared), 0);
}

TEST_F(MeshFixture, DualHomedPathsAccountPerLink) {
  // Another workstation saturates the sw1->sw2 edge toward the storage
  // node's first NIC; a's path to that home now has nothing left.
  auto vc1 = network_.OpenVc(b_, store_nic1_, atm::QosSpec{155'000'000});
  ASSERT_TRUE(vc1.has_value());
  EXPECT_EQ(MinAvailableBps(network_, a_, store_nic1_), 0);

  // The second home rides sw1->sw3: per-link (not per-node) accounting
  // leaves that path untouched, so the dual-homed node stays reachable at
  // full rate.
  EXPECT_EQ(MinAvailableBps(network_, a_, store_nic2_), 155'000'000);
  auto vc2 = network_.OpenVc(a_, store_nic2_, atm::QosSpec{155'000'000});
  ASSERT_TRUE(vc2.has_value());

  // Releasing both reservations restores both homes in full (a's own
  // uplink was the remaining constraint once vc2 held it).
  ASSERT_TRUE(network_.CloseVc(vc1->id));
  EXPECT_EQ(MinAvailableBps(network_, a_, store_nic1_), 0);  // vc2 holds a's uplink
  ASSERT_TRUE(network_.CloseVc(vc2->id));
  EXPECT_EQ(MinAvailableBps(network_, a_, store_nic1_), 155'000'000);
  EXPECT_EQ(MinAvailableBps(network_, a_, store_nic2_), 155'000'000);
}

// --- system-level: two legs of ONE pipeline contract share a directed
// uplink (camera -> backbone compute -> desk-side compute -> remote
// display revisits the desk's uplink), exercising the joint per-link
// admission pass end to end ---
class SharedLegFixture : public ::testing::Test {
 protected:
  SharedLegFixture() : system_(&sim_) {
    desk_ = system_.AddWorkstation("desk");
    viewer_ = system_.AddWorkstation("viewer");
    hub_compute_ = system_.AddComputeServer("hub-fx");
    edge_compute_ = system_.AddComputeServer("edge-fx", desk_);
    dev::AtmCamera::Config cfg;
    camera_ = desk_->AddCamera(cfg);
    display_ = viewer_->AddDisplay(640, 480);
  }

  core::StreamResult OpenChain(const core::StreamSpec& spec) {
    dev::TileProcessor::Config stage;
    stage.transform = dev::InvertTransform();
    return system_.BuildStream("revisit")
        .From(desk_, camera_)
        .Via(hub_compute_, stage)
        .Via(edge_compute_, stage)
        .To(viewer_, display_)
        .WithSpec(spec)
        .Open();
  }

  // The directed desk -> backbone uplink, shared by legs 0 and 2.
  atm::Link* DeskUplink(core::StreamSession* session) {
    const std::vector<atm::Link*>* leg0 = system_.network().VcLinks(session->legs()[0].vc);
    EXPECT_NE(leg0, nullptr);
    return (*leg0)[1];
  }

  sim::Simulator sim_;
  core::PegasusSystem system_;
  core::Workstation* desk_;
  core::Workstation* viewer_;
  core::ComputeNode* hub_compute_;
  core::ComputeNode* edge_compute_;
  dev::AtmCamera* camera_;
  dev::AtmDisplay* display_;
};

TEST_F(SharedLegFixture, LegsSharingAnUplinkAreChargedJointly) {
  // 70 Mb/s per leg: legs 0 and 2 both cross the desk uplink, so it must
  // carry 140 Mb/s of this ONE contract.
  core::StreamSpec spec = core::StreamSpec::Video(25, 70'000'000);
  auto r = OpenChain(spec);
  ASSERT_TRUE(r.report.ok());
  ASSERT_EQ(r.session->leg_count(), 3);

  atm::Link* uplink = DeskUplink(r.session);
  const std::vector<atm::Link*>* leg2 = system_.network().VcLinks(r.session->legs()[2].vc);
  ASSERT_NE(leg2, nullptr);
  ASSERT_NE(std::find(leg2->begin(), leg2->end(), uplink), leg2->end())
      << "topology regression: legs 0 and 2 no longer share the desk uplink";
  EXPECT_EQ(system_.network().ReservedBps(uplink), 140'000'000);

  // Close releases both legs' shares of the shared link.
  r.session->Close();
  EXPECT_EQ(system_.network().ReservedBps(uplink), 0);
}

TEST_F(SharedLegFixture, OverSharedLinkCountersScaleBothLegsJointly) {
  // 100 Mb/s per leg fits every link individually but puts 200 Mb/s on the
  // shared 155 Mb/s uplink: the chain is refused with BOTH crossing legs
  // scaled to their joint share, leg 1 untouched.
  core::StreamSpec spec = core::StreamSpec::Video(25, 100'000'000);
  auto r = OpenChain(spec);
  EXPECT_FALSE(r.report.ok());
  ASSERT_EQ(r.report.verdict, core::AdmitVerdict::kCounterOffer);
  EXPECT_EQ(r.report.failure, core::AdmitFailure::kNetworkBandwidth);
  EXPECT_EQ(std::count(r.report.failures.begin(), r.report.failures.end(),
                       core::AdmitFailure::kNetworkBandwidth),
            2);
  ASSERT_TRUE(r.report.counter_offer.has_value());
  const core::StreamSpec& counter = *r.report.counter_offer;
  EXPECT_EQ(counter.LegBandwidthBps(0), 77'500'000);
  EXPECT_EQ(counter.LegBandwidthBps(1), 100'000'000);
  EXPECT_EQ(counter.LegBandwidthBps(2), 77'500'000);
  // Nothing was left allocated by the refusal.
  for (const auto& link : system_.network().links()) {
    EXPECT_EQ(system_.network().ReservedBps(link.get()), 0);
  }

  // The joint counter-offer is admissible verbatim.
  auto accepted = OpenChain(counter);
  ASSERT_TRUE(accepted.report.ok());
  EXPECT_EQ(system_.network().ReservedBps(DeskUplink(accepted.session)), 155'000'000);
}

TEST_F(SharedLegFixture, RenegotiationHonoursSharedLinkJointly) {
  core::StreamSpec spec = core::StreamSpec::Video(25, 70'000'000);
  auto r = OpenChain(spec);
  ASSERT_TRUE(r.report.ok());

  // Raising both crossing legs to 80 Mb/s would put 160 Mb/s on the shared
  // uplink: the joint pre-check refuses and leaves the contract intact.
  core::StreamSpec more = r.session->contract().granted;
  more.legs[0].bandwidth_bps = 80'000'000;
  more.legs[2].bandwidth_bps = 80'000'000;
  auto refused = r.session->Renegotiate(more);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.failure, core::AdmitFailure::kNetworkBandwidth);
  EXPECT_EQ(r.session->legs()[0].granted_bps, 70'000'000);
  EXPECT_EQ(r.session->legs()[2].granted_bps, 70'000'000);
  EXPECT_EQ(system_.network().ReservedBps(DeskUplink(r.session)), 140'000'000);

  // 77/77 fits (154 <= 155) and rebinds in place.
  core::StreamSpec fits = r.session->contract().granted;
  fits.legs[0].bandwidth_bps = 77'000'000;
  fits.legs[2].bandwidth_bps = 77'000'000;
  EXPECT_TRUE(r.session->Renegotiate(fits).ok());
  EXPECT_EQ(system_.network().ReservedBps(DeskUplink(r.session)), 154'000'000);
}

// --- deterministic path selection: equal-length paths must tie-break by
// switch insertion order, never by heap address ---

// A diamond with two equal-length routes: hub -> {mid1, mid2} -> sink. The
// BFS expands neighbours in switch-id (insertion) order, so the route via
// mid1 is the pinned golden route; a pointer-ordered expansion would pick
// whichever middle switch the allocator happened to place lower.
TEST(DeterministicRouting, EqualCostDiamondPicksInsertionOrderGoldenRoute) {
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* hub = net.AddSwitch("hub", 8);
  atm::Switch* mid1 = net.AddSwitch("mid1", 8);
  atm::Switch* mid2 = net.AddSwitch("mid2", 8);
  atm::Switch* sink = net.AddSwitch("sink", 8);
  // Wire mid2 BEFORE mid1 so map-insertion order differs from id order too.
  net.ConnectSwitches(hub, 0, mid2, 0, 155'000'000);
  net.ConnectSwitches(hub, 1, mid1, 0, 155'000'000);
  net.ConnectSwitches(mid1, 1, sink, 0, 155'000'000);
  net.ConnectSwitches(mid2, 1, sink, 1, 155'000'000);
  atm::Endpoint* a = net.AddEndpoint("a", hub, 2, 155'000'000);
  atm::Endpoint* d = net.AddEndpoint("d", sink, 2, 155'000'000);

  auto route = net.ResolveRoute(a, d);
  ASSERT_TRUE(route.has_value());
  const std::vector<atm::Link*>* links = &route->links;
  ASSERT_EQ(links->size(), 4u);
  // Golden route: through mid1 (lower switch id), regardless of the order
  // the mesh edges were wired or where the switches live on the heap.
  EXPECT_EQ((*links)[1]->name(), "hub->mid1");
  EXPECT_EQ((*links)[2]->name(), "mid1->sink");

  // A second resolve reads the same source's route tree again and returns
  // the same resolution: the tree holds exactly the deterministic BFS parents.
  auto again = net.ResolveRoute(a, d);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->links, *links);

  // And the installed VC rides the same golden links.
  auto vc = net.OpenVc(a, d, atm::QosSpec{1'000'000});
  ASSERT_TRUE(vc.has_value());
  const auto* vc_links = net.VcLinks(vc->id);
  ASSERT_NE(vc_links, nullptr);
  EXPECT_EQ(*vc_links, *links);
}

// --- route-tree coherence across topology mutation ---
TEST(RouteCache, TopologyMutationInvalidatesWarmRoutes) {
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* sw1 = net.AddSwitch("sw1", 8);
  atm::Switch* sw2 = net.AddSwitch("sw2", 8);
  atm::Switch* sw3 = net.AddSwitch("sw3", 8);
  net.ConnectSwitches(sw1, 0, sw2, 0, 155'000'000);
  net.ConnectSwitches(sw2, 1, sw3, 0, 155'000'000);
  atm::Endpoint* a = net.AddEndpoint("a", sw1, 2, 155'000'000);
  atm::Endpoint* d = net.AddEndpoint("d", sw3, 2, 155'000'000);

  // Build sw1's route tree over the 2-inter-switch-hop chain.
  auto before = net.ResolveRoute(a, d);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->links.size(), 4u);
  const sim::DurationNs latency_before = before->latency_ns;

  // A shortcut appears: sw1 -- sw3 directly. The tree built before it must
  // not be served stale.
  net.ConnectSwitches(sw1, 1, sw3, 1, 155'000'000);
  auto after = net.ResolveRoute(a, d);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->links.size(), 3u);
  EXPECT_EQ(after->links[1]->name(), "sw1->sw3");
  EXPECT_LT(after->latency_ns, latency_before);

  // A VC opened after the mutation installs over the NEW (shorter) path.
  auto vc = net.OpenVc(a, d, atm::QosSpec{1'000'000});
  ASSERT_TRUE(vc.has_value());
  const auto* vc_links = net.VcLinks(vc->id);
  ASSERT_NE(vc_links, nullptr);
  EXPECT_EQ(vc_links->size(), 3u);
  EXPECT_EQ((*vc_links)[1]->name(), "sw1->sw3");
  EXPECT_EQ(vc->hop_count, 2);
}

// --- route trees: every tree path is the path the per-pair BFS finds ---

// The switch graph rebuilt from public wiring (each switch's output links
// and the switch each one lands in), plus the early-exit BFS between one
// switch pair that Network ran before it kept one route tree per source.
class PairBfsOracle {
 public:
  explicit PairBfsOracle(const std::vector<atm::Switch*>& switches) {
    int max_id = 0;
    for (atm::Switch* sw : switches) {
      max_id = std::max(max_id, sw->id());
    }
    adjacency_.resize(static_cast<size_t>(max_id) + 1);
    // Which switch owns each input sink: links into endpoints stay out.
    std::map<const atm::CellSink*, atm::Switch*> owner;
    for (atm::Switch* sw : switches) {
      for (int port = 0; port < sw->num_ports(); ++port) {
        owner[sw->input(port)] = sw;
      }
    }
    for (atm::Switch* sw : switches) {
      auto& row = adjacency_[static_cast<size_t>(sw->id())];
      for (int port = 0; port < sw->num_ports(); ++port) {
        atm::Link* link = sw->output(port);
        auto it = link == nullptr ? owner.end() : owner.find(link->sink());
        if (it != owner.end()) {
          row.push_back(Edge{it->second->id(), link});
        }
      }
      // Neighbours in switch-id order, one wire per neighbour: the latest.
      std::sort(row.begin(), row.end(), [](const Edge& x, const Edge& y) {
        return x.to != y.to ? x.to < y.to : x.link->id() > y.link->id();
      });
      row.erase(std::unique(row.begin(), row.end(),
                            [](const Edge& x, const Edge& y) { return x.to == y.to; }),
                row.end());
    }
  }

  // The links a VC from `src` to `dst` must ride, nullopt when unreachable.
  std::optional<std::vector<atm::Link*>> Route(const atm::Endpoint* src,
                                               const atm::Endpoint* dst) const {
    const int from = src->attached_switch()->id();
    const int to = dst->attached_switch()->id();
    const size_t n = adjacency_.size();
    std::vector<int> parent(n, -1);
    std::vector<atm::Link*> in_link(n, nullptr);
    std::vector<char> visited(n, 0);
    std::vector<int> frontier{from};
    visited[static_cast<size_t>(from)] = 1;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const int cur = frontier[head];
      if (cur == to) {
        break;
      }
      for (const Edge& e : adjacency_[static_cast<size_t>(cur)]) {
        if (!visited[static_cast<size_t>(e.to)]) {
          visited[static_cast<size_t>(e.to)] = 1;
          parent[static_cast<size_t>(e.to)] = cur;
          in_link[static_cast<size_t>(e.to)] = e.link;
          frontier.push_back(e.to);
        }
      }
    }
    if (!visited[static_cast<size_t>(to)]) {
      return std::nullopt;
    }
    std::vector<atm::Link*> hops;
    for (int s = to; s != from; s = parent[static_cast<size_t>(s)]) {
      hops.push_back(in_link[static_cast<size_t>(s)]);
    }
    std::vector<atm::Link*> links{src->uplink()};
    links.insert(links.end(), hops.rbegin(), hops.rend());
    links.push_back(dst->attached_switch()->output(dst->attached_port()));
    return links;
  }

 private:
  struct Edge {
    int to;
    atm::Link* link;
  };

  std::vector<std::vector<Edge>> adjacency_;
};

sim::DurationNs LatencyFloor(const std::vector<atm::Link*>& links) {
  sim::DurationNs total = 0;
  for (const atm::Link* l : links) {
    total += l->propagation_delay() + l->cell_time();
  }
  return total;
}

// ResolveRoute and an installed VC against the oracle for one ordered pair.
::testing::AssertionResult TreeMatchesOracle(atm::Network& net, const PairBfsOracle& oracle,
                                             atm::Endpoint* src, atm::Endpoint* dst) {
  const std::string pair = src->name() + " -> " + dst->name();
  const auto want = oracle.Route(src, dst);
  const auto got = net.ResolveRoute(src, dst);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure() << pair << ": reachability differs";
  }
  if (!want.has_value()) {
    const int64_t no_path = net.admission_rejections_no_path();
    if (net.OpenVc(src, dst).has_value() || net.admission_rejections_no_path() != no_path + 1) {
      return ::testing::AssertionFailure() << pair << ": unreachable open not counted no_path";
    }
    return ::testing::AssertionSuccess();
  }
  if (got->links != *want || got->latency_ns != LatencyFloor(*want)) {
    return ::testing::AssertionFailure() << pair << ": resolved route differs";
  }
  const auto vc = net.OpenVc(src, dst);
  if (!vc.has_value()) {
    return ::testing::AssertionFailure() << pair << ": open refused";
  }
  const std::vector<atm::Link*>* vc_links = net.VcLinks(vc->id);
  const bool same = vc_links != nullptr && *vc_links == *want &&
                    vc->hop_count == static_cast<int>(want->size()) - 1;
  net.CloseVc(vc->id);
  if (!same) {
    return ::testing::AssertionFailure() << pair << ": installed VC differs";
  }
  return ::testing::AssertionSuccess();
}

struct MetroUnderTest {
  sim::Simulator sim;
  core::PegasusSystem system{&sim};
  scenario::MetroTopology topo;
  atm::Switch* island = nullptr;
  std::vector<atm::Switch*> switches;
  std::vector<atm::Endpoint*> endpoints;  // hosts, storage, then the island's

  MetroUnderTest(int cores, int aggs, int edges, int hosts) {
    scenario::TopologyParams p;
    p.core_switches = cores;
    p.agg_per_core = aggs;
    p.edge_per_agg = edges;
    p.hosts_per_edge = hosts;
    p.storage_per_core = 2;
    topo = scenario::BuildMetroTopology(system, p);
    // An island: a switch no wire reaches, with an endpoint on it.
    island = system.network().AddSwitch("island", 4);
    switches = {system.backbone(), island};
    switches.insert(switches.end(), topo.cores.begin(), topo.cores.end());
    switches.insert(switches.end(), topo.aggs.begin(), topo.aggs.end());
    switches.insert(switches.end(), topo.edges.begin(), topo.edges.end());
    for (core::Workstation* ws : topo.hosts) {
      switches.push_back(ws->local_switch());
      endpoints.push_back(ws->host());
    }
    for (core::StorageNode* node : topo.storage) {
      endpoints.push_back(node->endpoint());
    }
    endpoints.push_back(system.network().AddEndpoint("far", island, 0, 155'000'000));
  }

  // Mutates the fabric: a shortcut between the first and last workstation
  // switches, and a wire joining the island to the first workstation.
  void Rewire() {
    core::Workstation* first = topo.hosts.front();
    core::Workstation* last = topo.hosts.back();
    atm::Network& net = system.network();
    net.ConnectSwitches(first->local_switch(), first->ClaimPort(), last->local_switch(),
                        last->ClaimPort(), 155'000'000);
    net.ConnectSwitches(island, 1, first->local_switch(), first->ClaimPort(), 155'000'000);
  }
};

TEST(RouteTreeEquivalence, EveryEndpointPairOfMetroSmallMatchesPairBfs) {
  MetroUnderTest m(1, 2, 2, 8);
  atm::Network& net = m.system.network();
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "as built" : "after rewiring");
    const PairBfsOracle oracle(m.switches);
    const int64_t no_path_before = net.admission_rejections_no_path();
    for (atm::Endpoint* src : m.endpoints) {
      for (atm::Endpoint* dst : m.endpoints) {
        if (src != dst) {
          ASSERT_TRUE(TreeMatchesOracle(net, oracle, src, dst));
        }
      }
    }
    // As built, the island is unreachable both ways from every other
    // endpoint; once wired in, from none.
    const int64_t others = static_cast<int64_t>(m.endpoints.size()) - 1;
    EXPECT_EQ(net.admission_rejections_no_path() - no_path_before, round == 0 ? 2 * others : 0);
    EXPECT_EQ(net.open_vc_count(), 0);
    if (round == 0) {
      m.Rewire();
    }
  }
}

TEST(RouteTreeEquivalence, SeededPairsOfMetroMidMatchPairBfs) {
  MetroUnderTest m(2, 2, 3, 16);
  atm::Network& net = m.system.network();
  sim::Rng rng(1016);
  const int n = static_cast<int>(m.endpoints.size());
  std::vector<std::pair<atm::Endpoint*, atm::Endpoint*>> pairs;
  while (pairs.size() < 2000) {
    atm::Endpoint* src = m.endpoints[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    atm::Endpoint* dst = m.endpoints[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    if (src != dst) {
      pairs.emplace_back(src, dst);
    }
  }
  atm::Endpoint* far = m.endpoints.back();
  pairs.emplace_back(far, m.endpoints.front());
  pairs.emplace_back(m.endpoints.front(), far);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "as built" : "after rewiring");
    const PairBfsOracle oracle(m.switches);
    for (const auto& [src, dst] : pairs) {
      ASSERT_TRUE(TreeMatchesOracle(net, oracle, src, dst));
    }
    EXPECT_EQ(net.open_vc_count(), 0);
    if (round == 0) {
      m.Rewire();
    }
  }
}

// A switch with exactly one neighbour reads its routes from that
// neighbour's tree. Every ordered endpoint pair below matches the pair BFS:
// a two-switch island in both directions, one-neighbour switches to their
// own neighbour and to each other across an equal-cost diamond, a loopback
// on a one-neighbour switch (the same endpoint and a second one there), and
// destinations the neighbour cannot reach (nullopt, counted as no_path).
TEST(RouteTreeEquivalence, OneNeighbourSwitchesMatchPairBfs) {
  sim::Simulator sim;
  atm::Network net(&sim);
  // leaf1 and leaf2 hang off hub; hub reaches sink over up or down, an
  // equal-cost diamond in which down has the lower id though up is wired
  // first; tail hangs off sink. pair_a and pair_b are wired only to each
  // other.
  atm::Switch* leaf1 = net.AddSwitch("leaf1", 8);
  atm::Switch* pair_a = net.AddSwitch("pair_a", 8);
  atm::Switch* down = net.AddSwitch("down", 8);
  atm::Switch* hub = net.AddSwitch("hub", 8);
  atm::Switch* tail = net.AddSwitch("tail", 8);
  atm::Switch* sink = net.AddSwitch("sink", 8);
  atm::Switch* up = net.AddSwitch("up", 8);
  atm::Switch* pair_b = net.AddSwitch("pair_b", 8);
  atm::Switch* leaf2 = net.AddSwitch("leaf2", 8);
  net.ConnectSwitches(hub, 0, leaf1, 0, 155'000'000);
  net.ConnectSwitches(hub, 1, up, 0, 155'000'000);
  net.ConnectSwitches(hub, 2, down, 0, 155'000'000);
  net.ConnectSwitches(up, 1, sink, 0, 155'000'000);
  net.ConnectSwitches(down, 1, sink, 1, 155'000'000);
  net.ConnectSwitches(sink, 2, tail, 0, 155'000'000);
  net.ConnectSwitches(leaf2, 0, hub, 3, 155'000'000);
  net.ConnectSwitches(pair_a, 0, pair_b, 0, 155'000'000);
  const std::vector<atm::Switch*> switches{leaf1, pair_a, down, hub,   tail,
                                           sink,  up,     pair_b, leaf2};
  std::map<const atm::Switch*, atm::Endpoint*> ep;
  std::vector<atm::Endpoint*> endpoints;
  for (atm::Switch* sw : switches) {
    ep[sw] = net.AddEndpoint(sw->name() + "-ep", sw, 4, 155'000'000);
    endpoints.push_back(ep[sw]);
  }
  atm::Endpoint* leaf1_other = net.AddEndpoint("leaf1-other", leaf1, 5, 155'000'000);
  endpoints.push_back(leaf1_other);

  const PairBfsOracle oracle(switches);
  for (atm::Endpoint* src : endpoints) {
    for (atm::Endpoint* dst : endpoints) {
      ASSERT_TRUE(TreeMatchesOracle(net, oracle, src, dst));
    }
  }
  // What the oracle agreed with, spelled out: the switch-to-switch links.
  auto hops = [&net](const atm::Endpoint* src, const atm::Endpoint* dst) {
    std::vector<std::string> names;
    const auto route = net.ResolveRoute(src, dst);
    if (!route.has_value()) {
      names.push_back("none");
    } else {
      for (size_t i = 1; i + 1 < route->links.size(); ++i) {
        names.push_back(route->links[i]->name());
      }
    }
    return names;
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(hops(ep[pair_a], ep[pair_b]), (Names{"pair_a->pair_b"}));
  EXPECT_EQ(hops(ep[pair_b], ep[pair_a]), (Names{"pair_b->pair_a"}));
  EXPECT_EQ(hops(ep[leaf1], ep[hub]), (Names{"leaf1->hub"}));
  EXPECT_EQ(hops(ep[tail], ep[sink]), (Names{"tail->sink"}));
  EXPECT_EQ(hops(ep[leaf1], ep[leaf1]), Names{});
  EXPECT_EQ(hops(ep[leaf1], leaf1_other), Names{});
  EXPECT_EQ(hops(ep[leaf1], ep[leaf2]), (Names{"leaf1->hub", "hub->leaf2"}));
  EXPECT_EQ(hops(ep[leaf1], ep[tail]),
            (Names{"leaf1->hub", "hub->down", "down->sink", "sink->tail"}));
  EXPECT_EQ(hops(ep[tail], ep[leaf2]),
            (Names{"tail->sink", "sink->down", "down->hub", "hub->leaf2"}));
  EXPECT_EQ(hops(ep[leaf1], ep[pair_a]), (Names{"none"}));
  EXPECT_EQ(hops(ep[pair_b], ep[tail]), (Names{"none"}));
  // Each pair switch's endpoint is cut off from the eight others, in both
  // directions: 2 x 2 x 8 refused opens.
  EXPECT_EQ(net.admission_rejections_no_path(), 32);
  EXPECT_EQ(net.open_vc_count(), 0);
}

// --- rejection-cause accounting: no-path and unattached-endpoint failures
// count (split from bandwidth), instead of silently returning nullopt ---
TEST(RejectionAccounting, NoPathAndUnattachedFailuresAreCounted) {
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* sw1 = net.AddSwitch("sw1", 8);
  atm::Switch* island = net.AddSwitch("island", 8);  // never connected
  atm::Endpoint* a = net.AddEndpoint("a", sw1, 0, 155'000'000);
  atm::Endpoint* b = net.AddEndpoint("b", sw1, 1, 10'000'000);
  atm::Endpoint* far = net.AddEndpoint("far", island, 0, 155'000'000);

  EXPECT_EQ(net.admission_rejections(), 0);

  // Unreachable destination: counted as no_path.
  EXPECT_FALSE(net.OpenVc(a, far, atm::QosSpec{1'000'000}).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 1);
  EXPECT_EQ(net.admission_rejections_bandwidth(), 0);

  // An endpoint this network never attached: also no_path.
  atm::Endpoint stray(&sim, "stray");
  EXPECT_FALSE(net.OpenVc(a, &stray).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 2);

  // OpenDuplex across the partition counts the failing direction too.
  EXPECT_FALSE(net.OpenDuplex(far, a).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 3);

  // A bandwidth refusal lands in the other bucket, and the historical
  // total keeps counting both causes.
  EXPECT_FALSE(net.OpenVc(a, b, atm::QosSpec{20'000'000}).has_value());
  EXPECT_EQ(net.admission_rejections_bandwidth(), 1);
  EXPECT_EQ(net.admission_rejections(), 4);

  // A stray endpoint as the SOURCE of a point-to-point or tree open, and as
  // one sink among good ones: each open is refused as no_path.
  EXPECT_FALSE(net.OpenVc(&stray, a).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 4);
  EXPECT_FALSE(net.OpenVc(&stray, std::vector<atm::Endpoint*>{a, b}).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 5);
  EXPECT_FALSE(net.OpenVc(a, std::vector<atm::Endpoint*>{b, &stray}).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 6);

  // A stray leaf grafted onto an open VC: refused, counted, the tree as it was.
  auto vc = net.OpenVc(a, b, atm::QosSpec{1'000'000});
  ASSERT_TRUE(vc.has_value());
  const std::vector<atm::Link*> tree = *net.VcLinks(vc->id);
  EXPECT_FALSE(net.AddLeaf(vc->id, &stray).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 7);
  EXPECT_EQ(net.LeafCount(vc->id), 1);
  EXPECT_EQ(*net.VcLinks(vc->id), tree);

  // ResolveRoute answers nullopt for a stray endpoint at either end and
  // counts nothing: it is a query, not an admission.
  EXPECT_FALSE(net.ResolveRoute(&stray, a).has_value());
  EXPECT_FALSE(net.ResolveRoute(a, &stray).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 7);

  // An endpoint attached to ANOTHER network's switch is not this network's,
  // even though that switch's id is also one of this network's ids.
  atm::Network other(&sim);
  atm::Switch* foreign_sw = other.AddSwitch("foreign", 8);
  ASSERT_EQ(foreign_sw->id(), sw1->id());
  atm::Endpoint* foreign = other.AddEndpoint("foreign-ep", foreign_sw, 0, 155'000'000);
  EXPECT_FALSE(net.ResolveRoute(a, foreign).has_value());
  EXPECT_FALSE(net.ResolveRoute(foreign, a).has_value());
  EXPECT_FALSE(net.OpenVc(a, foreign).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 8);
  EXPECT_FALSE(net.OpenVc(foreign, a).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 9);
  EXPECT_FALSE(net.AddLeaf(vc->id, foreign).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 10);
  EXPECT_EQ(*net.VcLinks(vc->id), tree);
  EXPECT_EQ(other.admission_rejections(), 0);

  // None of the refusals left a reservation behind.
  EXPECT_EQ(net.admission_rejections_bandwidth(), 1);
  ASSERT_TRUE(net.CloseVc(vc->id));
  for (const auto& l : net.links()) {
    EXPECT_EQ(net.ReservedBps(l.get()), 0) << l->name();
  }
}

}  // namespace
}  // namespace pegasus
