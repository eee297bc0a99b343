#include "src/scenario/topology.h"

#include <string>

#include "src/pfs/server.h"
#include "src/sim/time.h"

namespace pegasus::scenario {

namespace {

// Link capacity tapers toward the edge: OC-48-class core trunks down to
// OC-3 subscriber uplinks.
constexpr int64_t kCoreMeshBps = 2'400'000'000;
constexpr int64_t kCoreAggBps = 1'200'000'000;
constexpr int64_t kAggEdgeBps = 622'000'000;
constexpr int64_t kHostUplinkBps = 155'000'000;
constexpr int64_t kStorageLinkBps = 622'000'000;

// Trunk propagation delays follow metro geography: light in fibre covers
// ~200 m/µs and carrier fibre routes run ~2x the geographic distance, so an
// ~80 km inter-office core span is ~800 µs of route and a ~50 km
// core-to-aggregation run ~500 µs; intra-building tiers keep the library
// default. These are also what the sharded runtime (src/sim/shard.h) feeds
// on — every cross-region wire is a core-mesh or core-agg trunk, and its
// propagation delay is that channel's conservative lookahead, so realistic
// trunk lengths directly widen the windows.
constexpr sim::DurationNs kCoreMeshProp = sim::Microseconds(800);
constexpr sim::DurationNs kCoreAggProp = sim::Microseconds(500);

}  // namespace

MetroTopology BuildMetroTopology(core::PegasusSystem& system, const TopologyParams& params) {
  return BuildMetroTopology(system, params, nullptr);
}

MetroTopology BuildMetroTopology(core::PegasusSystem& system, const TopologyParams& params,
                                 sim::ShardGroup* group) {
  MetroTopology topo;
  topo.params = params;
  atm::Network& net = system.network();
  // With a null group the partitioner is inert and this build is
  // line-for-line the classic single-simulator one: same switch/link ids,
  // same BFS tie-breaks, same everything.
  RegionPartitioner part(&net, group);

  // Core tier: enough ports for the mesh, the aggregation fan-out and the
  // storage servers. Ports are handed out in that order.
  const int core_ports = (params.core_switches - 1) + params.agg_per_core +
                         params.storage_per_core;
  std::vector<int> core_next_port(static_cast<size_t>(params.core_switches), 0);
  for (int c = 0; c < params.core_switches; ++c) {
    part.EnterRegion(topo.region_of_core(c));
    topo.cores.push_back(net.AddSwitch("core" + std::to_string(c), core_ports));
  }
  for (int a = 0; a < params.core_switches; ++a) {
    for (int b = a + 1; b < params.core_switches; ++b) {
      net.ConnectSwitches(topo.cores[a], core_next_port[a]++, topo.cores[b], core_next_port[b]++,
                          kCoreMeshBps, kCoreMeshProp);
    }
  }

  // Aggregation tier: one trunk up to the owning core, the rest feed edges.
  for (int c = 0; c < params.core_switches; ++c) {
    for (int i = 0; i < params.agg_per_core; ++i) {
      const int a = c * params.agg_per_core + i;
      part.EnterRegion(topo.region_of_agg(a));
      atm::Switch* agg =
          net.AddSwitch("agg" + std::to_string(a), 1 + params.edge_per_agg);
      topo.aggs.push_back(agg);
      net.ConnectSwitches(agg, 0, topo.cores[c], core_next_port[c]++, kCoreAggBps,
                          kCoreAggProp);
    }
  }

  // Edge tier: one trunk up, one port per subscriber workstation. Edges
  // live in their agg's region, so the agg-edge wire never crosses shards.
  for (int a = 0; a < static_cast<int>(topo.aggs.size()); ++a) {
    for (int i = 0; i < params.edge_per_agg; ++i) {
      const int e = a * params.edge_per_agg + i;
      part.EnterRegion(topo.region_of_edge(e));
      atm::Switch* edge =
          net.AddSwitch("edge" + std::to_string(e), 1 + params.hosts_per_edge);
      topo.edges.push_back(edge);
      net.ConnectSwitches(edge, 0, topo.aggs[a], 1 + i, kAggEdgeBps);
    }
  }

  // Subscriber workstations hang off the edges at the tapered uplink rate.
  // A workstation's local switch follows the build region; its devices and
  // host NIC co-locate with that switch.
  for (int e = 0; e < static_cast<int>(topo.edges.size()); ++e) {
    for (int i = 0; i < params.hosts_per_edge; ++i) {
      const int h = e * params.hosts_per_edge + i;
      part.EnterRegion(topo.region_of_edge(e));
      topo.hosts.push_back(
          system.AddWorkstation("ws" + std::to_string(h), topo.edges[e], 1 + i, kHostUplinkBps));
    }
  }

  // Storage servers sit at the cores, on fat links; their endpoints and
  // play-out engines co-locate with the core switch's shard.
  for (int c = 0; c < params.core_switches; ++c) {
    for (int i = 0; i < params.storage_per_core; ++i) {
      const int s = c * params.storage_per_core + i;
      topo.storage.push_back(system.AddStorageServer(pfs::PfsConfig(),
                                                     "store" + std::to_string(s), topo.cores[c],
                                                     core_next_port[c]++, kStorageLinkBps));
    }
  }
  return topo;
}

}  // namespace pegasus::scenario
