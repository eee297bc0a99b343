// Metro-scale topology generation.
//
// The paper closes on the ambition of scaling Pegasus beyond a machine room:
// "the system accommodates millions of users" only if the fabric between
// them does. This generator grows the single-backbone picture of Figure 4
// into a metropolitan hierarchy: a full mesh of core switches, each core
// fanning out to aggregation switches, each aggregation switch to edge
// switches, and workstations hanging off the edges — with link capacity
// tapering toward the edge the way a carrier network is provisioned (fat
// core trunks, thinner aggregation links, 155 Mb/s subscriber uplinks).
// Storage servers sit at the cores, next to the bandwidth, so a popular
// title is a trunk hop — not an edge hop — away from most viewers.
//
// Everything is built through the existing PegasusSystem / atm::Network
// factories; the result is an ordinary network that BuildStream() admission
// and the QosMonitor treat like any hand-wired one.
#ifndef PEGASUS_SRC_SCENARIO_TOPOLOGY_H_
#define PEGASUS_SRC_SCENARIO_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/system.h"
#include "src/sim/shard.h"

namespace pegasus::scenario {

struct TopologyParams {
  // Tier fan-out. Defaults make a small two-core metro; benches scale them
  // into the hundreds-of-switches regime.
  int core_switches = 2;
  int agg_per_core = 2;
  int edge_per_agg = 2;
  int hosts_per_edge = 4;
  int storage_per_core = 1;

  // Tier link rates, trunk propagation delays and the storage servers'
  // PfsConfig are fixed (constants of topology.cc).

  int num_cores() const { return core_switches; }
  int num_aggs() const { return core_switches * agg_per_core; }
  int num_edges() const { return num_aggs() * edge_per_agg; }
  int num_hosts() const { return num_edges() * hosts_per_edge; }
  int num_storage() const { return core_switches * storage_per_core; }
  // Region partitioning for sharded runs (src/sim/shard.h): one region per
  // core cluster (the core switch plus its storage servers) and one per
  // aggregation subtree (the agg switch, its edges and their workstations).
  // Regions map round-robin onto shards; every cross-region wire is a core
  // trunk, so the trunk propagation delay is the conservative lookahead.
  int num_regions() const { return num_cores() + num_aggs(); }
  // Fabric switches plus the per-workstation local switches (every
  // Workstation owns one).
  int num_switches() const { return num_cores() + num_aggs() + num_edges() + num_hosts(); }

  // Directed links the generated network must hold. Every switch-to-switch
  // connection and every endpoint attachment is a link pair:
  //   core mesh        C*(C-1)   (full mesh, C choose 2 pairs)
  //   core <-> agg     2*A
  //   agg  <-> edge    2*E
  //   edge <-> host switch and host switch <-> host NIC   4*H
  //   core <-> storage endpoint                           2*S
  // The PegasusSystem backbone switch exists but contributes no links.
  size_t expected_network_links() const {
    const size_t c = static_cast<size_t>(num_cores());
    return c * (c - 1) + 2 * static_cast<size_t>(num_aggs()) +
           2 * static_cast<size_t>(num_edges()) + 4 * static_cast<size_t>(num_hosts()) +
           2 * static_cast<size_t>(num_storage());
  }
};

// The generated fabric, in deterministic construction order: aggs are
// grouped by core (agg a belongs to core a / agg_per_core), edges by agg,
// hosts by edge, storage by core.
struct MetroTopology {
  TopologyParams params;
  std::vector<atm::Switch*> cores;
  std::vector<atm::Switch*> aggs;
  std::vector<atm::Switch*> edges;
  std::vector<core::Workstation*> hosts;
  std::vector<core::StorageNode*> storage;

  int edge_of_host(int host) const { return host / params.hosts_per_edge; }
  int agg_of_host(int host) const { return edge_of_host(host) / params.edge_per_agg; }
  int core_of_host(int host) const { return agg_of_host(host) / params.agg_per_core; }

  // Construction-time region of each element (see TopologyParams::num_regions).
  int region_of_core(int core) const { return core; }
  int region_of_agg(int agg) const { return params.core_switches + agg; }
  int region_of_edge(int edge) const { return region_of_agg(edge / params.edge_per_agg); }
};

// Steers sharded construction for any fabric, hand-built or generated: a
// region is a contiguous group of switches that must share a shard, and
// regions map round-robin onto the group's shards. EnterRegion directs the
// network's subsequent AddSwitch calls onto the owning shard; endpoints
// co-locate with their attachment switch and cross-region wires become
// boundary channels automatically (see atm::Network::EnableSharding). With
// a null group every call is a no-op, so one build function serves both
// sharded and classic runs.
class RegionPartitioner {
 public:
  RegionPartitioner(atm::Network* network, sim::ShardGroup* group)
      : network_(network), group_(group) {
    if (group_ != nullptr) {
      network_->EnableSharding(group_);
    }
  }
  ~RegionPartitioner() { network_->SetBuildShard(nullptr); }

  RegionPartitioner(const RegionPartitioner&) = delete;
  RegionPartitioner& operator=(const RegionPartitioner&) = delete;

  // The shard owning `region` (round-robin), or the control simulator when
  // running unsharded.
  sim::Simulator* shard_of(int region) const {
    return group_ == nullptr ? network_->simulator()
                             : group_->shard(region % group_->shard_count());
  }
  // Subsequent switches are built on `region`'s shard.
  void EnterRegion(int region) {
    if (group_ != nullptr) {
      network_->SetBuildShard(shard_of(region));
    }
  }

 private:
  atm::Network* network_;
  sim::ShardGroup* group_;
};

// Builds the hierarchy into `system`'s network. Call on a freshly
// constructed system: host/storage names are generated from tier indices.
MetroTopology BuildMetroTopology(core::PegasusSystem& system, const TopologyParams& params);

// As above, but partitions the fabric across `group`'s shards by region.
// The construction order — and
// so every switch/link id and BFS tie-break — is identical to the
// unsharded build; a null group degenerates to it exactly.
MetroTopology BuildMetroTopology(core::PegasusSystem& system, const TopologyParams& params,
                                 sim::ShardGroup* group);

}  // namespace pegasus::scenario

#endif  // PEGASUS_SRC_SCENARIO_TOPOLOGY_H_
