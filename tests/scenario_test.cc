// Metro-scale scenario engine: generated topology well-formedness,
// seed-reproducible churn, and blocking that grows with offered load.
#include <gtest/gtest.h>

#include "src/scenario/topology.h"
#include "src/scenario/workload.h"

namespace pegasus {
namespace {

scenario::TopologyParams SmallMetro() {
  scenario::TopologyParams params;
  params.core_switches = 2;
  params.agg_per_core = 2;
  params.edge_per_agg = 2;
  params.hosts_per_edge = 3;
  params.storage_per_core = 1;
  return params;
}

TEST(MetroTopologyTest, GeneratedFabricIsWellFormed) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::TopologyParams params = SmallMetro();
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, params);

  EXPECT_EQ(static_cast<int>(topo.cores.size()), params.num_cores());
  EXPECT_EQ(static_cast<int>(topo.aggs.size()), params.num_aggs());
  EXPECT_EQ(static_cast<int>(topo.edges.size()), params.num_edges());
  EXPECT_EQ(static_cast<int>(topo.hosts.size()), params.num_hosts());
  EXPECT_EQ(static_cast<int>(topo.storage.size()), params.num_storage());

  // Every ConnectSwitches / AddEndpoint call is a directed link pair; the
  // closed-form count must match what the network actually holds.
  EXPECT_EQ(system.network().links().size(), params.expected_network_links());

  // Every subscriber can reach every storage server, and the path crosses
  // at least the host uplink, the edge trunk and the storage attachment.
  for (core::Workstation* host : topo.hosts) {
    for (core::StorageNode* storage : topo.storage) {
      auto route = system.network().ResolveRoute(storage->endpoint(), host->host());
      ASSERT_TRUE(route.has_value());
      EXPECT_GE(route->links.size(), 4u);
    }
  }

  // Tier arithmetic: the last host hangs off the last edge, under the last
  // aggregation switch and core.
  const int last = params.num_hosts() - 1;
  EXPECT_EQ(topo.edge_of_host(last), params.num_edges() - 1);
  EXPECT_EQ(topo.agg_of_host(last), params.num_aggs() - 1);
  EXPECT_EQ(topo.core_of_host(last), params.num_cores() - 1);
}

scenario::FleetMetrics RunChurn(uint64_t seed, double arrivals_per_sec) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::TopologyParams tparams = SmallMetro();
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, tparams);

  scenario::WorkloadParams wparams;
  wparams.seed = seed;
  wparams.arrivals_per_sec = arrivals_per_sec;
  wparams.mean_holding_sec = 1.0;
  wparams.data_session_fraction = 0.2;
  wparams.enable_qos_monitor = true;
  scenario::ScenarioEngine engine(&system, &topo, wparams);
  return engine.Run(sim::Seconds(3));
}

TEST(ScenarioEngineTest, ChurnIsReproducibleFromSeed) {
  const scenario::FleetMetrics a = RunChurn(42, 30.0);
  const scenario::FleetMetrics b = RunChurn(42, 30.0);

  EXPECT_GT(a.arrivals, 0);
  EXPECT_GT(a.admitted, 0);
  EXPECT_GT(a.link_cells_sent, 0u);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.peak_concurrent, b.peak_concurrent);
  EXPECT_EQ(a.link_cells_sent, b.link_cells_sent);
  EXPECT_EQ(a.records_played, b.records_played);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  // A different seed drives a different sample path.
  const scenario::FleetMetrics c = RunChurn(43, 30.0);
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

TEST(ScenarioEngineTest, BlockingProbabilityMonotoneInArrivalRate) {
  // Same fabric and seed, rising offered load: admission must turn away a
  // non-decreasing fraction, and the heaviest load must actually block.
  const scenario::FleetMetrics low = RunChurn(7, 10.0);
  const scenario::FleetMetrics mid = RunChurn(7, 80.0);
  const scenario::FleetMetrics high = RunChurn(7, 400.0);

  EXPECT_LE(low.blocking_probability(), mid.blocking_probability());
  EXPECT_LE(mid.blocking_probability(), high.blocking_probability());
  EXPECT_GT(high.blocked, 0);
  EXPECT_GT(high.blocking_probability(), low.blocking_probability());
}

}  // namespace
}  // namespace pegasus
