// E16 — Metro-scale scenario engine: generated hierarchical fabrics under
// session churn (§2.3, §6).
//
// "It is our belief that this architecture can be made to scale to very
// large systems indeed" — the paper's closing claim is about fleets, not
// desks. This harness generates core/aggregation/edge hierarchies with
// capacity tapering toward the subscriber, drives them with Poisson session
// churn (phone calls, Zipf-popular video-on-demand play-outs, recorder
// streams), and measures what an operator would: admission latency,
// blocking probability by layer, adaptation convergence and sustained
// simulated cell throughput.
//
// Modes:
//   (default)        full sweep: topology scaling + arrival-rate scaling
//   smoke [secs]     CI-sized run (2 aggregation switches, ~100 hosts);
//                    exits non-zero if nothing was admitted
//   shards [secs]    region-sharded scaling: metro-large unsharded and at
//                    1/2/4/8 shards, a table of wall clock, windows, sync
//                    points, hand-offs and fingerprints (must be identical);
//                    exits non-zero on any fingerprint divergence
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"

using namespace pegasus;
using sim::Seconds;

namespace {

struct Point {
  std::string name;
  scenario::TopologyParams topo;
  double arrivals_per_sec = 0;
  int seconds = 6;
  double data_fraction = 0.05;
  scenario::FleetMetrics metrics;
  int switches = 0;
  int hosts = 0;
};

scenario::TopologyParams Metro(int cores, int aggs, int edges, int hosts) {
  scenario::TopologyParams p;
  p.core_switches = cores;
  p.agg_per_core = aggs;
  p.edge_per_agg = edges;
  p.hosts_per_edge = hosts;
  p.storage_per_core = 2;
  return p;
}

Point MakePoint(const std::string& name, scenario::TopologyParams topo, double arrivals_per_sec,
                int seconds, double data_fraction) {
  Point p;
  p.name = name;
  p.topo = topo;
  p.arrivals_per_sec = arrivals_per_sec;
  p.seconds = seconds;
  p.data_fraction = data_fraction;
  return p;
}

// `shards` == 0 runs the classic single-simulator engine; > 0 partitions
// the fabric by region across that many shards.
void RunPoint(Point* point, uint64_t seed, int shards = 0,
              sim::ShardGroup::Stats* stats_out = nullptr) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  std::unique_ptr<sim::ShardGroup> group;
  if (shards > 0) {
    group = std::make_unique<sim::ShardGroup>(&sim, sim::ShardGroup::Options{shards});
  }
  const scenario::MetroTopology topo =
      scenario::BuildMetroTopology(system, point->topo, group.get());
  point->switches = point->topo.num_switches();
  point->hosts = point->topo.num_hosts();

  scenario::WorkloadParams w;
  w.seed = seed;
  w.arrivals_per_sec = point->arrivals_per_sec;
  w.mean_holding_sec = 5.0;
  w.data_session_fraction = point->data_fraction;
  w.enable_qos_monitor = true;
  scenario::ScenarioEngine engine(&system, &topo, w);
  point->metrics = engine.Run(Seconds(point->seconds));
  if (stats_out != nullptr && group != nullptr) {
    *stats_out = group->stats();
  }
}

void AddRow(sim::Table* table, const Point& p) {
  const scenario::FleetMetrics& m = p.metrics;
  table->AddRow({p.name, sim::Table::Int(p.switches), sim::Table::Int(p.hosts),
                 sim::Table::Num(p.arrivals_per_sec, 0), sim::Table::Int(m.arrivals),
                 sim::Table::Int(m.admitted), sim::Table::Percent(m.blocking_probability()),
                 sim::Table::Int(m.peak_concurrent), sim::Table::Num(m.mean_admit_wall_us(), 1),
                 sim::Table::Num(m.mean_convergence_ms(), 0),
                 sim::Table::Num(m.cells_per_wall_second() / 1e6, 2)});
}

int RunSmoke(int seconds) {
  Point p = MakePoint("smoke", Metro(1, 2, 6, 8), 40.0, seconds, 0.3);
  p.topo.storage_per_core = 1;
  RunPoint(&p, 16);
  const scenario::FleetMetrics& m = p.metrics;
  std::printf("smoke: %d switches, %d hosts, %d s\n%s\n", p.switches, p.hosts, p.seconds,
              m.Summary().c_str());
  const bool ok = m.admitted > 0 && m.departed > 0 && m.link_cells_sent > 0 &&
                  m.records_played > 0;
  bench::PrintVerdict(ok, ok ? "metro smoke fleet admitted, moved cells and churned sessions"
                             : "metro smoke fleet admitted nothing");
  return ok ? 0 : 1;
}

// Region-sharded scaling on the metro-large fabric: the single-simulator
// reference, then 1/2/4/8 shards. Sharding must change wall clock only —
// every fingerprint must equal the reference's — and the window, sync-point
// and hand-off counts show what the partition costs.
int RunShardScaling(int seconds) {
  sim::Table table({"shards", "wall s", "windows", "sync points", "hand-offs", "fingerprint"});
  uint64_t reference = 0;
  bool identical = true;
  for (int shards : {0, 1, 2, 4, 8}) {
    Point p = MakePoint("metro-large", Metro(3, 3, 4, 30), 400.0, seconds, 0.02);
    sim::ShardGroup::Stats stats;
    RunPoint(&p, 16, shards, &stats);
    const uint64_t fingerprint = p.metrics.Fingerprint();
    if (shards == 0) {
      reference = fingerprint;
    }
    identical = identical && fingerprint == reference;
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%llx", static_cast<unsigned long long>(fingerprint));
    table.AddRow({shards == 0 ? "unsharded" : sim::Table::Int(shards),
                  sim::Table::Num(p.metrics.run_wall_seconds, 3),
                  sim::Table::Int(static_cast<long long>(stats.windows)),
                  sim::Table::Int(static_cast<long long>(stats.sync_points)),
                  sim::Table::Int(static_cast<long long>(stats.handoffs)), hex});
  }
  bench::PrintTable("metro-large, " + std::to_string(seconds) + " simulated s, seed 16", table);
  bench::PrintVerdict(identical, identical
                                     ? "fleet fingerprint identical unsharded and at 1/2/4/8 shards"
                                     : "fleet fingerprint diverges across shard counts");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) {
    const int seconds = argc > 2 ? std::max(2, std::atoi(argv[2])) : 3;
    return RunSmoke(seconds);
  }
  if (argc > 1 && std::strcmp(argv[1], "shards") == 0) {
    const int seconds = argc > 2 ? std::max(1, std::atoi(argv[2])) : 8;
    return RunShardScaling(seconds);
  }

  bench::PrintHeader(
      "E16", "metro-scale fabrics under session churn",
      "\"the system accommodates...millions of users\" — admission, blocking and "
      "adaptation must hold up on generated metropolitan hierarchies, not just a desk");

  // --- sweep 1: topology scaling at proportionate offered load ---
  std::vector<Point> scale;
  scale.push_back(MakePoint("metro-small", Metro(1, 2, 2, 8), 40.0, 6, 0.05));
  scale.push_back(MakePoint("metro-mid", Metro(2, 2, 3, 16), 120.0, 6, 0.02));
  scale.push_back(MakePoint("metro-large", Metro(3, 3, 4, 30), 400.0, 8, 0.02));
  for (auto& p : scale) {
    RunPoint(&p, 16);
  }
  sim::Table t1({"point", "switches", "hosts", "arr/s", "arrivals", "admitted", "blocking",
                 "peak", "admit us", "conv ms", "Mcell/s"});
  for (const auto& p : scale) {
    AddRow(&t1, p);
  }
  bench::PrintTable("topology scaling (Poisson churn, Zipf VOD, 5 s mean holding)", t1);

  // --- sweep 2: arrival-rate scaling on the mid fabric ---
  std::vector<Point> load;
  for (double rate : {60.0, 120.0, 240.0}) {
    load.push_back(
        MakePoint("mid@" + std::to_string(static_cast<int>(rate)), Metro(2, 2, 3, 16), rate, 6,
                  0.02));
  }
  for (auto& p : load) {
    RunPoint(&p, 16);
  }
  sim::Table t2({"point", "switches", "hosts", "arr/s", "arrivals", "admitted", "blocking",
                 "peak", "admit us", "conv ms", "Mcell/s"});
  for (const auto& p : load) {
    AddRow(&t2, p);
  }
  bench::PrintTable("arrival-rate scaling, fixed mid fabric", t2);

  // --- determinism spot-check: the small point replayed from its seed ---
  Point replay = MakePoint("metro-small", Metro(1, 2, 2, 8), 40.0, 6, 0.05);
  RunPoint(&replay, 16);
  const bool deterministic =
      replay.metrics.Fingerprint() == scale[0].metrics.Fingerprint();

  const scenario::FleetMetrics& big = scale.back().metrics;
  const bool fleet_scale = scale.back().switches >= 100 && big.peak_concurrent >= 1000;
  const bool monotone =
      load[0].metrics.blocking_probability() <= load[1].metrics.blocking_probability() &&
      load[1].metrics.blocking_probability() <= load[2].metrics.blocking_probability();
  const bool holds = fleet_scale && monotone && deterministic && big.admitted > 0 &&
                     big.blocked > 0 && big.link_cells_sent > 0;

  char text[256];
  std::snprintf(text, sizeof(text),
                "%d-switch fabric held %lld concurrent sessions (blocking %.1f%%, "
                "admission %.0f us mean), blocking monotone in load, seed-deterministic",
                scale.back().switches, static_cast<long long>(big.peak_concurrent),
                big.blocking_probability() * 100.0, big.mean_admit_wall_us());
  bench::PrintVerdict(holds, text);
  return holds ? 0 : 1;
}
