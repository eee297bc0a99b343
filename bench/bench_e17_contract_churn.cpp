// E17 — Contract-churn throughput of the admission plane (§2.2, §6).
//
// PR 6 measured the control plane becoming the hot path: at metro-large
// scale, mean admission wall latency reached ~1 ms per session because every
// open re-ran the pathfinder three times per leg and every congestion signal
// scanned all VCs. This harness measures the signalling plane the way an
// exchange would be specified: sustained open / renegotiate / close
// contract operations per second on generated metro fabrics — pure
// control-plane work against the route trees, the flat reservation ledger
// and the per-link VC index — alongside the scenario engine's end-to-end
// admission latency on the same fabrics. After every churn round the
// reservation ledger must drain to exactly zero on every link.
//
// Modes:
//   (default)        full sweep: churn ops/s on small/mid/large fabrics +
//                    scenario-engine admission latency on the large one
//   smoke [secs]     CI-sized run; exits non-zero if nothing churned or the
//                    ledger failed to drain
//
// Machine-readable admission-plane numbers come from the performance
// ledger's admission-churn workload (bench/ledger/README.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/stream.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"
#include "src/sim/random.h"

using namespace pegasus;
using sim::Seconds;

namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

scenario::TopologyParams Metro(int cores, int aggs, int edges, int hosts) {
  scenario::TopologyParams p;
  p.core_switches = cores;
  p.agg_per_core = aggs;
  p.edge_per_agg = edges;
  p.hosts_per_edge = hosts;
  p.storage_per_core = 2;
  return p;
}

// One fabric's churn measurement: rounds of (open K sessions, renegotiate
// each down, close all), wall-timed per phase.
struct ChurnPoint {
  std::string name;
  scenario::TopologyParams topo;
  int rounds = 3;
  int sessions_per_round = 0;  // 0 = one per host
  // results
  int switches = 0;
  int hosts = 0;
  int64_t opens = 0;
  int64_t open_rejects = 0;
  int64_t renegotiates = 0;
  int64_t closes = 0;
  double open_seconds = 0;
  double reneg_seconds = 0;
  double close_seconds = 0;
  bool drained = true;

  double opens_per_sec() const { return open_seconds > 0 ? opens / open_seconds : 0; }
  double renegs_per_sec() const { return reneg_seconds > 0 ? renegotiates / reneg_seconds : 0; }
  double closes_per_sec() const { return close_seconds > 0 ? closes / close_seconds : 0; }
};

void RunChurn(ChurnPoint* point, uint64_t seed) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, point->topo);
  point->switches = point->topo.num_switches();
  point->hosts = point->topo.num_hosts();
  const int num_hosts = static_cast<int>(topo.hosts.size());
  const int per_round =
      point->sessions_per_round > 0 ? point->sessions_per_round : num_hosts;
  const int64_t base_vcs = system.network().open_vc_count();

  sim::Rng rng(seed);
  std::vector<core::StreamSession*> open;
  open.reserve(static_cast<size_t>(per_round));
  for (int round = 0; round < point->rounds; ++round) {
    // --- open phase: phone-class contracts between random distinct hosts ---
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < per_round; ++k) {
      const int a = static_cast<int>(rng.UniformInt(0, num_hosts - 1));
      int b = static_cast<int>(rng.UniformInt(0, num_hosts - 2));
      if (b >= a) {
        ++b;
      }
      core::Workstation* src = topo.hosts[static_cast<size_t>(a)];
      core::Workstation* dst = topo.hosts[static_cast<size_t>(b)];
      core::StreamBuilder builder = system.BuildStream();
      builder.FromEndpoint(src, src->host()).ToEndpoint(dst, dst->host());
      auto r = builder.WithSpec(core::StreamSpec::Video(25.0, 2'000'000)).Open();
      if (r.report.ok()) {
        open.push_back(r.session);
      } else {
        ++point->open_rejects;
      }
    }
    point->opens += static_cast<int64_t>(open.size());
    point->open_seconds += SecondsSince(t0);

    // --- renegotiate phase: every session steps down to 60% ---
    t0 = std::chrono::steady_clock::now();
    for (core::StreamSession* s : open) {
      core::StreamSpec spec = s->contract().granted;
      spec.bandwidth_bps = spec.bandwidth_bps * 6 / 10;
      if (s->Renegotiate(spec).ok()) {
        ++point->renegotiates;
      }
    }
    point->reneg_seconds += SecondsSince(t0);

    // --- close phase: tear everything down ---
    t0 = std::chrono::steady_clock::now();
    for (core::StreamSession* s : open) {
      s->Close();
    }
    point->closes += static_cast<int64_t>(open.size());
    point->close_seconds += SecondsSince(t0);
    open.clear();

    // The books must drain to exactly zero after every round — the flat
    // ledger has no tolerance for leaks.
    if (system.network().open_vc_count() != base_vcs) {
      point->drained = false;
    }
    for (const auto& link : system.network().links()) {
      if (system.network().ReservedBps(link.get()) != 0) {
        point->drained = false;
        break;
      }
    }
  }
}

// Scenario-engine point (identical parameters to bench_e16) for end-to-end
// admission latency under real Poisson churn.
struct ScenarioPoint {
  std::string name;
  scenario::TopologyParams topo;
  double arrivals_per_sec = 0;
  int seconds = 6;
  double data_fraction = 0.05;
  scenario::FleetMetrics metrics;
  int switches = 0;
};

void RunScenario(ScenarioPoint* point, uint64_t seed) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, point->topo);
  point->switches = point->topo.num_switches();
  scenario::WorkloadParams w;
  w.seed = seed;
  w.arrivals_per_sec = point->arrivals_per_sec;
  w.mean_holding_sec = 5.0;
  w.data_session_fraction = point->data_fraction;
  w.enable_qos_monitor = true;
  scenario::ScenarioEngine engine(&system, &topo, w);
  point->metrics = engine.Run(Seconds(point->seconds));
}

void AddChurnRow(sim::Table* table, const ChurnPoint& p) {
  table->AddRow({p.name, sim::Table::Int(p.switches), sim::Table::Int(p.hosts),
                 sim::Table::Int(p.opens), sim::Table::Int(p.open_rejects),
                 sim::Table::Num(p.opens_per_sec() / 1e3, 1),
                 sim::Table::Num(p.renegs_per_sec() / 1e3, 1),
                 sim::Table::Num(p.closes_per_sec() / 1e3, 1),
                 std::string(p.drained ? "yes" : "NO")});
}

int RunSmoke(int seconds) {
  (void)seconds;  // same CLI shape as the other bench smokes
  ChurnPoint p;
  p.name = "smoke";
  p.topo = Metro(1, 2, 2, 8);
  p.topo.storage_per_core = 1;
  p.rounds = 2;
  RunChurn(&p, 17);
  std::printf("smoke: %d switches, %d hosts: %lld opens (%lld rejected), %lld renegotiations, "
              "%lld closes; ledger drained: %s\n",
              p.switches, p.hosts, static_cast<long long>(p.opens),
              static_cast<long long>(p.open_rejects), static_cast<long long>(p.renegotiates),
              static_cast<long long>(p.closes), p.drained ? "yes" : "NO");
  const bool ok = p.opens > 0 && p.renegotiates > 0 && p.closes == p.opens && p.drained;
  bench::PrintVerdict(
      ok, ok ? "contract churn opened, renegotiated and closed with the ledger drained to zero"
             : "contract churn failed to cycle contracts or leaked reservations");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) {
    const int seconds = argc > 2 ? std::max(2, std::atoi(argv[2])) : 3;
    return RunSmoke(seconds);
  }

  bench::PrintHeader(
      "E17", "contract-churn throughput of the admission plane",
      "at metro scale the control plane is a hot path too: open/renegotiate/close "
      "ops/s must hold up on thousand-switch fabrics, with the reservation ledger "
      "draining to zero after every churn round");

  // --- sweep 1: churn ops/s vs fabric size ---
  std::vector<ChurnPoint> churn(3);
  churn[0].name = "churn-small";
  churn[0].topo = Metro(1, 2, 2, 8);
  churn[1].name = "churn-mid";
  churn[1].topo = Metro(2, 2, 3, 16);
  churn[2].name = "churn-large";
  churn[2].topo = Metro(3, 3, 4, 30);
  for (auto& p : churn) {
    RunChurn(&p, 17);
  }
  sim::Table t1({"point", "switches", "hosts", "opens", "rejects", "open kop/s",
                 "reneg kop/s", "close kop/s", "drained"});
  for (const auto& p : churn) {
    AddChurnRow(&t1, p);
  }
  bench::PrintTable("contract churn (phone-class 2 Mb/s contracts, 60% renegotiation)", t1);

  // --- sweep 2: end-to-end admission latency, identical to E16's points ---
  std::vector<ScenarioPoint> scen(2);
  scen[0] = ScenarioPoint{"metro-mid", Metro(2, 2, 3, 16), 120.0, 6, 0.02, {}, 0};
  scen[1] = ScenarioPoint{"metro-large", Metro(3, 3, 4, 30), 400.0, 8, 0.02, {}, 0};
  for (auto& p : scen) {
    RunScenario(&p, 16);
  }
  sim::Table t2({"point", "switches", "arrivals", "admitted", "admit us", "admit max us"});
  for (const auto& p : scen) {
    const scenario::FleetMetrics& m = p.metrics;
    t2.AddRow({p.name, sim::Table::Int(p.switches), sim::Table::Int(m.arrivals),
               sim::Table::Int(m.admitted), sim::Table::Num(m.mean_admit_wall_us(), 1),
               sim::Table::Num(m.admit_wall_ns_max / 1e3, 1)});
  }
  bench::PrintTable("scenario-engine admission latency (Poisson churn, seed 16)", t2);

  const bool churned = churn[0].opens > 0 && churn[1].opens > 0 && churn[2].opens > 0 &&
                       churn[2].renegotiates > 0 && churn[2].closes == churn[2].opens;
  const bool drained = churn[0].drained && churn[1].drained && churn[2].drained;
  const bool admitted = scen[0].metrics.admitted > 0 && scen[1].metrics.admitted > 0;
  const bool holds = churned && drained && admitted;

  char text[256];
  std::snprintf(text, sizeof(text),
                "%lld contracts churned across three fabrics (largest %d switches) with the "
                "reservation ledger drained to zero after every round",
                static_cast<long long>(churn[0].opens + churn[1].opens + churn[2].opens),
                churn[2].switches);
  bench::PrintVerdict(holds, text);
  return holds ? 0 : 1;
}
