// E18 — Broadcast fan-out over point-to-multipoint VC trees (§2.2, §6).
//
// The millions-of-users story is one source feeding thousands of sinks:
// live TV, hot VOD titles. Per-viewer unicast costs O(viewers × path) cells
// and O(viewers) reservations on the head-end's uplink; a point-to-
// multipoint VC tree costs O(tree edges) cells — each edge carries the
// train exactly once, switches replicate only where the tree branches — and
// ONE stream's reservation on every shared trunk no matter how many viewers
// hang off it. Viewers collapse at the access link: the first viewer behind
// a host grafts the host's leaf, later viewers behind the same host ride it
// for free (the broadcast analogue of IGMP join suppression).
//
// This harness opens one broadcast channel on a generated metro fabric,
// sweeps the audience from tens to ten thousand viewers, pumps frames for a
// fixed stretch of simulated time, and compares measured cell-hops against
// the per-viewer unicast baseline (each viewer's resolved path length times
// the cells one delivery takes — what AtmCamera::AddOutput-style source
// re-sending would put on the wire). After every point the tree closes and
// the reservation ledger must drain to zero.
//
// Modes:
//   (default)        full viewer sweep 10 -> 10k on metro-mid + verdict
//   smoke [secs]     CI-sized run on metro-small; exits non-zero if the
//                    tree under-delivers, over-reserves or leaks
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/atm/link.h"
#include "src/core/stream.h"
#include "src/scenario/topology.h"

using namespace pegasus;

namespace {

constexpr sim::DurationNs kFrameInterval = sim::Milliseconds(40);
constexpr int64_t kChannelBps = 3'000'000;

scenario::TopologyParams Metro(int cores, int aggs, int edges, int hosts) {
  scenario::TopologyParams p;
  p.core_switches = cores;
  p.agg_per_core = aggs;
  p.edge_per_agg = edges;
  p.hosts_per_edge = hosts;
  p.storage_per_core = 1;
  return p;
}

// One audience size on one fabric: open the tree, graft every distinct
// viewer host, pump frames, measure.
struct SweepPoint {
  std::string name;
  scenario::TopologyParams topo;
  int viewers = 0;
  int seconds = 1;
  // results
  int leaf_hosts = 0;       // distinct access links the audience collapses to
  int tree_edges = 0;       // links the tree actually reserves and carries
  int frames = 0;
  uint64_t mcast_cells = 0;     // measured: cell-hops the tree put on links
  uint64_t unicast_cells = 0;   // baseline: sum over viewers of path x train
  double mean_path_links = 0;   // per-viewer unicast path length
  int64_t trunk_reserved_bps = 0;  // on the head-end's uplink, audience-wide
  int64_t granted_bps = 0;
  bool edges_single_reserved = true;  // every tree edge carries ONE stream
  bool drained = true;

  double ratio() const {
    return mcast_cells > 0 ? static_cast<double>(unicast_cells) / static_cast<double>(mcast_cells)
                           : 0.0;
  }
  // Cells the fabric moves per frame actually delivered to a viewer.
  double mcast_cells_per_delivered_frame() const {
    const double delivered = static_cast<double>(frames) * static_cast<double>(viewers);
    return delivered > 0 ? static_cast<double>(mcast_cells) / delivered : 0.0;
  }
  double unicast_cells_per_delivered_frame() const {
    const double delivered = static_cast<double>(frames) * static_cast<double>(viewers);
    return delivered > 0 ? static_cast<double>(unicast_cells) / delivered : 0.0;
  }
};

void RunPoint(SweepPoint* p) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, p->topo);
  atm::Network& network = system.network();
  const int num_hosts = static_cast<int>(topo.hosts.size());

  // Audience layout: head-end on host 0, viewers dealt round-robin over the
  // remaining hosts — the worst case for the tree (it must reach the
  // largest possible number of distinct access links).
  core::Workstation* head = topo.hosts[0];
  std::vector<int> viewers_on_host(static_cast<size_t>(num_hosts), 0);
  for (int v = 0; v < p->viewers; ++v) {
    ++viewers_on_host[static_cast<size_t>(1 + v % (num_hosts - 1))];
  }

  // Open the tree with the first leaf, then graft the other distinct hosts.
  core::MulticastSink first;
  first.ws = topo.hosts[1];
  first.endpoint = topo.hosts[1]->host();
  auto r = system.BuildStream("e18/channel")
               .FromEndpoint(head, head->host())
               .ToMany({first})
               .WithSpec(core::StreamSpec::Video(25.0, kChannelBps))
               .Open();
  if (!r.report.ok()) {
    std::fprintf(stderr, "e18: channel open failed: %s\n",
                 core::AdmitFailureName(r.report.failure));
    return;
  }
  core::StreamSession* session = r.session;
  for (int h = 2; h < num_hosts; ++h) {
    if (viewers_on_host[static_cast<size_t>(h)] == 0) {
      continue;
    }
    core::MulticastSink sink;
    sink.ws = topo.hosts[static_cast<size_t>(h)];
    sink.endpoint = topo.hosts[static_cast<size_t>(h)]->host();
    if (!session->AddSink(sink).ok()) {
      std::fprintf(stderr, "e18: graft to host %d refused\n", h);
      session->Close();
      return;
    }
  }
  p->leaf_hosts = session->sink_count();
  p->granted_bps = session->legs().front().granted_bps;

  // The reservation story: every edge of the tree — the head-end's uplink
  // above all, shared by the entire audience — carries exactly ONE stream's
  // bandwidth.
  const std::vector<atm::Link*>* tree_links = network.VcLinks(session->legs().front().vc);
  p->tree_edges = tree_links != nullptr ? static_cast<int>(tree_links->size()) : 0;
  if (tree_links != nullptr) {
    for (atm::Link* link : *tree_links) {
      if (network.ReservedBps(link) != p->granted_bps) {
        p->edges_single_reserved = false;
      }
    }
    p->trunk_reserved_bps = network.ReservedBps(tree_links->front());
  }

  // Per-viewer unicast baseline: each viewer's resolved path length. The
  // head would put the whole train on every link of every viewer's path.
  double path_links_total = 0;
  for (int h = 1; h < num_hosts; ++h) {
    if (viewers_on_host[static_cast<size_t>(h)] == 0) {
      continue;
    }
    const auto route = network.ResolveRoute(head->host(), topo.hosts[static_cast<size_t>(h)]->host());
    path_links_total += route.has_value()
                            ? static_cast<double>(route->links.size()) *
                                  viewers_on_host[static_cast<size_t>(h)]
                            : 0.0;
  }
  p->mean_path_links = p->viewers > 0 ? path_links_total / p->viewers : 0.0;

  // Pump frames at the channel cadence and measure cell-hops across every
  // link in the fabric.
  uint64_t cells0 = 0;
  for (const auto& link : network.links()) {
    cells0 += link->cells_sent();
  }
  const uint64_t trunk0 =
      tree_links != nullptr ? tree_links->front()->cells_sent() : 0;

  const int target_frames = p->seconds * 25;
  const size_t bytes = static_cast<size_t>(kChannelBps / 8 / 25);
  std::vector<uint8_t> payload(bytes, 0xe1);
  const atm::Vci vci = session->source_vci();
  std::function<void()> pump = [&]() {
    if (p->frames >= target_frames) {
      return;
    }
    ++p->frames;
    head->host_transport()->Send(vci, payload, kChannelBps);
    sim.ScheduleAfter(kFrameInterval, pump);
  };
  pump();
  sim.RunUntil(sim.now() + sim::Seconds(p->seconds) + sim::Milliseconds(100));

  uint64_t cells1 = 0;
  for (const auto& link : network.links()) {
    cells1 += link->cells_sent();
  }
  p->mcast_cells = cells1 - cells0;
  // One delivery's train, measured on the trunk (it carries the stream
  // exactly once), scaled by every viewer's path length.
  const uint64_t train_cells =
      tree_links != nullptr ? tree_links->front()->cells_sent() - trunk0 : 0;
  p->unicast_cells = static_cast<uint64_t>(path_links_total * static_cast<double>(train_cells));

  session->Close();
  for (const auto& link : network.links()) {
    if (network.ReservedBps(link.get()) != 0) {
      p->drained = false;
      break;
    }
  }
}

void AddRow(sim::Table* table, const SweepPoint& p) {
  table->AddRow({sim::Table::Int(p.viewers), sim::Table::Int(p.leaf_hosts),
                 sim::Table::Int(p.tree_edges), sim::Table::Int(static_cast<int64_t>(p.mcast_cells)),
                 sim::Table::Int(static_cast<int64_t>(p.unicast_cells)),
                 sim::Table::Num(p.ratio(), 1),
                 sim::Table::Num(p.mcast_cells_per_delivered_frame(), 2),
                 sim::Table::Num(p.unicast_cells_per_delivered_frame(), 1),
                 sim::Table::Num(static_cast<double>(p.trunk_reserved_bps) / 1e6, 1)});
}

std::vector<SweepPoint> MidSweep(int seconds) {
  std::vector<SweepPoint> sweep;
  for (int viewers : {10, 100, 1000, 10000}) {
    SweepPoint p;
    p.name = "metro-mid/" + std::to_string(viewers);
    p.topo = Metro(2, 2, 3, 16);
    p.viewers = viewers;
    p.seconds = seconds;
    sweep.push_back(p);
  }
  return sweep;
}

bool Acceptance(const std::vector<SweepPoint>& sweep, double* ratio_at_1k) {
  bool ok = !sweep.empty();
  *ratio_at_1k = 0;
  for (const SweepPoint& p : sweep) {
    ok = ok && p.frames > 0 && p.mcast_cells > 0 && p.edges_single_reserved &&
         p.trunk_reserved_bps == p.granted_bps && p.drained;
    if (p.viewers == 1000) {
      *ratio_at_1k = p.ratio();
    }
  }
  return ok && *ratio_at_1k >= 10.0;
}

int RunSmoke(int seconds) {
  SweepPoint p;
  p.name = "smoke";
  p.topo = Metro(1, 2, 2, 8);
  p.viewers = 100;
  p.seconds = std::max(1, seconds / 2);
  RunPoint(&p);
  std::printf("smoke: %d viewers on %d access links, tree %d edges: %llu cell-hops vs "
              "%llu unicast baseline (%.1fx), trunk reserved %.1f Mb/s, drained: %s\n",
              p.viewers, p.leaf_hosts, p.tree_edges,
              static_cast<unsigned long long>(p.mcast_cells),
              static_cast<unsigned long long>(p.unicast_cells), p.ratio(),
              static_cast<double>(p.trunk_reserved_bps) / 1e6, p.drained ? "yes" : "NO");
  const bool ok = p.frames > 0 && p.mcast_cells > 0 && p.ratio() >= 5.0 &&
                  p.edges_single_reserved && p.trunk_reserved_bps == p.granted_bps && p.drained;
  bench::PrintVerdict(ok,
                      ok ? "one tree fed the whole audience with one stream's reservation "
                           "per edge and the ledger drained to zero"
                         : "broadcast tree under-delivered, over-reserved or leaked");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) {
    const int seconds = argc > 2 ? std::max(2, std::atoi(argv[2])) : 2;
    return RunSmoke(seconds);
  }

  bench::PrintHeader(
      "E18", "broadcast fan-out over point-to-multipoint VC trees",
      "one source, ten thousand viewers: cells must scale with the delivery tree's "
      "edges, not the audience, and every shared trunk must carry exactly one "
      "stream's reservation no matter how many viewers sit behind it");

  std::vector<SweepPoint> sweep = MidSweep(2);
  for (auto& p : sweep) {
    RunPoint(&p);
  }
  sim::Table t({"viewers", "leaf hosts", "tree edges", "mcast cells", "unicast cells", "ratio",
                "mc/frame", "uc/frame", "trunk Mb/s"});
  for (const auto& p : sweep) {
    AddRow(&t, p);
  }
  bench::PrintTable("viewer sweep on metro-mid (one 3 Mb/s channel, 2 s of frames)", t);

  double ratio_at_1k = 0;
  const bool holds = Acceptance(sweep, &ratio_at_1k);
  char text[256];
  std::snprintf(text, sizeof(text),
                "at 1k viewers the tree moved %.1fx fewer cells than per-viewer unicast, with "
                "one stream's bandwidth reserved per tree edge at every audience size",
                ratio_at_1k);
  bench::PrintVerdict(holds, text);
  return holds ? 0 : 1;
}
