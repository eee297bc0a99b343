// Microbenchmarks of the hot paths (google-benchmark).
//
// These measure the *implementation's* wall-clock costs — useful when
// changing the codec, CRC, AAL5 or event-queue internals — as opposed to the
// E01..E15 harnesses, which measure simulated-time behaviour.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "src/atm/aal5.h"
#include "src/atm/crc32.h"
#include "src/atm/endpoint.h"
#include "src/atm/link.h"
#include "src/atm/network.h"
#include "src/atm/switch.h"
#include "src/core/system.h"
#include "src/devices/compression.h"
#include "src/devices/frame_source.h"
#include "src/naming/name_space.h"
#include "src/scenario/topology.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/shard.h"

using namespace pegasus;

namespace {

// Swallows delivered cells; only counts them so delivery cannot be elided.
class CountingSink : public atm::CellSink {
 public:
  void DeliverBurst(const atm::Cell* cells, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      ++count_;
      benchmark::DoNotOptimize(cells[i].seq);
    }
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// The per-cell data-plane hot path: bursts of back-to-back cells offered to
// one link, simulator drained between bursts. Before the cell-train data
// plane this cost 2 heap-allocated events per cell; with trains a whole
// burst rides O(1) events. range(0) is the burst size.
void BM_LinkCellHotPath(benchmark::State& state) {
  const int kBurst = static_cast<int>(state.range(0));
  sim::Simulator sim;
  atm::Link link(&sim, "l", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  CountingSink sink;
  link.set_sink(&sink);
  atm::Cell cell;
  cell.vci = 42;
  uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      cell.seq = seq++;
      link.SendCell(cell);
    }
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(seq), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinkCellHotPath)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// A full switch transit: ingress link -> VCI lookup + relabel -> fabric ->
// egress link -> sink. Exercises the whole forwarding path the way media
// traffic crosses a Fairisle port controller. range(0) is the burst size.
void BM_SwitchForward(benchmark::State& state) {
  const int kBurst = static_cast<int>(state.range(0));
  sim::Simulator sim;
  atm::Link ingress(&sim, "in", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  atm::Link egress(&sim, "out", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  atm::Switch sw(&sim, "sw", 4, sim::Microseconds(1));
  ingress.set_sink(sw.input(0));
  sw.AttachOutput(1, &egress);
  sw.AddRoute(0, 42, 1, 77);
  CountingSink sink;
  egress.set_sink(&sink);
  atm::Cell cell;
  cell.vci = 42;
  uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      cell.seq = seq++;
      ingress.SendCell(cell);
    }
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(seq), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchForward)->Arg(1)->Arg(64)->Arg(256);

// Signalling's VCI churn: one switch input port and one endpoint each hold
// range(0) VCIs. Each iteration releases a seeded random held VCI on both and
// allocates the lowest free one, as a close followed by an open does. Under
// lowest-free allocation the held set stays the first range(0) data VCIs,
// so every draw from that range is a held VCI. A calibration aid for the
// allocators; the ledger's admission-churn workload is the end-to-end view.
void BM_VciChurn(benchmark::State& state) {
  const auto held = static_cast<int64_t>(state.range(0));
  sim::Simulator sim;
  atm::Switch sw(&sim, "sw", 2);
  atm::Endpoint ep(&sim, "ep");
  for (int64_t i = 0; i < held; ++i) {
    sw.AddRoute(0, sw.AllocateVci(0), 1, atm::kVciFirstData);
    ep.AllocateIncomingVci();
  }
  sim::Rng rng(16);
  for (auto _ : state) {
    const atm::Vci gone = atm::kVciFirstData + static_cast<atm::Vci>(rng.UniformInt(0, held - 1));
    sw.RemoveRoute(0, gone);
    ep.ReleaseIncomingVci(gone);
    const atm::Vci vci = sw.AllocateVci(0);
    sw.AddRoute(0, vci, 1, atm::kVciFirstData);
    benchmark::DoNotOptimize(vci);
    benchmark::DoNotOptimize(ep.AllocateIncomingVci());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VciChurn)->Arg(64)->Arg(1024)->Arg(4096);

// Signalling's contract churn in the phone shape: a 2 Mb/s data VC plus an
// unreserved control duplex back, the three VCs a two-way call between
// hosts opens (§2.2), between seeded host pairs of a metro-large fabric.
// range(0) phones stay open throughout; each item closes the oldest phone
// and opens a new one (with none held, opens one and closes it). A closed
// VC's record is reused by the next open, so no item allocates once warm.
void BM_ContractOpenClose(benchmark::State& state) {
  const auto held = static_cast<size_t>(state.range(0));
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  scenario::TopologyParams metro_large;
  metro_large.core_switches = 3;
  metro_large.agg_per_core = 3;
  metro_large.edge_per_agg = 4;
  metro_large.hosts_per_edge = 30;
  metro_large.storage_per_core = 2;
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, metro_large);
  atm::Network& net = system.network();
  sim::Rng rng(16);
  const auto last_host = static_cast<int64_t>(topo.hosts.size()) - 1;
  struct Phone {
    atm::VcId data;
    atm::VcId control;
    atm::VcId back;
  };
  std::vector<Phone> live(held + 1);
  size_t next = 0;  // the free ring slot; the oldest phone sits just after it
  auto open = [&](Phone* phone) {
    const int64_t a = rng.UniformInt(0, last_host);
    const int64_t b = (a + rng.UniformInt(1, last_host)) % (last_host + 1);
    atm::Endpoint* src = topo.hosts[static_cast<size_t>(a)]->host();
    atm::Endpoint* dst = topo.hosts[static_cast<size_t>(b)]->host();
    const auto data = net.OpenVc(src, dst, atm::QosSpec{2'000'000});
    const auto control = net.OpenDuplex(dst, src);
    *phone = {data.has_value() ? data->id : -1, control.has_value() ? control->first.id : -1,
              control.has_value() ? control->second.id : -1};
  };
  auto close = [&](const Phone& phone) {
    net.CloseVc(phone.data);
    net.CloseVc(phone.control);
    net.CloseVc(phone.back);
  };
  for (size_t i = 0; i < held; ++i) {
    open(&live[i]);
  }
  next = held;
  for (auto _ : state) {
    open(&live[next]);
    benchmark::DoNotOptimize(live[next]);
    next = (next + 1) % live.size();
    close(live[next]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["open_vcs"] = static_cast<double>(net.open_vc_count());
}
BENCHMARK(BM_ContractOpenClose)->Arg(0)->Arg(2000);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  sim::Rng rng(1);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(48)->Arg(1024)->Arg(65536);

void BM_Aal5SegmentReassemble(benchmark::State& state) {
  std::vector<uint8_t> sdu(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    auto cells = atm::Aal5Segment(42, sdu);
    atm::Aal5Reassembler r;
    std::optional<std::vector<uint8_t>> out;
    for (const atm::Cell& c : cells) {
      out = r.Push(c);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Aal5SegmentReassemble)->Arg(48)->Arg(1024)->Arg(16384);

void BM_TileCompress(benchmark::State& state) {
  dev::FrameSource source(64, 64, 0.2);
  dev::Frame frame = source.Render(0);
  dev::Tile tile = frame.ExtractTile(16, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev::CompressTile(tile.data, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_TileCompress)->Arg(30)->Arg(60)->Arg(90);

void BM_TileRoundTrip(benchmark::State& state) {
  dev::FrameSource source(64, 64, 0.2);
  dev::Frame frame = source.Render(0);
  dev::Tile tile = frame.ExtractTile(16, 16);
  for (auto _ : state) {
    auto c = dev::CompressTile(tile.data, 60);
    benchmark::DoNotOptimize(dev::DecompressTile(c));
  }
}
BENCHMARK(BM_TileRoundTrip);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int64_t count = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.ScheduleAt(i * 10, [&count]() { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SimulatorEventChurn)->Arg(1000)->Arg(100000);

// What the metro fleet schedules: metro-fleet at seed 16, full length (55.1 M
// events), counted by delay with a probe in Simulator::ScheduleAt. Each delay
// with at least 0.5% of the events is kept exactly; the rest are grouped in
// factor-of-4 bands, each at its mean. Weights are parts per million. Seed
// 1016 reads the same to within 0.2 points per row.
//   - 99% are link serialisation (177 ns to 85 us), the 1 us fabric crossing
//     and propagation (1 us, 5 us, 500 us, 800 us).
//   - Nearly all the rest are pacer, frame, disk and flush timers and session
//     departures, of milliseconds to tens of seconds. They are 0.86% of the
//     events but, by Little's law (weight x delay), 95% of the pending set.
struct FleetDelay {
  sim::DurationNs delay;
  int64_t ppm;
};
constexpr FleetDelay kFleetDelays[] = {
    {0, 166}, {177, 26'824}, {354, 64'496}, {682, 70'360}, {712, 602},
    {1'000, 369'119}, {2'516, 5'091}, {2'736, 126'543}, {5'000, 158'646},
    {8'443, 21'717}, {32'637, 20'998}, {75'469, 11'610}, {84'816, 5'069},
    {500'000, 77'908}, {637'093, 73}, {800'000, 32'198}, {2'182'085, 166},
    {6'244'561, 1'101}, {6'784'000, 5'931}, {40'291'533, 1'144},
    {121'755'991, 21}, {653'299'151, 32}, {2'493'986'432, 83},
    {8'263'431'145, 83}, {26'859'481'242, 17},
};
constexpr int64_t kFleetPpm = [] {
  int64_t total = 0;
  for (const FleetDelay& d : kFleetDelays) {
    total += d.ppm;
  }
  return total;
}();

// The engine's hold model: range(0) events stay pending, and each one, when
// it runs, draws its successor's delay from kFleetDelays and schedules it, so
// every iteration is one pop and one push. The closure captures one pointer,
// like 98% of the closures metro-fleet schedules (a link or switch event
// captures only its link or switch). The queue starts in the mix's steady
// state: each first event's delay is drawn by weight x delay and it falls
// due uniformly within that delay. Draws are independent, so a link's FIFO
// order is not modelled. metro-fleet holds 1,750 events pending on average
// (p99 1,920, most 1,979); no workload comes near ten times that, so the
// model runs at 2,000 only.
struct HoldModel {
  sim::Simulator sim;
  sim::Rng rng{16};
  uint64_t fired = 0;

  sim::DurationNs DrawDelay() {
    int64_t x = rng.UniformInt(0, kFleetPpm - 1);
    for (const FleetDelay& d : kFleetDelays) {
      if ((x -= d.ppm) < 0) {
        return d.delay;
      }
    }
    return 0;
  }
  void Fill(int pending) {
    double pending_weight = 0;
    for (const FleetDelay& d : kFleetDelays) {
      pending_weight += static_cast<double>(d.ppm) * static_cast<double>(d.delay);
    }
    for (int i = 0; i < pending; ++i) {
      double x = rng.UniformDouble() * pending_weight;
      sim::DurationNs delay = 0;
      for (const FleetDelay& d : kFleetDelays) {
        delay = d.delay;
        if ((x -= static_cast<double>(d.ppm) * static_cast<double>(d.delay)) < 0) {
          break;
        }
      }
      Schedule(rng.UniformInt(0, delay));
    }
  }
  void Schedule(sim::DurationNs delay) {
    sim.ScheduleAfter(delay, [this]() {
      ++fired;
      Schedule(DrawDelay());
    });
  }
};

void BM_SimulatorHold(benchmark::State& state) {
  HoldModel model;
  model.Fill(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    model.sim.Step();
  }
  benchmark::DoNotOptimize(model.fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorHold)->Arg(2000);

void BM_NameResolution(benchmark::State& state) {
  sim::Simulator sim;
  naming::EchoObject obj;
  naming::NameSpace ns("bench");
  const int depth = static_cast<int>(state.range(0));
  std::string path;
  for (int i = 0; i < depth; ++i) {
    path += (i > 0 ? "/" : "");
    path += "d" + std::to_string(i);
  }
  ns.Bind(path, naming::ObjectHandle(naming::ObjectRef{1}, [&](naming::ObjectRef) {
            return std::make_shared<naming::LocalPath>(&sim, &obj);
          }));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns.ResolveLocal(path));
  }
}
BENCHMARK(BM_NameResolution)->Arg(1)->Arg(4)->Arg(16);

// A boundary delivery that does nothing: the ring benches measure the
// window, hand-off and merge machinery, not a receiver.
void IgnoreDelivery(void*, sim::TimeNs) {}

// The conservative-window machinery of the region-sharded engine: K shards
// in a boundary ring (5 us lookahead), each carrying a steady 1 MHz local
// event load that occasionally posts a delivery to its neighbour. Measures
// sharded event throughput as the shard count grows: the window/merge
// overhead curve.
void BM_ShardRingWindows(benchmark::State& state) {
  const int kShards = static_cast<int>(state.range(0));
  sim::Simulator control;
  sim::ShardGroup group(&control, {kShards});
  std::vector<sim::BoundaryChannel*> ring;
  if (kShards > 1) {
    for (int i = 0; i < kShards; ++i) {
      ring.push_back(group.RegisterBoundary(group.shard(i), group.shard((i + 1) % kShards),
                                            sim::Microseconds(5), &IgnoreDelivery, nullptr));
    }
  }
  uint64_t events = 0;
  struct Node {
    sim::Simulator* s;
    sim::BoundaryChannel* out;
    uint64_t* events;
    uint64_t n = 0;
    void Fire() {
      ++*events;
      if (out != nullptr && (++n & 7) == 0) {
        out->Post(s->now() + sim::Microseconds(5));
      }
      s->ScheduleAfter(sim::Microseconds(1), [this]() { Fire(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < kShards; ++i) {
    nodes.push_back(std::make_unique<Node>(
        Node{group.shard(i), ring.empty() ? nullptr : ring[static_cast<size_t>(i)], &events}));
    nodes.back()->s->ScheduleAt(1, [node = nodes.back().get()]() { node->Fire(); });
  }
  sim::TimeNs t = 0;
  for (auto _ : state) {
    t += sim::Milliseconds(1);
    group.RunUntil(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardRingWindows)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The same ring with ONE tight hop: the channel closing the ring has a 1 us
// lookahead, the rest keep 5 us. Under a global-min horizon every shard
// would crawl at the tight hop's pace; per-channel lookahead confines the
// narrow windows to the shard the tight channel feeds, so windows per
// simulated second stay near the symmetric ring's, not 5x it. The bench
// aborts — loudly — if the window rate regresses past the guard, so a
// lookahead regression fails the perf job instead of shifting a number
// nobody reads.
void BM_ShardRingWindowsAsym(benchmark::State& state) {
  const int kShards = static_cast<int>(state.range(0));
  sim::Simulator control;
  sim::ShardGroup group(&control, {kShards});
  std::vector<sim::BoundaryChannel*> ring;
  for (int i = 0; i < kShards; ++i) {
    const sim::DurationNs lookahead =
        i == kShards - 1 ? sim::Microseconds(1) : sim::Microseconds(5);
    ring.push_back(group.RegisterBoundary(group.shard(i), group.shard((i + 1) % kShards),
                                          lookahead, &IgnoreDelivery, nullptr));
  }
  uint64_t events = 0;
  struct Node {
    sim::Simulator* s;
    sim::BoundaryChannel* out;
    sim::DurationNs lookahead;
    uint64_t* events;
    uint64_t n = 0;
    void Fire() {
      ++*events;
      if ((++n & 7) == 0) {
        out->Post(s->now() + lookahead);
      }
      s->ScheduleAfter(sim::Microseconds(1), [this]() { Fire(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < kShards; ++i) {
    const sim::DurationNs lookahead =
        i == kShards - 1 ? sim::Microseconds(1) : sim::Microseconds(5);
    nodes.push_back(std::make_unique<Node>(
        Node{group.shard(i), ring[static_cast<size_t>(i)], lookahead, &events}));
    nodes.back()->s->ScheduleAt(1, [node = nodes.back().get()]() { node->Fire(); });
  }
  sim::TimeNs t = 0;
  for (auto _ : state) {
    t += sim::Milliseconds(1);
    group.RunUntil(t);
  }
  const double sim_seconds = static_cast<double>(t) / 1e9;
  const double windows_per_sim_sec =
      static_cast<double>(group.stats().windows) / sim_seconds;
  // Per-channel lookahead keeps the asymmetric ring near one window per
  // MEAN lookahead step (measured 3.3e5/s at 2 shards down to 2.2e5/s at
  // 8). One window per tight-hop step — the global-min behaviour — is
  // ~1e6/s; fail the run before anyone mistakes that for a benchmark
  // number.
  if (kShards > 1 && windows_per_sim_sec > 600e3) {
    std::fprintf(stderr,
                 "FATAL: BM_ShardRingWindowsAsym/%d: %.0f windows per simulated second "
                 "(guard 600e3) — per-channel lookahead has regressed toward the "
                 "global-min horizon\n",
                 kShards, windows_per_sim_sec);
    std::abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["windows/simsec"] = benchmark::Counter(windows_per_sim_sec);
}
BENCHMARK(BM_ShardRingWindowsAsym)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
