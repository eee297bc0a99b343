#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

#include "src/core/system.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"
#include "src/sim/random.h"
#include "src/sim/shard.h"

namespace pegasus::ledger {

namespace {

constexpr sim::DurationNs kInterval = sim::Milliseconds(100);
// Set-up is repeated and its median reported (see SetUp).
constexpr size_t kSetupReps = 16;
// Quick mode runs every workload at 1/20 of its length.
constexpr int kQuickDivisor = 20;

int Scaled(int full, const RunOptions& o) {
  return std::max(1, o.quick ? full / kQuickDivisor : full);
}

// FNV-1a, folded byte-wise like FleetMetrics::Fingerprint.
constexpr uint64_t kFnvBasis = 14695981039346656037ull;
void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xffu;
    *h *= 1099511628211ull;
  }
}
uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ops_per_s is measured over this many equal segments of the measured
// window, about 33 host ms each, and reports the 90th percentile: the rate
// the code sustains while the host leaves it alone. Other tenants of the
// host slow its CPUs, each by up to 2x, in phases of seconds to minutes;
// on the sharded fleet that spread the median segment 13% over ten runs
// and the 90th percentile 6%.
int Segments(const RunOptions& o) { return o.quick ? 1 : 30 * o.seconds; }
constexpr double kRateQuantile = 0.9;

// --- what a run's layer counters are summed over ---

struct Elements {
  core::PegasusSystem* system = nullptr;
  sim::ShardGroup* group = nullptr;
  std::vector<atm::Switch*> switches;
  std::vector<atm::Endpoint*> endpoints;
  std::vector<atm::MessageTransport*> transports;
  std::vector<core::StorageNode*> storage;
};

Elements MetroElements(core::PegasusSystem* system, const scenario::MetroTopology& topo,
                       sim::ShardGroup* group) {
  Elements e;
  e.system = system;
  e.group = group;
  e.switches.push_back(system->backbone());
  for (const auto* tier : {&topo.cores, &topo.aggs, &topo.edges}) {
    e.switches.insert(e.switches.end(), tier->begin(), tier->end());
  }
  for (core::Workstation* ws : topo.hosts) {
    e.switches.push_back(ws->local_switch());
    e.endpoints.push_back(ws->host());
    e.transports.push_back(ws->host_transport());
  }
  for (core::StorageNode* node : topo.storage) {
    e.endpoints.push_back(node->endpoint());
    e.transports.push_back(node->transport());
    e.storage.push_back(node);
  }
  return e;
}

// Cumulative counters of every layer at one instant (plus two gauges).
struct Counters {
  int64_t wall_ns = 0;
  uint64_t events = 0;
  uint64_t pending = 0;  // gauge
  sim::ShardGroup::Stats shard;
  uint64_t cells_sent = 0;
  uint64_t cells_dropped = 0;
  uint64_t cells_switched = 0;
  uint64_t cells_unroutable = 0;
  uint64_t cells_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t reassembly_errors = 0;
  int64_t monitor_ticks = 0;
  int64_t congestion_signals = 0;
  int64_t recoveries = 0;
  int64_t pressure_signals = 0;
  int64_t records_played = 0;
  int64_t records_recorded = 0;
  int64_t rejections_bandwidth = 0;
  int64_t rejections_no_path = 0;
  int64_t open_vcs = 0;  // gauge
};

Counters Take(const Elements& e) {
  Counters c;
  c.wall_ns = WallNs();
  c.events = e.system->simulator()->executed();
  c.pending = e.system->simulator()->pending();
  if (e.group != nullptr) {
    for (int i = 0; i < e.group->shard_count(); ++i) {
      c.events += e.group->shard(i)->executed();
      c.pending += e.group->shard(i)->pending();
    }
    c.shard = e.group->stats();
  }
  atm::Network& net = e.system->network();
  for (const auto& link : net.links()) {
    c.cells_sent += link->cells_sent();
    c.cells_dropped += link->cells_dropped();
  }
  for (const atm::Switch* sw : e.switches) {
    c.cells_switched += sw->cells_switched();
    c.cells_unroutable += sw->cells_unroutable();
  }
  for (const atm::Endpoint* ep : e.endpoints) {
    c.cells_received += ep->cells_received();
  }
  for (const atm::MessageTransport* t : e.transports) {
    c.messages_sent += t->messages_sent();
    c.messages_received += t->messages_received();
    c.reassembly_errors += t->reassembly_errors();
  }
  if (const core::QosMonitor* m = e.system->qos_monitor(); m != nullptr) {
    c.monitor_ticks = m->ticks();
    c.congestion_signals = m->congestion_signals();
    c.recoveries = m->congestion_recoveries() + m->pressure_recoveries();
    c.pressure_signals = m->pressure_signals();
  }
  for (const core::StorageNode* node : e.storage) {
    c.records_played += node->records_played();
    c.records_recorded += node->records_recorded();
  }
  c.rejections_bandwidth = net.admission_rejections_bandwidth();
  c.rejections_no_path = net.admission_rejections_no_path();
  c.open_vcs = net.open_vc_count();
  return c;
}

// --- the measured window ---

// Cell-hops: cells sent on any link of the system so far.
uint64_t CellHops(core::PegasusSystem* system) {
  uint64_t sent = 0;
  for (const auto& link : system->network().links()) {
    sent += link->cells_sent();
  }
  return sent;
}

// A run is a warm-up of `warm` 100 sim-ms intervals followed by `measured`
// intervals, cut into `segments` equal segments for ops_per_s; the result
// is the measured intervals' wall time and counter deltas. Boundary(k) runs
// at the end of interval k (1-based), either from a marker event the
// benchmark scheduled on the control simulator or after a RunUntil step.
// It only reads the model. Markers share their timestamp with the engine's
// metrics tick, so under sharding they add no sync point.
//
// `ops` returns the workload's cumulative count of model operations, the
// unit ops_per_s counts: cell-hops where cells move, contract ops in
// admission-churn.
class Window {
 public:
  Window(Trace* trace, const Elements* elements, int warm, int measured, int segments,
         const char* interval_span, std::function<uint64_t()> ops)
      : trace_(trace),
        elements_(elements),
        warm_(warm),
        total_(warm + measured),
        per_segment_(measured / segments),
        interval_name_(interval_span),
        ops_(std::move(ops)) {}

  int warm() const { return warm_; }
  int total() const { return total_; }
  bool complete() const { return done_; }
  // The open interval span (-1 when tracing is off): parent for spans the
  // workload records inside an interval.
  int current_span() const { return interval_span_; }

  void Start() {
    phase_span_ = trace_->Open("run.warmup");
    interval_span_ = trace_->Open(interval_name_, phase_span_);
    start_wall_ = last_wall_ = WallNs();
  }

  void Boundary(int k) {
    const int64_t now = WallNs();
    trace_->Close(interval_span_);
    interval_span_ = -1;
    if (k > warm_) {
      intervals_ms_.Add(static_cast<double>(now - last_wall_) / 1e6);
    }
    if (k >= warm_) {
      boundary_walls_.push_back(now);
      boundary_ops_.push_back(ops_());
    }
    last_wall_ = now;
    if (k == warm_) {
      warm_wall_ = now;
      start_ = Take(*elements_);
      trace_->Close(phase_span_);
      phase_span_ = trace_->Open("run.measure");
    }
    if (k >= warm_) {
      SamplePeaks();
    }
    if (k == total_) {
      end_ = Take(*elements_);
      end_.wall_ns = now;
      start_.wall_ns = warm_wall_;
      trace_->Close(phase_span_);
      done_ = true;
      return;
    }
    interval_span_ = trace_->Open(interval_name_, phase_span_);
  }

  // Model operations per host second in each segment.
  sim::Summary OpsRates() const {
    const size_t per = static_cast<size_t>(per_segment_);
    sim::Summary rates;
    for (size_t a = 0; a + per < boundary_walls_.size(); a += per) {
      const double wall_s =
          static_cast<double>(boundary_walls_[a + per] - boundary_walls_[a]) / 1e9;
      rates.Add(static_cast<double>(boundary_ops_[a + per] - boundary_ops_[a]) / wall_s);
    }
    return rates;
  }
  double sim_s() const { return static_cast<double>((total_ - warm_) * kInterval) / 1e9; }
  // WallNs() at the start of the measured window.
  int64_t measure_start_ns() const { return warm_wall_; }
  double warmup_s() const { return static_cast<double>(warm_wall_ - start_wall_) / 1e9; }
  double measured_s() const { return static_cast<double>(end_.wall_ns - start_.wall_ns) / 1e9; }
  const Counters& start() const { return start_; }
  const Counters& end() const { return end_; }
  const sim::Summary& intervals_ms() const { return intervals_ms_; }
  uint64_t pending_peak() const { return pending_peak_; }
  uint64_t queue_peak() const { return queue_peak_; }
  int64_t open_vcs_peak() const { return open_vcs_peak_; }

 private:
  void SamplePeaks() {
    uint64_t pending = elements_->system->simulator()->pending();
    if (elements_->group != nullptr) {
      for (int i = 0; i < elements_->group->shard_count(); ++i) {
        pending += elements_->group->shard(i)->pending();
      }
    }
    uint64_t queue = 0;
    for (const auto& link : elements_->system->network().links()) {
      queue = std::max<uint64_t>(queue, link->queued_cells());
    }
    const int64_t vcs = elements_->system->network().open_vc_count();
    pending_peak_ = std::max(pending_peak_, pending);
    queue_peak_ = std::max(queue_peak_, queue);
    open_vcs_peak_ = std::max(open_vcs_peak_, vcs);
    trace_->Sample("sim.pending", static_cast<double>(pending));
    trace_->Sample("link.queue_max", static_cast<double>(queue));
    trace_->Sample("net.open_vcs", static_cast<double>(vcs));
  }

  Trace* trace_;
  const Elements* elements_;
  int warm_;
  int total_;
  int per_segment_;
  const char* interval_name_;
  std::function<uint64_t()> ops_;
  int phase_span_ = -1;
  int interval_span_ = -1;
  int64_t start_wall_ = 0;
  int64_t warm_wall_ = 0;
  int64_t last_wall_ = 0;
  bool done_ = false;
  Counters start_;
  Counters end_;
  // Wall clock and ops at the measured-window boundaries, warm-up end first.
  std::vector<int64_t> boundary_walls_;
  std::vector<uint64_t> boundary_ops_;
  sim::Summary intervals_ms_;
  uint64_t pending_peak_ = 0;
  uint64_t queue_peak_ = 0;
  int64_t open_vcs_peak_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The rates and per-layer metrics every workload reports from its window.
void EmitWindow(const Window& w, Report* r) {
  const sim::Summary ops_rates = w.OpsRates();
  r->Metric("ops_per_s", ops_rates.Quantile(kRateQuantile), "1/s");
  r->Metric("sim_rate", w.sim_s() / w.measured_s(), "s/s");
  r->detail.Nums("ops_rates", ops_rates.samples());
  const Counters& a = w.start();
  const Counters& b = w.end();
  const double events = static_cast<double>(b.events - a.events);
  const double sent = static_cast<double>(b.cells_sent - a.cells_sent);
  const double dropped = static_cast<double>(b.cells_dropped - a.cells_dropped);
  const double handoffs = static_cast<double>(b.shard.handoffs - a.shard.handoffs);
  const double messages = static_cast<double>(b.shard.messages - a.shard.messages);

  r->Metric("sim.events", events, "count");
  r->Metric("sim.host_ns_per_event", Ratio(w.measured_s() * 1e9, events), "ns");
  r->Metric("sim.pending_peak", static_cast<double>(w.pending_peak()), "count");
  r->Metric("shard.windows", static_cast<double>(b.shard.windows - a.shard.windows), "count");
  r->Metric("shard.sync_points", static_cast<double>(b.shard.sync_points - a.shard.sync_points),
            "count");
  r->Metric("shard.handoffs", handoffs, "count");
  r->Metric("shard.messages", messages, "count");
  r->Metric("shard.merges", static_cast<double>(b.shard.merges - a.shard.merges), "count");
  r->Metric("shard.msgs_per_handoff", Ratio(messages, handoffs), "ratio");
  r->Metric("link.cells_sent", sent, "count");
  r->Metric("link.cells_dropped", dropped, "count");
  r->Metric("link.drop_frac", Ratio(dropped, sent + dropped), "ratio");
  r->Metric("link.cells_per_event", Ratio(sent, events), "ratio");
  r->Metric("link.queue_peak", static_cast<double>(w.queue_peak()), "count");
  r->Metric("switch.cells_switched", static_cast<double>(b.cells_switched - a.cells_switched),
            "count");
  r->Metric("switch.cells_unroutable",
            static_cast<double>(b.cells_unroutable - a.cells_unroutable), "count");
  r->Metric("endpoint.cells_received", static_cast<double>(b.cells_received - a.cells_received),
            "count");
  r->Metric("transport.messages_sent", static_cast<double>(b.messages_sent - a.messages_sent),
            "count");
  r->Metric("transport.messages_received",
            static_cast<double>(b.messages_received - a.messages_received), "count");
  r->Metric("transport.reassembly_errors",
            static_cast<double>(b.reassembly_errors - a.reassembly_errors), "count");
  r->Metric("monitor.ticks", static_cast<double>(b.monitor_ticks - a.monitor_ticks), "count");
  r->Metric("monitor.congestion_signals",
            static_cast<double>(b.congestion_signals - a.congestion_signals), "count");
  r->Metric("monitor.recoveries", static_cast<double>(b.recoveries - a.recoveries), "count");
  r->Metric("monitor.pressure_signals",
            static_cast<double>(b.pressure_signals - a.pressure_signals), "count");
  r->Metric("storage.records_played", static_cast<double>(b.records_played - a.records_played),
            "count");
  r->Metric("storage.records_recorded",
            static_cast<double>(b.records_recorded - a.records_recorded), "count");
  r->Metric("net.open_vcs_peak", static_cast<double>(w.open_vcs_peak()), "count");
  r->Metric("net.rejections_bandwidth",
            static_cast<double>(b.rejections_bandwidth - a.rejections_bandwidth), "count");
  r->Metric("net.rejections_no_path",
            static_cast<double>(b.rejections_no_path - a.rejections_no_path), "count");
  r->Metric("run.warmup_s", w.warmup_s(), "s");
  r->Metric("run.interval_ms_p50", w.intervals_ms().Quantile(0.5), "ms");
  r->Metric("run.interval_ms_p95", w.intervals_ms().Quantile(0.95), "ms");
  r->detail.Num("sim_s", w.sim_s())
      .Num("measured_s", w.measured_s())
      .Int("intervals", w.intervals_ms().count());
}

// Times kSetupReps calls of `build(int64_t* fabric_done)`, which builds a
// workload's model and stamps WallNs() into *fabric_done once the fabric
// stands, and reports the medians as setup_s, setup.fabric_s and
// setup.catalog_s. Rep i runs on the i-th CPU this process may use, round
// robin, so that setup_s reads every CPU of the host, not the one the
// scheduler happened to pick: neighbours slow single CPUs by up to 2x, and
// the rotation halved setup_s's spread over ten runs. Returns one more
// build, made after the CPU mask is restored, for the run itself (a
// ShardGroup's workers inherit the mask of the thread that starts them).
template <typename Build>
auto SetUp(Build build, const char* state_span, Trace* trace, Report* r) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  sim::Summary total_s;
  sim::Summary fabric_s;
  sim::Summary state_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[rep % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    int64_t t1 = 0;
    const int64_t t0 = WallNs();
    const auto instance = build(&t1);
    const int64_t t2 = WallNs();
    total_s.Add(static_cast<double>(t2 - t0) / 1e9);
    fabric_s.Add(static_cast<double>(t1 - t0) / 1e9);
    state_s.Add(static_cast<double>(t2 - t1) / 1e9);
    const int setup = trace->Add("setup", -1, t0, t2);
    trace->Add("setup.fabric", setup, t0, t1);
    trace->Add(state_span, setup, t1, t2);
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  r->Metric("setup_s", total_s.Median(), "s");
  r->Metric("setup.fabric_s", fabric_s.Median(), "s");
  r->Metric("setup.catalog_s", state_s.Median(), "s");
  int64_t unused = 0;
  return build(&unused);
}

// Self time per span name, in seconds, for the detail record.
JsonObject SelfTimes(const Trace& trace) {
  JsonObject out;
  for (const auto& [name, ns] : trace.SelfNs()) {
    out.Num(name, ns / 1e9);
  }
  return out;
}

// The contract-op spans admission-churn times one by one.
constexpr const char* kOpSpans[] = {"admission.open",      "admission.renegotiate",
                                    "admission.close",     "admission.tree_open",
                                    "admission.graft",     "admission.prune"};

// p50 and p99 (and open's p999) in µs of every contract-op span that
// started at or after `since_ns`. Workloads that time no contract ops one by
// one pass no trace and report zeros.
void EmitOpLatencies(const Trace* trace, int64_t since_ns, Report* r) {
  for (const char* op : kOpSpans) {
    const sim::Summary d = trace != nullptr ? trace->Durations(op, since_ns) : sim::Summary();
    const std::string name = op;
    r->Metric(name + "_p50_us", d.Quantile(0.5) / 1e3, "us");
    r->Metric(name + "_p99_us", d.Quantile(0.99) / 1e3, "us");
    if (name == "admission.open") {
      r->Metric(name + "_p999_us", d.Quantile(0.999) / 1e3, "us");
    }
  }
}

// --- metro fleets ---

scenario::TopologyParams MetroLarge() {
  scenario::TopologyParams p;
  p.core_switches = 3;
  p.agg_per_core = 3;
  p.edge_per_agg = 4;
  p.hosts_per_edge = 30;
  p.storage_per_core = 2;
  return p;
}

// The unicast fleet. Broadcast stays out: a channel's tree never empties
// at this load, so whether it carries cells is one data_session_fraction
// draw fixed for the whole run, and with 8 channels that draw alone spread
// sim_rate 1.1-3.4 s/s across ten seeds. admission-churn measures the
// tree control plane instead.
scenario::WorkloadParams FleetParams(uint64_t seed) {
  scenario::WorkloadParams w;
  w.seed = seed;
  w.arrivals_per_sec = 400.0;
  w.mean_holding_sec = 5.0;
  w.phone_weight = 0.55;
  w.vod_weight = 0.35;
  w.record_weight = 0.10;
  w.broadcast_weight = 0.0;
  w.data_session_fraction = 0.05;
  w.enable_qos_monitor = true;
  return w;
}

// Members are destroyed engine-first and simulator-last, the shard group
// (which joins its workers) before the system whose links point into it.
struct Fleet {
  sim::Simulator sim;
  core::PegasusSystem system{&sim};
  std::unique_ptr<sim::ShardGroup> group;
  scenario::MetroTopology topo;
  std::unique_ptr<scenario::ScenarioEngine> engine;
};

std::unique_ptr<Fleet> BuildFleet(uint64_t seed, bool sharded, int64_t* fabric_done) {
  auto f = std::make_unique<Fleet>();
  if (sharded) {
    sim::ShardGroup::Options options;
    options.shards = 4;
    f->group = std::make_unique<sim::ShardGroup>(&f->sim, options);
  }
  f->topo = scenario::BuildMetroTopology(f->system, MetroLarge(), f->group.get());
  *fabric_done = WallNs();
  f->engine = std::make_unique<scenario::ScenarioEngine>(&f->system, &f->topo, FleetParams(seed));
  return f;
}

int64_t RefusedAdaptations(const core::PegasusSystem& system) {
  int64_t refused = 0;
  for (const auto& s : system.streams()) {
    for (const core::AdaptationEvent& e : s->adaptation_log()) {
      refused += (!e.applied && !e.held) ? 1 : 0;
    }
  }
  return refused;
}

void RunFleet(const RunOptions& o, bool sharded, Trace* trace, Report* r) {
  const std::unique_ptr<Fleet> f = SetUp(
      [&](int64_t* fabric_done) { return BuildFleet(o.seed, sharded, fabric_done); },
      "setup.catalog", trace, r);

  // 10 sim-s of warm-up (twice the mean holding time), then 3 sim-s per
  // requested host second.
  const Elements elements = MetroElements(&f->system, f->topo, f->group.get());
  Window w(trace, &elements, Scaled(100, o), Scaled(30 * o.seconds, o), Segments(o),
           "run.interval",
           [&f]() { return CellHops(&f->system); });
  scenario::FleetMetrics at_warm;
  int64_t refused_at_warm = 0;
  for (int k = 1; k <= w.total(); ++k) {
    f->sim.ScheduleAt(k * kInterval, [&, k]() {
      w.Boundary(k);
      if (k == w.warm()) {
        at_warm = f->engine->metrics();
        refused_at_warm = RefusedAdaptations(f->system);
      }
    });
  }
  w.Start();
  const scenario::FleetMetrics& m = f->engine->Run(w.total() * kInterval);
  if (!w.complete()) {
    r->Fail("measured window did not complete", 1);
    return;
  }

  EmitWindow(w, r);
  const int64_t arrivals = m.arrivals - at_warm.arrivals;
  const int64_t admitted = m.admitted - at_warm.admitted;
  const int64_t calls = m.admit_calls - at_warm.admit_calls;
  const double admit_s = (m.admit_wall_ns_total - at_warm.admit_wall_ns_total) / 1e9;
  r->Metric("admission.calls", static_cast<double>(calls), "count");
  r->Metric("admission.wall_s", admit_s, "s");
  r->Metric("admission.wall_frac", Ratio(admit_s, w.measured_s()), "ratio");
  r->Metric("admission.accept_frac", Ratio(static_cast<double>(admitted), calls), "ratio");
  r->Metric("admission.counter_offers",
            static_cast<double>(m.counter_offers - at_warm.counter_offers), "count");
  r->Metric("adapt.events", static_cast<double>(m.adaptation_events - at_warm.adaptation_events),
            "count");
  r->Metric("adapt.sessions",
            static_cast<double>(m.adapting_sessions - at_warm.adapting_sessions), "count");
  r->Metric("adapt.convergence_ms", m.mean_convergence_ms(), "sim_ms");
  r->Metric("adapt.refused",
            static_cast<double>(RefusedAdaptations(f->system) - refused_at_warm), "count");
  r->Metric("fleet.arrivals", static_cast<double>(arrivals), "count");
  r->Metric("fleet.admitted", static_cast<double>(admitted), "count");
  r->Metric("fleet.blocking",
            Ratio(static_cast<double>(m.blocked - at_warm.blocked), static_cast<double>(arrivals)),
            "ratio");
  r->Metric("fleet.peak_concurrent", static_cast<double>(m.peak_concurrent), "count");
  EmitOpLatencies(nullptr, 0, r);
  r->Metric("feed.send_cell_us", 0, "us");

  r->fingerprint = m.Fingerprint();
  r->attempted = std::max<int64_t>(1, arrivals);
  const Counters& a = w.start();
  const Counters& b = w.end();
  if (admitted <= 0 || b.cells_sent <= a.cells_sent) {
    r->Fail("fleet admitted or moved nothing in the measured window", r->attempted);
  }
  r->detail.Int("threads", f->group ? f->group->thread_count() : 1)
      .Str("fleet", m.Summary());
  if (trace->enabled()) {
    r->detail.Obj("self_s", SelfTimes(*trace));
  }
}

// --- admission churn ---

// One storage-shelved title of the VOD catalog; a title plays once at a time.
struct Title {
  core::StorageNode* storage = nullptr;
  pfs::FileId file = -1;
  bool busy = false;
};

struct ChurnRig {
  sim::Simulator sim;
  core::PegasusSystem system{&sim};
  scenario::MetroTopology topo;
  std::vector<Title> catalog;
};

// Contract ops in the fleet's shapes, one per call, drawn from the seed:
// unicast opens (phone / VOD / record), renegotiations down to 60%, closes,
// and tree open / graft / prune / tree close over 8 broadcast channels. The
// live population is held at kPopulation so the fabric runs near full and
// some opens are refused — the counter-offer path runs too.
class ContractChurn {
 public:
  static constexpr size_t kPopulation = 2000;
  static constexpr int kChannels = 8;
  static constexpr size_t kMaxViewers = 24;

  ContractChurn(ChurnRig* rig, uint64_t seed, Trace* trace)
      : rig_(rig), rng_(seed ^ 0x2545f4914f6cdd1dULL), trace_(trace) {
    policy_ = scenario::WorkloadParams().adaptation;
    channels_.resize(kChannels);
  }

  // One op; spans go under `parent`.
  void Step(int parent) {
    parent_ = parent;
    ++ops_;
    const double u = rng_.UniformDouble();
    if (u < 0.8) {
      if (live_.size() < kPopulation) {
        Open();
      } else {
        Close();
      }
    } else if (u < 0.9) {
      Renegotiate();
    } else {
      TreeOp(static_cast<int>(rng_.UniformInt(0, kChannels - 1)));
    }
  }

  // Closes every live contract and tree, outside any measured window.
  void CloseAll() {
    for (const Live& entry : live_) {
      entry.session->Close();
    }
    live_.clear();
    for (Channel& ch : channels_) {
      if (ch.session != nullptr) {
        ch.session->Close();
      }
      ch = Channel();
    }
  }

  int64_t ops() const { return ops_; }
  int64_t failed() const { return failed_; }
  int64_t admits_attempted() const { return admits_attempted_; }
  int64_t admits_accepted() const { return admits_accepted_; }
  int64_t counter_offers() const { return counter_offers_; }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Live {
    core::StreamSession* session = nullptr;
    int title = -1;
  };
  struct Channel {
    core::StreamSession* session = nullptr;
    std::vector<core::Workstation*> viewers;
  };

  core::Workstation* Host(int64_t i) const {
    return rig_->topo.hosts[static_cast<size_t>(i)];
  }
  int64_t HostCount() const { return static_cast<int64_t>(rig_->topo.hosts.size()); }

  void Record(int op, const core::AdmissionReport& report) {
    Mix(&fingerprint_, static_cast<uint64_t>(op));
    Mix(&fingerprint_, static_cast<uint64_t>(report.verdict));
    Mix(&fingerprint_, static_cast<uint64_t>(report.failure));
    Mix(&fingerprint_, report.counter_offer.has_value() ? 1 : 0);
  }
  void Admit(const core::AdmissionReport& report) {
    ++admits_attempted_;
    admits_accepted_ += report.ok() ? 1 : 0;
    counter_offers_ += report.counter_offer.has_value() ? 1 : 0;
  }
  void Require(bool ok) {
    Mix(&fingerprint_, ok ? 1 : 0);
    failed_ += ok ? 0 : 1;
  }

  void Open() {
    core::StreamBuilder builder = rig_->system.BuildStream();
    core::StreamSpec spec;
    Live entry;
    const double shape = rng_.UniformDouble();
    int title = -1;
    if (shape >= 0.55 && shape < 0.90) {
      const int64_t rank = rng_.Zipf(static_cast<int64_t>(rig_->catalog.size()), 0.8);
      title = FreeTitle(static_cast<int>(rank));
    }
    core::Workstation* dst = Host(rng_.UniformInt(0, HostCount() - 1));
    if (title >= 0) {
      // Video on demand: a free title from the Zipf-ranked catalog. With the
      // whole catalog on the air the open falls back to a phone call.
      const Title& t = rig_->catalog[static_cast<size_t>(title)];
      spec = core::StreamSpec::Video(25.0, 4'000'000);
      spec.disk_bps = 4'000'000 / 8;
      builder.FromStorage(t.storage, t.file).ToEndpoint(dst, dst->host());
      entry.title = title;
    } else if (shape >= 0.90) {
      core::StorageNode* store = rig_->topo.storage[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(rig_->topo.storage.size()) - 1))];
      spec = core::StreamSpec::Video(25.0, 3'000'000);
      spec.disk_bps = 3'000'000 / 8;
      builder.FromEndpoint(dst, dst->host()).ToStorage(store, static_cast<uint32_t>(ops_));
    } else {
      core::Workstation* src = dst;
      while (src == dst) {
        src = Host(rng_.UniformInt(0, HostCount() - 1));
      }
      spec = core::StreamSpec::Video(25.0, 2'000'000);
      builder.FromEndpoint(src, src->host()).ToEndpoint(dst, dst->host());
    }
    builder.WithSpec(spec).WithAdaptation(policy_);
    const int span = trace_->Open("admission.open", parent_);
    const core::StreamResult result = builder.Open();
    trace_->Close(span);
    Record(0, result.report);
    Admit(result.report);
    if (result.report.ok()) {
      Mix(&fingerprint_, static_cast<uint64_t>(result.session->contract().granted.bandwidth_bps));
      entry.session = result.session;
      if (entry.title >= 0) {
        rig_->catalog[static_cast<size_t>(entry.title)].busy = true;
      }
      live_.push_back(entry);
    }
  }

  int FreeTitle(int rank) const {
    const int n = static_cast<int>(rig_->catalog.size());
    for (int k = 0; k < n; ++k) {
      const int idx = (rank + k) % n;
      if (!rig_->catalog[static_cast<size_t>(idx)].busy) {
        return idx;
      }
    }
    return -1;
  }

  void Close() {
    if (live_.empty()) {
      Open();
      return;
    }
    const size_t i = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
    Live entry = live_[i];
    const int span = trace_->Open("admission.close", parent_);
    entry.session->Close();
    trace_->Close(span);
    Mix(&fingerprint_, 2);
    Require(!entry.session->active());
    if (entry.title >= 0) {
      rig_->catalog[static_cast<size_t>(entry.title)].busy = false;
    }
    live_[i] = live_.back();
    live_.pop_back();
  }

  // A step down to 60% of the granted contract must always fit.
  void Renegotiate() {
    if (live_.empty()) {
      Open();
      return;
    }
    core::StreamSession* s =
        live_[static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1))]
            .session;
    core::StreamSpec spec = s->contract().granted;
    spec.bandwidth_bps = spec.bandwidth_bps * 6 / 10;
    for (core::LegSpec& leg : spec.legs) {
      if (leg.bandwidth_bps > 0) {
        leg.bandwidth_bps = leg.bandwidth_bps * 6 / 10;
      }
    }
    spec.disk_bps = spec.disk_bps * 6 / 10;
    const int span = trace_->Open("admission.renegotiate", parent_);
    const core::AdmissionReport report = s->Renegotiate(spec);
    trace_->Close(span);
    Record(1, report);
    Require(report.ok());
  }

  core::Workstation* PickViewer(const Channel& ch, const core::Workstation* head) {
    const int64_t n = HostCount();
    const int64_t start = rng_.UniformInt(0, n - 1);
    for (int64_t k = 0; k < n; ++k) {
      core::Workstation* ws = Host((start + k) % n);
      if (ws == head || (ch.session != nullptr && ch.session->SinkVci(ws->host()).has_value())) {
        continue;
      }
      return ws;
    }
    return nullptr;
  }

  void TreeOp(int c) {
    Channel& ch = channels_[static_cast<size_t>(c)];
    core::Workstation* head = Host((static_cast<int64_t>(c) * 131 + 7) % HostCount());
    if (ch.session == nullptr) {
      core::Workstation* viewer = PickViewer(ch, head);
      core::MulticastSink sink;
      sink.ws = viewer;
      sink.endpoint = viewer->host();
      core::StreamBuilder builder = rig_->system.BuildStream();
      builder.FromEndpoint(head, head->host())
          .ToMany({sink})
          .WithSpec(core::StreamSpec::Video(25.0, 3'000'000))
          .WithAdaptation(policy_);
      const int span = trace_->Open("admission.tree_open", parent_);
      const core::StreamResult result = builder.Open();
      trace_->Close(span);
      Record(3, result.report);
      Admit(result.report);
      if (result.report.ok()) {
        ch.session = result.session;
        ch.viewers = {viewer};
      }
      return;
    }
    if (rng_.UniformDouble() < 0.05) {
      const int span = trace_->Open("admission.tree_close", parent_);
      ch.session->Close();
      trace_->Close(span);
      Mix(&fingerprint_, 6);
      Require(!ch.session->active());
      ch.session = nullptr;
      ch.viewers.clear();
      return;
    }
    if (ch.viewers.size() < kMaxViewers) {
      core::Workstation* viewer = PickViewer(ch, head);
      core::MulticastSink sink;
      sink.ws = viewer;
      sink.endpoint = viewer->host();
      const int span = trace_->Open("admission.graft", parent_);
      const core::AdmissionReport report = ch.session->AddSink(sink);
      trace_->Close(span);
      Record(4, report);
      Admit(report);
      if (report.ok()) {
        ch.viewers.push_back(viewer);
      }
      return;
    }
    const size_t i =
        static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(ch.viewers.size()) - 1));
    const int span = trace_->Open("admission.prune", parent_);
    const bool pruned = ch.session->RemoveSink(ch.viewers[i]->host());
    trace_->Close(span);
    Mix(&fingerprint_, 5);
    Require(pruned);
    ch.viewers[i] = ch.viewers.back();
    ch.viewers.pop_back();
  }

  ChurnRig* rig_;
  sim::Rng rng_;
  Trace* trace_;
  core::AdaptationPolicy policy_;
  int parent_ = -1;
  std::vector<Live> live_;
  std::vector<Channel> channels_;
  int64_t ops_ = 0;
  int64_t failed_ = 0;
  int64_t admits_attempted_ = 0;
  int64_t admits_accepted_ = 0;
  int64_t counter_offers_ = 0;
  uint64_t fingerprint_ = kFnvBasis;
};

std::unique_ptr<ChurnRig> BuildChurnRig(int64_t* fabric_done) {
  auto rig = std::make_unique<ChurnRig>();
  rig->topo = scenario::BuildMetroTopology(rig->system, MetroLarge());
  *fabric_done = WallNs();
  // The catalog the fleet's ScenarioEngine seeds, with the same geometry.
  const scenario::WorkloadParams w;
  for (core::StorageNode* node : rig->topo.storage) {
    for (int i = 0; i < w.catalog_files_per_storage; ++i) {
      rig->catalog.push_back(Title{node,
                                   node->SeedContinuousFile(w.catalog_records_per_file,
                                                            w.catalog_record_bytes,
                                                            w.catalog_record_cadence),
                                   false});
    }
  }
  return rig;
}

// Contract ops run as a chain of events on the control simulator, one per
// simulated millisecond: the engine is in the loop, as in a fleet's control
// plane, but idle. Here 1 s/s of sim_rate is 1,000 ops per host second.
constexpr sim::DurationNs kOpCadence = sim::Milliseconds(1);
constexpr int kOpsPerInterval = static_cast<int>(kInterval / kOpCadence);

void RunChurn(const RunOptions& o, Trace* trace, Report* r) {
  const std::unique_ptr<ChurnRig> rig = SetUp(BuildChurnRig, "setup.catalog", trace, r);

  // Warm-up fills the population; then 100k ops per requested host second.
  const Elements elements = MetroElements(&rig->system, rig->topo, nullptr);
  const int warm = 2 * static_cast<int>(ContractChurn::kPopulation) / kOpsPerInterval + 10;
  ContractChurn churn(rig.get(), o.seed, trace);
  Window w(trace, &elements, warm, Scaled(1000 * o.seconds, o), Segments(o), "run.interval",
           [&churn]() { return static_cast<uint64_t>(churn.ops()); });
  int64_t ops_at_warm = 0;
  int64_t failed_at_warm = 0;
  int64_t attempted_at_warm = 0;
  int64_t accepted_at_warm = 0;
  int64_t counters_at_warm = 0;
  for (int k = 1; k <= w.total(); ++k) {
    rig->sim.ScheduleAt(k * kInterval, [&, k]() {
      w.Boundary(k);
      if (k == w.warm()) {
        ops_at_warm = churn.ops();
        failed_at_warm = churn.failed();
        attempted_at_warm = churn.admits_attempted();
        accepted_at_warm = churn.admits_accepted();
        counters_at_warm = churn.counter_offers();
      }
    });
  }
  const sim::TimeNs end = w.total() * kInterval;
  struct OpChain {
    sim::Simulator* sim;
    ContractChurn* churn;
    const Window* window;
    sim::TimeNs end;
    void Fire() {
      churn->Step(window->current_span());
      if (sim->now() + kOpCadence < end) {
        sim->ScheduleAfter(kOpCadence, [this]() { Fire(); });
      }
    }
  } chain{&rig->sim, &churn, &w, end};
  rig->sim.ScheduleAt(kOpCadence, [&chain]() { chain.Fire(); });
  atm::Network& net = rig->system.network();
  const int64_t base_vcs = net.open_vc_count();
  w.Start();
  rig->sim.RunUntil(end);
  if (!w.complete()) {
    r->Fail("measured window did not complete", 1);
    return;
  }
  // With every contract closed, the books must be back to zero.
  churn.CloseAll();
  int64_t reserved_bps = 0;
  for (const auto& link : net.links()) {
    reserved_bps += net.ReservedBps(link.get());
  }

  const int64_t ops = churn.ops() - ops_at_warm;
  EmitWindow(w, r);
  const int64_t attempted = churn.admits_attempted() - attempted_at_warm;
  r->Metric("admission.calls", static_cast<double>(ops), "count");
  r->Metric("admission.accept_frac",
            Ratio(static_cast<double>(churn.admits_accepted() - accepted_at_warm),
                  static_cast<double>(attempted)),
            "ratio");
  r->Metric("admission.counter_offers",
            static_cast<double>(churn.counter_offers() - counters_at_warm), "count");
  r->Metric("feed.send_cell_us", 0, "us");
  if (trace->enabled()) {
    double wall_ns = trace->Durations("admission.tree_close", w.measure_start_ns()).sum();
    for (const char* op : kOpSpans) {
      wall_ns += trace->Durations(op, w.measure_start_ns()).sum();
    }
    EmitOpLatencies(trace, w.measure_start_ns(), r);
    r->Metric("admission.wall_s", wall_ns / 1e9, "s");
    r->Metric("admission.wall_frac", Ratio(wall_ns / 1e9, w.measured_s()), "ratio");
    r->detail.Obj("self_s", SelfTimes(*trace));
  }
  r->Metric("adapt.events", 0, "count");
  r->Metric("adapt.sessions", 0, "count");
  r->Metric("adapt.convergence_ms", 0, "sim_ms");
  r->Metric("adapt.refused", static_cast<double>(RefusedAdaptations(rig->system)), "count");
  for (const char* name : {"fleet.arrivals", "fleet.admitted", "fleet.peak_concurrent"}) {
    r->Metric(name, 0, "count");
  }
  r->Metric("fleet.blocking", 0, "ratio");


  r->fingerprint = churn.fingerprint();
  r->attempted = std::max<int64_t>(1, ops);
  const int64_t failed = churn.failed() - failed_at_warm;
  if (failed > 0) {
    r->Fail("a close, prune or step-down renegotiation was refused", failed);
  }
  if (churn.admits_accepted() - accepted_at_warm == attempted) {
    r->Fail("no open was refused: the population no longer reaches the fabric's limit", ops);
  }
  if (reserved_bps != 0 || net.open_vc_count() != base_vcs) {
    r->Fail("the reservation ledger did not drain to zero once every contract closed", ops);
  }
}

// --- closed loop (E05b desk) ---

struct Desk {
  sim::Simulator sim;
  core::PegasusSystem system{&sim};
  core::Workstation* desk = nullptr;
  core::Workstation* peer = nullptr;
  dev::AtmCamera* camera = nullptr;
  dev::AtmDisplay* display = nullptr;
  core::StreamSession* feed = nullptr;
  const atm::Link* uplink = nullptr;
};

constexpr int64_t kFeedBps = 16'000'000;
// Mean flood burst per simulated ms: ~212 Mb/s offered on a 155 Mb/s uplink.
constexpr int kFloodCellsPerMs = 500;

std::unique_ptr<Desk> BuildDesk(int64_t* fabric_done) {
  auto d = std::make_unique<Desk>();
  d->desk = d->system.AddWorkstation("desk");
  d->peer = d->system.AddWorkstation("peer");
  dev::AtmCamera::Config cam;
  cam.width = 320;
  cam.height = 240;
  d->camera = d->desk->AddCamera(cam);
  d->display = d->peer->AddDisplay(640, 480);
  *fabric_done = WallNs();
  core::AdaptationPolicy policy;
  policy.mode = core::AdaptationMode::kFrameRateScaling;
  policy.floor = 0.05;
  policy.hysteresis = 0.02;
  policy.smoothing = 1.0;
  const core::StreamResult r = d->system.BuildStream("feed")
                                   .From(d->desk, d->camera)
                                   .To(d->peer, d->display)
                                   .WithSpec(core::StreamSpec::Video(25, kFeedBps))
                                   .WithWindow(0, 0)
                                   .WithAdaptation(policy)
                                   .Open();
  if (r.report.ok()) {
    d->feed = r.session;
  }
  d->system.EnableQosMonitor();
  // The desk uplink is the second link of the camera -> display route.
  const auto route = d->system.network().ResolveRoute(d->desk->device_endpoint(d->camera),
                                                      d->peer->device_endpoint(d->display));
  if (route.has_value() && route->links.size() > 1) {
    d->uplink = route->links[1];
  }
  return d;
}

void RunClosedLoop(const RunOptions& o, Trace* trace, Report* r) {
  const std::unique_ptr<Desk> d = SetUp(BuildDesk, "setup.contracts", trace, r);
  if (d->feed == nullptr || d->uplink == nullptr) {
    r->Fail("feed stream or desk uplink missing", 1);
    return;
  }
  // The camera's first frame is rendered as it starts: run work, not set-up.
  d->camera->Start(d->feed->source_vci());

  // Cycles of 2 sim-s quiet / flood / drain phases, two per requested host
  // second; quick mode runs one cycle.
  constexpr int phase = 20;  // intervals
  const int cycles = o.quick ? 1 : 2 * o.seconds;
  Elements elements;
  elements.system = &d->system;
  elements.switches = {d->system.backbone(), d->desk->local_switch(), d->peer->local_switch()};
  elements.endpoints = {d->desk->host(), d->peer->host(), d->desk->device_endpoint(d->camera),
                        d->peer->device_endpoint(d->display)};
  elements.transports = {d->desk->host_transport(), d->peer->host_transport()};
  // One rate segment per cycle: the phases differ a hundredfold in load.
  Window w(trace, &elements, o.quick ? 5 : 20, cycles * 3 * phase, cycles, "sim.run_until",
           [&d]() { return CellHops(&d->system); });

  sim::Rng rng(o.seed ^ 0x6a09e667f3bcc909ULL);
  int k = 0;
  int64_t applied_seen = d->feed->adaptations_applied();
  int64_t applied_at_warm = 0;
  double min_fraction = 1.0;
  sim::TimeNs first_applied = -1;
  sim::TimeNs last_applied = -1;
  auto step = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ++k;
      d->sim.RunUntil(k * kInterval);
      w.Boundary(k);
      if (k == w.warm()) {
        applied_at_warm = d->feed->adaptations_applied();
      }
      const int64_t applied = d->feed->adaptations_applied();
      if (applied > applied_seen) {
        first_applied = first_applied < 0 ? d->sim.now() : first_applied;
        last_applied = d->sim.now();
        applied_seen = applied;
      }
      min_fraction = std::min(min_fraction, d->feed->adaptation_fraction());
    }
  };

  w.Start();
  step(w.warm());
  int failed_cycles = 0;
  double convergence_ms = 0;
  uint64_t h = kFnvBasis;
  for (int c = 0; c < cycles; ++c) {
    step(phase);
    // The flood: a best-effort bulk contract whose cells enter through
    // Endpoint::SendCell, about 500 per simulated millisecond, for one phase.
    int span = trace->Open("admission.open", w.current_span());
    const core::StreamResult flood = d->system.BuildStream("flood")
                                         .FromEndpoint(d->desk, d->desk->host())
                                         .ToEndpoint(d->peer, d->peer->host())
                                         .WithSpec(core::StreamSpec::BestEffort())
                                         .Open();
    trace->Close(span);
    if (!flood.report.ok()) {
      r->Fail("best-effort flood contract refused", 1);
      return;
    }
    const atm::Vci vci = flood.session->source_vci();
    atm::Endpoint* host = d->desk->host();
    // The seed sets each cycle's flood: its start within the first 100 ms
    // of the phase and its burst size, always beyond the uplink's line rate.
    const sim::TimeNs from = d->sim.now() + sim::Milliseconds(rng.UniformInt(0, 99));
    const int cells = static_cast<int>(rng.UniformInt(kFloodCellsPerMs - 50, kFloodCellsPerMs + 50));
    for (sim::TimeNs t = from; t < from + phase * kInterval; t += sim::Milliseconds(1)) {
      d->sim.ScheduleAt(t, [trace, &w, host, vci, cells]() {
        const int burst = trace->Open("feed.flood", w.current_span());
        for (int i = 0; i < cells; ++i) {
          atm::Cell cell;
          cell.vci = vci;
          cell.low_priority = true;
          host->SendCell(cell);
        }
        trace->Close(burst);
      });
    }
    min_fraction = 1.0;
    first_applied = -1;
    last_applied = -1;
    step(2 * phase);
    span = trace->Open("admission.close", w.current_span());
    flood.session->Close();
    trace->Close(span);

    // Each cycle must degrade under the flood and restore to nominal once
    // the queues drain.
    const bool degraded = min_fraction < 0.999;
    const bool restored = d->feed->adaptation_fraction() > 0.999 &&
                          d->feed->contract().granted.bandwidth_bps == kFeedBps;
    failed_cycles += (degraded && restored) ? 0 : 1;
    if (first_applied >= 0) {
      convergence_ms += static_cast<double>(last_applied - first_applied) / 1e6;
    }
    Mix(&h, degraded ? 1 : 0);
    Mix(&h, restored ? 1 : 0);
    Mix(&h, static_cast<uint64_t>(first_applied));
    Mix(&h, static_cast<uint64_t>(last_applied));
  }
  if (!w.complete()) {
    r->Fail("measured window did not complete", 1);
    return;
  }

  int64_t decisions = 0;
  int64_t refused = 0;
  for (const core::AdaptationEvent& e : d->feed->adaptation_log()) {
    ++decisions;
    refused += (!e.applied && !e.held) ? 1 : 0;
    Mix(&h, static_cast<uint64_t>(e.trigger));
    Mix(&h, (e.applied ? 1 : 0) | (e.held ? 2 : 0));
    Mix(&h, Bits(e.target_fraction));
    Mix(&h, static_cast<uint64_t>(e.net_bps_before));
    Mix(&h, static_cast<uint64_t>(e.net_bps_after));
  }
  Mix(&h, d->uplink->cells_sent());
  Mix(&h, d->uplink->cells_dropped_high());
  Mix(&h, d->uplink->cells_dropped_low());

  EmitWindow(w, r);
  r->Metric("adapt.events", static_cast<double>(d->feed->adaptations_applied() - applied_at_warm),
            "count");
  r->Metric("adapt.sessions", d->feed->adaptations_applied() > applied_at_warm ? 1 : 0, "count");
  r->Metric("adapt.convergence_ms", convergence_ms / cycles, "sim_ms");
  r->Metric("adapt.refused", static_cast<double>(refused), "count");
  for (const char* name : {"fleet.arrivals", "fleet.admitted", "fleet.peak_concurrent"}) {
    r->Metric(name, 0, "count");
  }
  r->Metric("fleet.blocking", 0, "ratio");
  r->Metric("admission.accept_frac", 1, "ratio");
  r->Metric("admission.counter_offers", 0, "count");
  EmitOpLatencies(nullptr, 0, r);
  if (trace->enabled()) {
    double wall_ns = 0;
    int64_t calls = 0;
    for (const char* op : {"admission.open", "admission.close"}) {
      const sim::Summary s = trace->Durations(op, w.measure_start_ns());
      wall_ns += s.sum();
      calls += s.count();
    }
    r->Metric("admission.calls", static_cast<double>(calls), "count");
    r->Metric("admission.wall_s", wall_ns / 1e9, "s");
    r->Metric("admission.wall_frac", Ratio(wall_ns / 1e9, w.measured_s()), "ratio");
    r->Metric("feed.send_cell_us",
              trace->Durations("feed.flood", w.measure_start_ns()).Quantile(0.5) / 1e3, "us");
    r->detail.Obj("self_s", SelfTimes(*trace));
  }

  r->fingerprint = h;
  r->attempted = cycles + decisions;
  if (failed_cycles > 0) {
    r->Fail("a flood cycle did not degrade and restore the feed to nominal", failed_cycles);
  }
  if (refused > 0) {
    r->Fail("an adaptation renegotiation was refused", refused);
  }
  r->detail.Int("cycles", cycles);
}

// --- calibration: the QoS monitor over an idle metro-large fabric ---

void RunMonitorIdle(const RunOptions& o, Report* r) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  scenario::BuildMetroTopology(system, MetroLarge());
  const core::QosMonitor* monitor = system.EnableQosMonitor();
  const int64_t t0 = WallNs();
  sim.RunUntil(Scaled(100, o) * kInterval);
  const int64_t t1 = WallNs();
  r->attempted = std::max<int64_t>(1, monitor->ticks());
  if (monitor->ticks() <= 0) {
    r->Fail("the monitor never ticked", r->attempted);
    return;
  }
  r->Metric("monitor.idle_tick_us",
            static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(monitor->ticks()), "us");
  Mix(&r->fingerprint, static_cast<uint64_t>(monitor->ticks()));
}

}  // namespace

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics.Obj(name, JsonObject().Num("value", value).Str("unit", unit));
}

void Report::Fail(const std::string& why, int64_t ops) {
  failures.push_back(why);
  attempted = std::max<int64_t>(attempted, 1);
  failed = std::min(attempted, failed + ops);
}

bool RunWorkload(const RunOptions& options, Trace* trace, Report* report) {
  report->fingerprint = kFnvBasis;
  if (options.workload == "metro-fleet" || options.workload == "metro-fleet-sharded") {
    RunFleet(options, options.workload == "metro-fleet-sharded", trace, report);
  } else if (options.workload == "admission-churn") {
    RunChurn(options, trace, report);
  } else if (options.workload == "closed-loop") {
    RunClosedLoop(options, trace, report);
  } else if (options.workload == "monitor-idle") {
    RunMonitorIdle(options, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace pegasus::ledger
