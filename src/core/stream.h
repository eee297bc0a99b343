// The unified cross-layer QoS stream API.
//
// The paper's thesis is that multimedia needs *end-to-end* guarantees:
// processor time from the Atropos scheduler (§3.3), network bandwidth from
// ATM signalling (§4) and disk rate from the Pegasus File Server (§5),
// negotiated together per stream. A StreamSpec states what a stream needs
// from every layer; StreamBuilder admission-controls the full path —
// bandwidth on every traversed link, CPU headroom on the source and sink
// hosts, disk rate at the storage server — and either binds the whole
// contract (VC pacing, per-stream handler domains, PFS reservation, a
// window on the sink display) or rejects it with a counter-offer stating
// the largest contract each layer could still grant. An established
// StreamSession can re-negotiate in place and hears about QoS-manager
// degradation through a callback, so the feedback loop of §3.3 spans
// layers. Teardown releases all three layers' reservations.
//
// Every session has one shape: a chain of legs whose last leg is a
// delivery tree. Via() routes the stream through compute servers (Figure 4)
// that process the media in transit, each detour ending a point-to-point
// leg; the final leg fans out to every sink end — one per To*() call or
// ToMany() entry, so a plain camera-to-display stream is the one-sink
// tree. The whole chain — every leg's links (each tree edge once), every
// compute stage's CPU, the source's and every sink host's CPU and the disk
// rate — is admitted atomically as ONE contract. When admission fails, the
// report carries a single joint counter-offer computed across all failing
// resources in one pass: each overcommitted link scales the legs crossing
// it proportionally, each overcommitted kernel scales the CPU contracts it
// would host, and the disk clamp rides in the same spec. Open() and
// Renegotiate() run that one admission pass, move every CPU contract
// through one path and record the granted contract one way. The pass
// allocates only the state a session keeps: CPU contracts are walked in
// place and its per-call vectors are reused scratch.
#ifndef PEGASUS_SRC_CORE_STREAM_H_
#define PEGASUS_SRC_CORE_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/atm/network.h"
#include "src/core/storage_node.h"
#include "src/core/workstation.h"
#include "src/devices/processing.h"
#include "src/nemesis/qos.h"
#include "src/nemesis/qos_manager.h"
#include "src/nemesis/workloads.h"
#include "src/pfs/server.h"

namespace pegasus::core {

class ComputeNode;
class PegasusSystem;
class StreamBuilder;

enum class MediaType { kVideo, kAudio, kData };

// Per-leg quantities of a pipeline. Leg i spans the i-th pair of adjacent
// pipeline nodes; for every leg but the last, the node the leg ends on is a
// compute server and `compute_cpu` is the CPU contract its processing stage
// demands there. On Open(), a missing or inherit-valued entry takes the
// stream-wide `bandwidth_bps`; on Renegotiate() of a pipeline it keeps the
// leg's currently granted value (granted specs always carry explicit legs,
// so editing `contract().granted` is the natural way to renegotiate — the
// stream-wide `bandwidth_bps` knob is ignored by pipeline renegotiation).
struct LegSpec {
  static constexpr int64_t kInheritBps = -1;
  // Peak bandwidth to reserve on every link of this leg. kInheritBps
  // defers to the stream-wide default; 0 is best effort.
  int64_t bandwidth_bps = kInheritBps;
  // CPU contract for the compute stage at the node this leg ends on,
  // admitted against that node's Atropos kernel. Ignored on the final leg
  // (the sink end uses StreamSpec::sink_cpu). slice == 0 = no demand.
  nemesis::QosParams compute_cpu = nemesis::QosParams{0, sim::Milliseconds(100), true};
};

// What a stream asks of — or is granted by — every layer. Fields left at
// zero are "no demand on this layer" and are skipped by admission.
struct StreamSpec {
  MediaType media = MediaType::kData;
  // Nominal presentation rate (frames or packets per second); informational.
  double frame_rate = 0.0;
  // Peak network bandwidth to reserve on every traversed link. 0 = best
  // effort (never rejected by the network). For pipelines this is the
  // default every leg without an explicit LegSpec entry inherits.
  int64_t bandwidth_bps = 0;
  // End-to-end network latency bound: every leg before the tree plus the
  // deepest sink's route. 0 = unconstrained. Admission rejects chains whose
  // propagation plus per-hop serialisation exceed it.
  sim::DurationNs latency_bound = 0;
  // CPU contract for the protocol/decode work at each end, admitted against
  // the host kernel's Atropos headroom; `sink_cpu` is demanded at EVERY sink
  // end, and a sink with no host kernel (a storage recorder, a bare
  // endpoint) refuses it. slice == 0 = no CPU demand.
  nemesis::QosParams source_cpu = nemesis::QosParams{0, sim::Milliseconds(100), true};
  nemesis::QosParams sink_cpu = nemesis::QosParams{0, sim::Milliseconds(100), true};
  // Disk rate to reserve at the Pegasus File Server on the session's one
  // file — a FromStorage play-out or the single recording sink's file — in
  // bytes per second. 0 = no reservation. Refused when the session has no
  // such file or records at more than one sink.
  int64_t disk_bps = 0;
  // Per-leg overrides for multi-leg pipelines (one leg per Via() stage plus
  // the final tree leg to the sinks). May be shorter than the pipeline;
  // missing entries inherit as described on LegSpec.
  std::vector<LegSpec> legs;

  // The bandwidth leg `leg` asks for, with inheritance resolved.
  int64_t LegBandwidthBps(size_t leg) const {
    if (leg < legs.size() && legs[leg].bandwidth_bps != LegSpec::kInheritBps) {
      return legs[leg].bandwidth_bps;
    }
    return bandwidth_bps;
  }
  // The CPU contract demanded of the compute stage terminating leg `leg`.
  nemesis::QosParams LegComputeCpu(size_t leg) const {
    if (leg < legs.size()) {
      return legs[leg].compute_cpu;
    }
    return nemesis::QosParams{0, sim::Milliseconds(100), true};
  }

  static StreamSpec Video(double fps, int64_t bandwidth_bps) {
    StreamSpec s;
    s.media = MediaType::kVideo;
    s.frame_rate = fps;
    s.bandwidth_bps = bandwidth_bps;
    return s;
  }
  static StreamSpec Audio(int64_t bandwidth_bps) {
    StreamSpec s;
    s.media = MediaType::kAudio;
    s.bandwidth_bps = bandwidth_bps;
    return s;
  }
  static StreamSpec BestEffort() { return StreamSpec{}; }
};

enum class AdmitVerdict {
  kAccepted,      // the full contract is bound
  kCounterOffer,  // rejected, but `counter_offer` states an admissible spec
  kRejected,      // rejected with nothing useful to offer
};

// --- the adaptation plane (§3.3's feedback loop spanning all layers) ---
//
// How a session's application degrades when any layer loses capacity. The
// QoS manager's grant reviews, the network's congestion signal and the file
// server's budget-pressure hook all funnel into ONE proportional cross-layer
// target, applied through a single joint Renegotiate() — so no layer is left
// paying for throughput another layer can no longer deliver.
enum class AdaptationMode {
  // Scale the presentation rate: fewer frames, each at full fidelity.
  kFrameRateScaling,
  // Keep the frame rate, shrink bits per frame (coarser quantisation,
  // fewer tiles).
  kQualityScaling,
};

struct AdaptationPolicy {
  AdaptationMode mode = AdaptationMode::kFrameRateScaling;
  // Never degrade below this fraction of the nominal contract.
  double floor = 0.1;
  // Ignore target moves smaller than this. The manager's EWMA steps all aim
  // at one steady-state share, so a policy adapts once per real change
  // instead of once per epoch.
  double hysteresis = 0.02;
  // EWMA over successive cross-layer targets, in (0, 1]; 1 = jump straight
  // to the steady-state target.
  double smoothing = 1.0;
};

// One adaptation-plane decision, with the per-layer movement it caused.
struct AdaptationEvent {
  enum class Trigger { kCpuGrant, kNetworkCongestion, kDiskPressure, kManual };
  Trigger trigger = Trigger::kManual;
  // For kCpuGrant: why the manager moved the grant (reclaim cuts hold the
  // other layers — the stream is idle by choice, not degraded).
  nemesis::GrantReason reason = nemesis::GrantReason::kContention;
  // The smoothed, floor-clamped fraction of nominal this event aimed at.
  double target_fraction = 1.0;
  bool applied = false;  // the joint renegotiation was accepted
  bool held = false;     // policy held (hysteresis or reclaim)
  // Per-layer state around the event: CPU utilisation summed over every
  // end and compute stage, network bps summed over every leg, disk bytes/s.
  double cpu_util_before = 0.0;
  double cpu_util_after = 0.0;
  int64_t net_bps_before = 0;
  int64_t net_bps_after = 0;
  int64_t disk_bps_before = 0;
  int64_t disk_bps_after = 0;
};

const char* AdaptationTriggerName(AdaptationEvent::Trigger trigger);

// Which layer turned the stream away.
enum class AdmitFailure {
  kNone,
  kEndpoint,          // source/sink/via endpoint missing or unattached
  kNoPath,            // no switch path along one of the legs
  kNetworkBandwidth,  // a traversed link lacks spare capacity
  kLatency,           // the chain cannot meet the latency bound
  kSourceCpu,         // source host kernel lacks CPU headroom (or a kernel)
  kSinkCpu,           // sink host kernel lacks CPU headroom (or a kernel)
  kComputeCpu,        // a compute node's kernel lacks headroom (or a kernel)
  kDiskBandwidth,     // PFS stream budget exhausted
};

const char* AdmitFailureName(AdmitFailure failure);

struct AdmissionReport {
  AdmitVerdict verdict = AdmitVerdict::kRejected;
  // The first failing resource in path order; kNone on acceptance.
  AdmitFailure failure = AdmitFailure::kNone;
  // EVERY failing resource, in path order (legs, then source CPU, compute
  // stages, sink CPU, then disk) — admission checks all layers in one pass
  // rather than stopping at the first refusal.
  std::vector<AdmitFailure> failures;
  std::string detail;
  // On kCounterOffer: the requested spec clamped to what every layer could
  // still grant right now, jointly feasible across all failing resources.
  std::optional<StreamSpec> counter_offer;

  bool ok() const { return verdict == AdmitVerdict::kAccepted; }
};

// The bound end-to-end contract of an established session.
struct QosContract {
  StreamSpec granted;
  int hop_count = 0;  // summed over every leg
  sim::TimeNs established_at = 0;
  int renegotiations = 0;
};

// One sink end of a stream: To*(), each ToMany() entry and AddSink() add
// one leaf to the final leg's tree. A workstation sink names the endpoint
// packets should land on (and optionally a display to window them); a
// storage sink records the stream there.
struct MulticastSink {
  Workstation* ws = nullptr;
  atm::Endpoint* endpoint = nullptr;   // any endpoint on `ws`
  dev::AtmDisplay* display = nullptr;  // bind a window at this leaf
  StorageNode* storage = nullptr;      // record the stream at this leaf
  uint32_t record_stream_id = 1;       // with storage: control-stream id
};

// An admitted stream: one VC per pipeline leg (each paced to its granted
// bandwidth; the last is the tree to every sink), the per-stage compute
// domains and the source's handler domain, each sink end's binding (host
// CPU, window, control path, recording), and the PFS reservation — all
// released together by Close().
class StreamSession {
 public:
  // CPU contract "ends": 0 = source host, 1 = the sink ends' hosts (every
  // sink holds the one sink_cpu contract), 2+k = the compute stage
  // terminating leg k.
  static constexpr int kSourceEnd = 0;
  static constexpr int kSinkEnd = 1;

  // One bound leg of the pipeline, in path order.
  struct Leg {
    atm::VcId vc = -1;
    // VCI stamped on packets entering this leg.
    atm::Vci source_vci = atm::kVciUnassigned;
    // VCI observed on packets leaving this leg.
    atm::Vci sink_vci = atm::kVciUnassigned;
    int64_t granted_bps = 0;
    int hop_count = 0;
    // The compute node this leg terminates at (null for the final leg).
    ComputeNode* compute = nullptr;
    // The processing stage instantiated there.
    dev::TileProcessor* processor = nullptr;
    // The handler domain holding the stage's CPU contract on the compute
    // node's kernel (null when no CPU was demanded).
    std::unique_ptr<nemesis::PeriodicDomain> handler;
  };

  // Invoked after the QoS manager degraded (or restored) one of the
  // session's CPU contracts; `contract().granted` is already updated.
  using DegradeCallback = std::function<void(const QosContract& contract)>;

  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  const std::string& name() const { return name_; }
  const QosContract& contract() const { return contract_; }
  bool active() const { return active_; }

  // --- data plane handles ---
  // The pipeline's legs in path order; size 1 without Via() stages.
  const std::vector<Leg>& legs() const { return legs_; }
  int leg_count() const { return static_cast<int>(legs_.size()); }
  // The first leg's VC (the tree itself when there is no Via() stage).
  atm::VcId data_vc() const { return legs_.empty() ? -1 : legs_.front().vc; }
  // VCI the source device must stamp on outgoing packets.
  atm::Vci source_vci() const {
    return legs_.empty() ? atm::kVciUnassigned : legs_.front().source_vci;
  }
  // VCI the first sink observes on delivered packets (SinkVci for others).
  atm::Vci sink_vci() const {
    return legs_.empty() ? atm::kVciUnassigned : legs_.back().sink_vci;
  }
  // The first control stream a sink end opened: managing host -> far end
  // (index marks, start/stop).
  atm::Vci control_send_vci() const { return control_send_vci_; }
  // The file the session's disk rate applies to — the single recording
  // sink's, else the FromStorage play-out — or, with several recording
  // sinks, the first one's; -1 otherwise.
  pfs::FileId file() const { return file_; }
  // The handler domains holding the CPU contracts (null when no CPU was
  // demanded at that end): the source's, and the first sink end's.
  // Exposed so callers can observe manager grants.
  nemesis::PeriodicDomain* source_handler() const { return source_handler_.get(); }
  nemesis::PeriodicDomain* sink_handler() const { return EndHandler(kSinkEnd); }

  // --- sink ends: the leaves of the final leg's tree ---
  int sink_count() const { return static_cast<int>(sinks_.size()); }
  // The VCI `endpoint` observes on delivered packets, if it is a sink.
  std::optional<atm::Vci> SinkVci(const atm::Endpoint* endpoint) const;
  // Grafts one more sink onto the final leg's tree. Only the NEW branch
  // path is admitted — links the tree already crosses are free, sink CPU
  // is admitted against the new sink's host alone, and every other contract
  // of the session is untouched. A late viewer joining a popular channel
  // costs O(graft path), not a re-admission of the whole tree. The graft
  // must meet the latency bound over the earlier legs plus its own route
  // from the last stage. Refused on a QoS-managed session (a manager
  // registration per sink end is undefined), and for a storage sink while
  // the session holds a disk reservation (it covers one file).
  AdmissionReport AddSink(const MulticastSink& sink);
  // Prunes the sink delivering to `endpoint`, releasing its window,
  // recording (and the disk reservation, if it was the session's file),
  // control path, CPU contract and every tree branch that served only it.
  // Refuses to remove the last sink — Close() the session instead.
  bool RemoveSink(const atm::Endpoint* endpoint);

  // Re-negotiates the contract in place, all-or-nothing: every layer's new
  // demand — bandwidth on each leg's own links (no route churn), CPU at
  // both ends and every compute stage, disk rate — is checked jointly, by
  // the admission pass Open() runs, BEFORE anything is re-bound, so a
  // refusal leaves the original contract fully intact and carries one joint
  // counter-offer across all failing resources.
  AdmissionReport Renegotiate(const StreamSpec& spec);

  // --- the adaptation plane ---
  // States the application's own rate limit as a fraction of nominal and
  // drives one joint cross-layer renegotiation: every leg's bandwidth,
  // every unmanaged CPU contract (end hosts and compute stages), and the
  // disk reservation move together; manager-owned CPU ends keep the
  // manager's grant. Each signal source (application, CPU grants per end,
  // network congestion, disk pressure) holds its own limit and the session
  // always renegotiates toward the MINIMUM of them — a milder signal from
  // one layer never un-degrades a deeper cut from another. The combined
  // target is EWMA-smoothed per the policy, clamped to its floor, and
  // suppressed by hysteresis (the report then reads kAccepted with detail
  // "held"). Requires an AdaptationPolicy (WithAdaptation at build time).
  AdmissionReport AdaptTo(double target_fraction);
  bool has_adaptation() const { return has_adaptation_; }
  // Fraction of the nominal contract currently in force (1.0 = full rate).
  double adaptation_fraction() const { return current_fraction_; }
  // Recent adaptation decisions, in order, with per-layer deltas (bounded:
  // the oldest are dropped past 256 entries; the counters are exact).
  const std::vector<AdaptationEvent>& adaptation_log() const { return adaptation_log_; }
  // Joint renegotiations the adaptation plane actually applied.
  int64_t adaptations_applied() const { return adaptations_applied_; }
  // Decisions held (hysteresis or reclaim) without touching the contract.
  int64_t adaptations_held() const { return adaptations_held_; }

  // Releases every layer's resources: each sink end's window, recording,
  // control path and CPU contract, the PFS stream reservation (stopping
  // play-out), the source's handler domain (and every QoS-manager
  // registration), the compute stages and their contract domains, and all
  // legs' VCs with their link reservations. Idempotent.
  void Close();

 private:
  friend class StreamBuilder;

  StreamSession() = default;

  // Window geometry every display sink is bound with (WithWindow at build
  // time, sizes resolved); AddSink reuses it so late joiners match.
  struct Window {
    int x = 0;
    int y = 0;
    int w = 0;
    int h = 0;
  };
  // One sink end, in graft order.
  struct SinkBinding {
    MulticastSink sink;  // endpoint resolved
    atm::Vci vci = atm::kVciUnassigned;
    std::unique_ptr<nemesis::PeriodicDomain> handler;  // sink-host CPU
    std::vector<atm::VcId> control_vcs;
    pfs::FileId record_file = -1;
    bool window_created = false;
  };
  // One CPU contract of the chain: its end, its position among the stages
  // (k) or sinks (i), the kernel it is admitted on and the handler slot.
  struct CpuSlot {
    int end = kSourceEnd;
    size_t index = 0;
    nemesis::Kernel* kernel = nullptr;
    std::unique_ptr<nemesis::PeriodicDomain>* handler = nullptr;
  };

  // The CPU contracts in path order — source, stages, sinks — read by
  // index, so a walk builds nothing and a nested pass cannot disturb it.
  size_t CpuSlotCount() const { return std::max<size_t>(legs_.size(), 1) + sinks_.size(); }
  CpuSlot CpuSlotAt(size_t i);
  static CpuSlot SinkSlot(SinkBinding& b, size_t index);
  // The contract `slot` demands under `spec`, stages as Admit resolved them.
  static nemesis::QosParams Demand(const CpuSlot& slot, const StreamSpec& spec,
                                   const std::vector<nemesis::QosParams>& stage_cpu);
  // The long-term demand registered with the QoS manager beside `qos`: the
  // source's nominal, the sink's request, a stage's own contract.
  nemesis::QosParams LongTermRequest(const CpuSlot& slot, const nemesis::QosParams& qos) const;
  // The one admission pass of Open and Renegotiate, over `leg_links` (empty
  // when no bandwidth moves), every CPU slot and the disk at `disk_storage`;
  // what the session holds is handed back for the check. Resolves each
  // stage's CPU into `stage_cpu` (a stage without a spec.legs entry keeps
  // what it holds). On refusal fills `report` and returns false.
  bool Admit(const StreamSpec& spec, const std::vector<std::vector<atm::Link*>>& leg_links,
             const std::vector<int64_t>& wanted_bps, StorageNode* disk_storage,
             std::vector<nemesis::QosParams>* stage_cpu, AdmissionReport* report);
  // Moves one CPU contract to `qos`: releases it at slice 0, else binds a
  // handler domain or updates the one there, and (re-)registers it with
  // the QoS manager under `request`. False when the kernel refuses.
  bool SetCpu(const CpuSlot& slot, const nemesis::QosParams& qos,
              const nemesis::QosParams& request);
  // Records the granted contract: `spec` with each leg at its granted_bps
  // (a one-leg session's bandwidth_bps too; a pipeline keeps
  // `pipeline_bps`) and every CPU contract as its handler holds it.
  void SetGranted(const StreamSpec& spec, int64_t pipeline_bps);
  // Binds one sink end's window, its control path — a duplex to the source
  // host (or one VC to a storage source) when `control` (To*() ends), one
  // from the source host for a storage sink — and its recording. Returns
  // kNoPath when a control VC cannot open, else kNone; whatever was bound
  // stays in `b` for UnbindSink.
  AdmitFailure BindSink(SinkBinding& b, bool control);
  // Releases one sink end's window, recording, CPU and control path (not
  // its tree branch).
  void UnbindSink(SinkBinding& b);
  // Re-reads the tree leg's hop count and first-sink VCI after a graft or
  // prune.
  void RefreshTreeLeg();
  void ReleaseCpuEnd(std::unique_ptr<nemesis::PeriodicDomain>* handler,
                     nemesis::Kernel* kernel);
  // The handler holding the contract for `end`, or null.
  nemesis::PeriodicDomain* EndHandler(int end) const;
  void OnGrantChanged(int end, const nemesis::GrantUpdate& update);
  // The shared body of Renegotiate and AdaptTo; `update_requests` controls
  // whether spec CPU becomes the new long-term demand registered with the
  // QoS manager (adaptation keeps the original request so grants can grow
  // back toward it).
  AdmissionReport RenegotiateImpl(const StreamSpec& spec, bool update_requests);
  // Renegotiates toward CombinedLimit(), the min over every signal source's
  // current limit fraction; `cpu_util_before` is logged as the event's
  // starting CPU.
  AdmissionReport Adapt(AdaptationEvent::Trigger trigger, nemesis::GrantReason reason,
                        double cpu_util_before);
  double CombinedLimit() const;
  // The nominal contract scaled to `fraction` per the policy mode, with
  // manager-owned CPU ends left at the manager's current grant.
  StreamSpec ScaledSpec(double fraction) const;
  // Whether `end`'s CPU contract is registered with the QoS manager (the
  // manager, not the adaptation plane, owns its slice then).
  bool EndIsManaged(int end) const;
  double GrantedCpuUtil() const;
  int64_t GrantedNetBps() const;
  int64_t GrantedDiskBps() const;
  // Appends to the bounded log and maintains the exact counters.
  void LogAdaptationEvent(const AdaptationEvent& event);
  // Re-shapes every paced media source to the granted first-leg rate:
  // camera, audio capture, and storage play-out (min of network and disk).
  void ApplySourcePacing();
  // Subscribes the session to Network::SignalCongestion on every leg's VC
  // and to the file server's budget-pressure hook.
  void BindAdaptationHooks();
  // The PFS pressure callback dies with every release-and-re-reserve
  // renegotiation cycle; re-arm it.
  void RebindDiskPressureHook();

  std::string name_;
  PegasusSystem* system_ = nullptr;
  QosContract contract_;
  bool active_ = false;

  // Source end.
  Workstation* source_ws_ = nullptr;  // null for a storage source
  atm::Endpoint* source_ep_ = nullptr;
  dev::AtmCamera* source_camera_ = nullptr;
  dev::AudioCapture* source_audio_ = nullptr;

  // Sink ends: the leaves of legs_.back(), whose VC carries the ONE
  // per-tree-edge reservation.
  std::vector<SinkBinding> sinks_;
  std::optional<Window> window_;
  // Latency floor of the legs before the tree, fixed at Open; a graft adds
  // its own route.
  sim::DurationNs upstream_latency_ns_ = 0;

  // Network + compute: the bound pipeline.
  std::vector<Leg> legs_;
  atm::Vci control_send_vci_ = atm::kVciUnassigned;

  // CPU.
  std::unique_ptr<nemesis::PeriodicDomain> source_handler_;
  // Handlers removed from their kernel stay here, inert, because a pending
  // job-release timer in the simulator may still reference them.
  std::vector<std::unique_ptr<nemesis::PeriodicDomain>> retired_handlers_;
  nemesis::QosManagerDomain* manager_ = nullptr;
  double manager_weight_ = 1.0;
  // What the sink wants long-term — the demand registered with the QoS
  // manager, which may exceed the contract admitted now. The source's is
  // its nominal source_cpu.
  nemesis::QosParams requested_sink_cpu_;

  // Storage: the file disk_bps applies to and its server (see file());
  // `recording_` when it is a recording sink's rather than a play-out.
  StorageNode* storage_ = nullptr;
  pfs::FileId file_ = -1;
  bool recording_ = false;
  bool disk_reserved_ = false;

  // Adaptation plane. Each signal source holds its own limit fraction; the
  // session adapts toward their minimum, so independent degradations
  // compose instead of overwriting each other.
  bool has_adaptation_ = false;
  AdaptationPolicy policy_;
  // The full-rate contract adaptation scales from: the contract granted at
  // Open or by the last application Renegotiate.
  StreamSpec nominal_;
  double current_fraction_ = 1.0;
  double app_limit_ = 1.0;   // stated via AdaptTo
  double disk_limit_ = 1.0;  // latest budget-pressure signal
  // Per congested link: deliverable fraction from its latest signal (a
  // severity-0 clear removes the entry). One scalar would let a mild
  // signal on one link un-degrade a deeper cut still in force on another.
  std::map<const atm::Link*, double> net_link_limits_;
  // Per managed CPU end: steady-state share of the long-term request (ends
  // whose grants are self-limited idleness do not constrain the stream).
  std::map<int, double> cpu_end_limits_;
  // Bounded event history (oldest dropped past kAdaptationLogCap); the
  // counters below are exact over the session lifetime.
  std::vector<AdaptationEvent> adaptation_log_;
  int64_t adaptations_applied_ = 0;
  int64_t adaptations_held_ = 0;

  DegradeCallback degrade_cb_;
};

struct StreamResult {
  AdmissionReport report;
  // Non-null iff report.ok(). Owned by the PegasusSystem.
  StreamSession* session = nullptr;
};

// Fluent construction of a cross-layer stream:
//
//   auto r = system.BuildStream("phone/video")
//                .From(alice, camera)
//                .To(bob, display)
//                .WithSpec(StreamSpec::Video(25, 8'000'000))
//                .WithWindow(240, 180)
//                .Open();
//   if (r.report.ok()) camera->Start(r.session->source_vci());
//
// One-to-many is the same call with more sinks: ToMany() (or repeated To*())
// adds leaves to the final leg's tree, and AddSink()/RemoveSink() graft and
// prune them on the open session.
//
// A pipeline detours through compute servers, still as one contract:
//
//   core::StreamSpec spec = core::StreamSpec::Video(25, 8'000'000);
//   spec.legs.resize(2);
//   spec.legs[0].compute_cpu = QosParams::Guaranteed(ms(10), ms(40));
//   auto r = system.BuildStream("filtered")
//                .From(alice, camera)
//                .Via(compute, stage_config)
//                .To(bob, display)
//                .WithSpec(spec)
//                .Open();
//
// The builder configures the session it will open: source, window, manager,
// adaptation policy and degradation callback are written straight into it.
class StreamBuilder {
 public:
  StreamBuilder(PegasusSystem* system, std::string name);

  StreamBuilder& From(Workstation* ws, dev::AtmCamera* camera);
  StreamBuilder& From(Workstation* ws, dev::AudioCapture* capture);
  // Any device endpoint on `ws` (tap points, relays, the host NIC).
  StreamBuilder& FromEndpoint(Workstation* ws, atm::Endpoint* endpoint);
  // Play-out of an existing continuous file from the storage server.
  StreamBuilder& FromStorage(StorageNode* storage, pfs::FileId file);

  // Routes the stream through `node` on its way to the sink: a processing
  // stage running `stage` is instantiated there, wired between the
  // incoming and outgoing legs' VCs. The stage's CPU demand comes from
  // spec.legs[k].compute_cpu (k = the Via() call's position) and is
  // admitted against the node's attached kernel atomically with every
  // other layer of the pipeline. May be called repeatedly for longer
  // chains.
  StreamBuilder& Via(ComputeNode* node, dev::TileProcessor::Config stage);

  // Each To*() call adds one sink end, paired with a control path back to
  // the source (§2.2): a duplex between the sink's host and a device
  // source's host, or one VC from the sink's host to a storage source.
  StreamBuilder& To(Workstation* ws, dev::AtmDisplay* display);
  StreamBuilder& To(Workstation* ws, dev::AudioPlayback* playback);
  StreamBuilder& ToEndpoint(Workstation* ws, atm::Endpoint* endpoint);
  // Record into a fresh continuous file; index marks for `stream_id` on the
  // control VC from the source host drive the time index.
  StreamBuilder& ToStorage(StorageNode* storage, uint32_t stream_id = 1);
  // One-to-many: adds every listed sink (displays, plain endpoints, storage
  // recorders — may be mixed) to the final leg's ONE shared tree. Joint
  // admission charges each tree edge once, so a trunk shared by a thousand
  // viewers reserves one stream's bandwidth; the counter-offer scales the
  // whole tree leg as a unit. Display and endpoint sinks added here only
  // receive (no control path); storage sinks record as with ToStorage.
  // Composes with To*() and Via(); ManagedBy() needs a single sink end.
  // Late joins ride StreamSession::AddSink.
  StreamBuilder& ToMany(const std::vector<MulticastSink>& sinks);

  StreamBuilder& WithSpec(const StreamSpec& spec);
  // Window on the sink display. w/h default to the source camera image.
  StreamBuilder& WithWindow(int x, int y, int w = 0, int h = 0);
  // Registers the session's CPU contracts with the QoS manager (clients are
  // matched to the manager's kernel), wiring its longer-timescale reviews to
  // the session's degradation callback. Needs a single sink end: Open()
  // refuses more.
  StreamBuilder& ManagedBy(nemesis::QosManagerDomain* manager, double weight = 1.0);
  // The CPU the sink end *wants* long-term, possibly more than the spec
  // admits now; the QoS manager grows the contract toward it as capacity
  // frees and shrinks it under pressure. Defaults to the spec's sink_cpu.
  StreamBuilder& RequestingSinkCpu(const nemesis::QosParams& cpu);
  // Attaches an adaptation policy: QoS-manager grant cuts, network
  // congestion signals and disk budget pressure each drive one joint
  // cross-layer renegotiation per the policy, instead of degrading CPU
  // alone.
  StreamBuilder& WithAdaptation(const AdaptationPolicy& policy);
  StreamBuilder& OnDegrade(StreamSession::DegradeCallback cb);

  // Runs cross-layer admission over the whole pipeline and, if every layer
  // accepts, binds the contract. On rejection nothing is left allocated.
  // Once admission passes the session is handed to the system, so a
  // builder opens once.
  StreamResult Open();

 private:
  struct ViaStage {
    ComputeNode* node = nullptr;
    dev::TileProcessor::Config config;
  };
  // A sink end as collected; `control` marks To*() ends (see To()).
  struct SinkEnd {
    MulticastSink sink;
    bool control = false;
  };

  std::unique_ptr<StreamSession> session_;
  StreamSpec spec_;
  std::vector<ViaStage> vias_;
  std::vector<SinkEnd> sinks_;
  StorageNode* source_storage_ = nullptr;
  pfs::FileId playback_file_ = -1;
  std::optional<nemesis::QosParams> requested_sink_cpu_;
};

}  // namespace pegasus::core

#endif  // PEGASUS_SRC_CORE_STREAM_H_
