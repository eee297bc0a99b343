#include "src/core/stream.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/core/compute_node.h"
#include "src/core/system.h"
#include "src/devices/audio.h"
#include "src/devices/display.h"
#include "src/nemesis/kernel.h"
#include "src/nemesis/scheduler.h"

namespace pegasus::core {

namespace {

// Spare guaranteed-CPU utilisation on a host kernel.
double CpuHeadroom(nemesis::Kernel* kernel) {
  return kernel->scheduler()->Capacity() - kernel->scheduler()->AdmittedUtilization();
}

// `slice` scaled into a proportionally fair share, with a small safety
// margin against floating-point admission arithmetic.
sim::DurationNs ScaledSlice(sim::DurationNs slice, double ratio) {
  if (ratio <= 0.0) {
    return 0;
  }
  return static_cast<sim::DurationNs>(static_cast<double>(slice) * ratio * 0.999);
}

// The CPU contract `handler` holds, or none.
nemesis::QosParams Held(const std::unique_ptr<nemesis::PeriodicDomain>& handler) {
  return handler != nullptr ? handler->qos() : nemesis::QosParams{};
}

AdmitFailure CpuFailure(int end) {
  return end == StreamSession::kSourceEnd ? AdmitFailure::kSourceCpu
         : end == StreamSession::kSinkEnd ? AdmitFailure::kSinkCpu
                                          : AdmitFailure::kComputeCpu;
}

// One CPU contract of the pipeline: an end host's protocol handler or a
// compute stage, identified by the session end index (0 = source host,
// 1 = sink host, 2+k = the stage terminating leg k).
struct CpuEndCheck {
  int end = 0;
  nemesis::Kernel* kernel = nullptr;
  nemesis::QosParams wanted;
  // Utilisation this stream already holds on the kernel (renegotiation).
  double old_util = 0.0;
  // Outputs.
  nemesis::QosParams clamped;
  bool failed = false;
};

// Joint CPU admission: contracts are grouped by kernel; a kernel whose
// summed demand exceeds its headroom (plus whatever the stream already
// holds there) scales every demand on it proportionally, in one pass —
// no first-failing-end-only counters.
void JointCpuCheck(std::vector<CpuEndCheck>* ends) {
  for (CpuEndCheck& e : *ends) {
    e.clamped = e.wanted;
  }
  for (auto it = ends->begin(); it != ends->end(); ++it) {
    const CpuEndCheck& e = *it;
    // Each kernel once, at its first contract.
    if (e.kernel == nullptr ||
        std::any_of(ends->begin(), it,
                    [&e](const CpuEndCheck& earlier) { return earlier.kernel == e.kernel; })) {
      continue;
    }
    double budget = CpuHeadroom(e.kernel);
    double total = 0.0;
    for (const CpuEndCheck& other : *ends) {
      if (other.kernel == e.kernel) {
        budget += other.old_util;
        total += other.wanted.Utilization();
      }
    }
    if (total <= budget + 1e-9) {
      continue;
    }
    const double ratio = budget > 0.0 ? budget / total : 0.0;
    for (CpuEndCheck& other : *ends) {
      if (other.kernel == e.kernel && other.wanted.slice > 0) {
        other.clamped.slice = ScaledSlice(other.wanted.slice, ratio);
        other.failed = true;
      }
    }
  }
}

// Joint per-link bandwidth admission over all legs of a pipeline. A link
// may recur across legs (a chain that revisits a switch) and within the tree
// leg (sinks sharing an edge); it carries each leg's demand once. Each
// overcommitted link scales the legs crossing it proportionally, which
// keeps the clamped set jointly admissible. `old_contrib` is the
// reservation each leg already holds (handed back for the purpose of the
// check; all zero on first admission).
void JointLinkCheck(const atm::Network& network,
                    const std::vector<std::vector<atm::Link*>>& leg_links,
                    const std::vector<int64_t>& wanted, const std::vector<int64_t>& old_contrib,
                    std::vector<int64_t>* clamped) {
  // Scratch indexed by link id, as the network's reservation ledger is. It
  // is clear between calls and each call clears what it touched, so a check
  // costs O(links visited), not O(links in the fabric).
  struct LinkLoad {
    int64_t demand = 0;
    int64_t add_back = 0;
    size_t counted_leg = 0;  // 1 + the last leg whose demand is in
  };
  thread_local std::vector<LinkLoad> loads;
  loads.resize(std::max(loads.size(), network.links().size()));
  auto load_of = [](const atm::Link* l) -> LinkLoad& {
    return loads[static_cast<size_t>(l->id())];
  };
  for (size_t i = 0; i < leg_links.size(); ++i) {
    for (const atm::Link* l : leg_links[i]) {
      LinkLoad& load = load_of(l);
      if (load.counted_leg == i + 1) {
        continue;
      }
      load.counted_leg = i + 1;
      if (wanted[i] > 0) {
        load.demand += wanted[i];
      }
      load.add_back += old_contrib[i];
    }
  }
  clamped->assign(wanted.begin(), wanted.end());
  for (size_t i = 0; i < leg_links.size(); ++i) {
    if (wanted[i] <= 0) {
      continue;
    }
    for (const atm::Link* l : leg_links[i]) {
      const LinkLoad& load = load_of(l);
      const int64_t available =
          std::max<int64_t>(0, network.AvailableBandwidth(l) + load.add_back);
      if (load.demand > available) {
        // 128-bit intermediate: wanted * available can exceed int64 for
        // absurd-but-legal specs, and signed overflow is UB.
        const int64_t share = static_cast<int64_t>(
            static_cast<__int128>(wanted[i]) * available / load.demand);
        (*clamped)[i] = std::min((*clamped)[i], share);
      }
    }
  }
  for (const std::vector<atm::Link*>& links : leg_links) {
    for (const atm::Link* l : links) {
      load_of(l) = LinkLoad{};
    }
  }
}

// The ATM endpoint a sink receives on: an explicit endpoint wins, a storage
// sink listens on the file server, a display sink on its device.
atm::Endpoint* SinkEndpoint(const MulticastSink& sink) {
  if (sink.endpoint != nullptr) {
    return sink.endpoint;
  }
  if (sink.storage != nullptr) {
    return sink.storage->endpoint();
  }
  if (sink.ws != nullptr && sink.display != nullptr) {
    return sink.ws->device_endpoint(sink.display);
  }
  return nullptr;
}

std::string JoinDetails(const std::vector<std::string>& details) {
  std::string joined;
  for (const std::string& d : details) {
    if (!joined.empty()) {
      joined += "; ";
    }
    joined += d;
  }
  return joined;
}

}  // namespace

const char* AdaptationTriggerName(AdaptationEvent::Trigger trigger) {
  switch (trigger) {
    case AdaptationEvent::Trigger::kCpuGrant:
      return "cpu-grant";
    case AdaptationEvent::Trigger::kNetworkCongestion:
      return "net-congestion";
    case AdaptationEvent::Trigger::kDiskPressure:
      return "disk-pressure";
    case AdaptationEvent::Trigger::kManual:
      return "manual";
  }
  return "unknown";
}

const char* AdmitFailureName(AdmitFailure failure) {
  switch (failure) {
    case AdmitFailure::kNone:
      return "none";
    case AdmitFailure::kEndpoint:
      return "endpoint";
    case AdmitFailure::kNoPath:
      return "no-path";
    case AdmitFailure::kNetworkBandwidth:
      return "network-bandwidth";
    case AdmitFailure::kLatency:
      return "latency";
    case AdmitFailure::kSourceCpu:
      return "source-cpu";
    case AdmitFailure::kSinkCpu:
      return "sink-cpu";
    case AdmitFailure::kComputeCpu:
      return "compute-cpu";
    case AdmitFailure::kDiskBandwidth:
      return "disk-bandwidth";
  }
  return "unknown";
}

// --- StreamSession ---

StreamSession::~StreamSession() = default;

void StreamSession::ReleaseCpuEnd(std::unique_ptr<nemesis::PeriodicDomain>* handler,
                                  nemesis::Kernel* kernel) {
  nemesis::PeriodicDomain* domain = handler->get();
  if (domain == nullptr) {
    return;
  }
  if (manager_ != nullptr) {
    manager_->Unregister(domain);
  }
  domain->Stop();
  if (kernel != nullptr && domain->kernel() == kernel) {
    kernel->RemoveDomain(domain);
  }
  // The object must outlive any pending job-release timer in the simulator;
  // Stop() made it inert, the graveyard keeps it alive.
  retired_handlers_.push_back(std::move(*handler));
}

nemesis::PeriodicDomain* StreamSession::EndHandler(int end) const {
  if (end == kSourceEnd) {
    return source_handler_.get();
  }
  if (end == kSinkEnd) {
    // Only a session with a single sink end can be QoS-managed, so the
    // manager's kSinkEnd is always sinks_.front().
    return sinks_.empty() ? nullptr : sinks_.front().handler.get();
  }
  const size_t leg = static_cast<size_t>(end - 2);
  return leg < legs_.size() ? legs_[leg].handler.get() : nullptr;
}

void StreamSession::OnGrantChanged(int end, const nemesis::GrantUpdate& update) {
  nemesis::PeriodicDomain* handler = EndHandler(end);
  if (handler == nullptr) {
    return;
  }
  // CPU across ends BEFORE the manager's move is folded in, so the logged
  // adaptation event shows the full per-layer movement of this epoch.
  const double cpu_before = GrantedCpuUtil();
  // The manager already applied the new contract through Kernel::UpdateQos;
  // reflect it in the cross-layer contract.
  if (end == kSourceEnd) {
    contract_.granted.source_cpu = handler->qos();
  } else if (end == kSinkEnd) {
    contract_.granted.sink_cpu = handler->qos();
  } else {
    const size_t leg = static_cast<size_t>(end - 2);
    if (leg < contract_.granted.legs.size()) {
      contract_.granted.legs[leg].compute_cpu = handler->qos();
    }
  }
  // Drive the adaptation plane: the steady-state share of this end's
  // long-term request becomes the end's limit fraction, and one joint
  // renegotiation moves every layer toward the min over all limits —
  // before the application hears about it, so the degradation callback
  // sees a coherent cross-layer contract. Self-limited grants (the stream's
  // own idleness, reclaimed) constrain nothing: the other layers could
  // still deliver.
  if (has_adaptation_ && active_) {
    double requested = 0.0;
    if (end == kSourceEnd) {
      requested = nominal_.source_cpu.Utilization();
    } else if (end == kSinkEnd) {
      requested = requested_sink_cpu_.Utilization();
    } else {
      requested = nominal_.LegComputeCpu(static_cast<size_t>(end - 2)).Utilization();
    }
    if (requested > 0.0) {
      if (!update.self_limited) {
        cpu_end_limits_[end] =
            std::clamp(update.steady_state_util / requested, 0.0, 1.0);
      }
      Adapt(AdaptationEvent::Trigger::kCpuGrant, update.reason, cpu_before);
    }
  }
  if (degrade_cb_) {
    degrade_cb_(contract_);
  }
}

double StreamSession::CombinedLimit() const {
  double limit = std::min(app_limit_, disk_limit_);
  for (const auto& [link, link_limit] : net_link_limits_) {
    (void)link;
    limit = std::min(limit, link_limit);
  }
  for (const auto& [end, end_limit] : cpu_end_limits_) {
    (void)end;
    limit = std::min(limit, end_limit);
  }
  return limit;
}

bool StreamSession::EndIsManaged(int end) const {
  if (manager_ == nullptr) {
    return false;
  }
  nemesis::PeriodicDomain* handler = EndHandler(end);
  return handler != nullptr && handler->kernel() != nullptr &&
         manager_->kernel() == handler->kernel();
}

double StreamSession::GrantedCpuUtil() const {
  double total = contract_.granted.source_cpu.Utilization() +
                 contract_.granted.sink_cpu.Utilization();
  for (size_t k = 0; k + 1 < legs_.size(); ++k) {
    total += contract_.granted.LegComputeCpu(k).Utilization();
  }
  return total;
}

int64_t StreamSession::GrantedNetBps() const {
  int64_t total = 0;
  for (const Leg& leg : legs_) {
    total += leg.granted_bps;
  }
  return total;
}

int64_t StreamSession::GrantedDiskBps() const {
  return disk_reserved_ ? contract_.granted.disk_bps : 0;
}

namespace {
// Oldest adaptation events are dropped past this; a managed session logs
// one event per manager epoch, which is unbounded over its lifetime.
constexpr size_t kAdaptationLogCap = 256;
}  // namespace

void StreamSession::LogAdaptationEvent(const AdaptationEvent& event) {
  adaptations_applied_ += event.applied ? 1 : 0;
  adaptations_held_ += event.held ? 1 : 0;
  if (adaptation_log_.size() >= kAdaptationLogCap) {
    adaptation_log_.erase(adaptation_log_.begin());
  }
  adaptation_log_.push_back(event);
}

void StreamSession::ApplySourcePacing() {
  if (legs_.empty()) {
    return;
  }
  // A zero rate un-paces (best effort rides at line rate), exactly like
  // the audio and storage branches below.
  const int64_t net = legs_.front().granted_bps;
  if (source_camera_ != nullptr) {
    source_camera_->set_pace_bps(net);
  }
  if (source_audio_ != nullptr) {
    source_audio_->set_pace_bps(net);
  }
  if (storage_ != nullptr && !recording_ && file_ >= 0) {
    // Play-out rides both the network and disk reservations; pace to the
    // tighter of the two (disk_bps is bytes/s, the pace is wire bits/s).
    int64_t pace = net;
    const int64_t disk_wire_bps = contract_.granted.disk_bps * 8;
    if (disk_wire_bps > 0 && (pace <= 0 || disk_wire_bps < pace)) {
      pace = disk_wire_bps;
    }
    storage_->SetPlayoutPaceBps(file_, pace);
  }
}

void StreamSession::BindAdaptationHooks() {
  if (!has_adaptation_) {
    return;
  }
  atm::Network& network = system_->network();
  for (const Leg& leg : legs_) {
    if (leg.vc < 0) {
      continue;
    }
    network.SetCongestionHandler(
        leg.vc, [this](atm::VcId, const atm::Link* link, double severity) {
          if (!active_) {
            return;
          }
          if (severity > 0.0) {
            net_link_limits_[link] = std::clamp(1.0 - severity, 0.0, 1.0);
          } else {
            net_link_limits_.erase(link);  // this link's condition cleared
          }
          Adapt(AdaptationEvent::Trigger::kNetworkCongestion,
                severity > 0.0 ? nemesis::GrantReason::kContention
                               : nemesis::GrantReason::kRestore,
                GrantedCpuUtil());
        });
  }
  RebindDiskPressureHook();
}

void StreamSession::RebindDiskPressureHook() {
  if (!has_adaptation_ || storage_ == nullptr || file_ < 0 || !disk_reserved_) {
    return;
  }
  storage_->server()->SetStreamPressureCallback(file_, [this](double fraction) {
    if (!active_) {
      return;
    }
    disk_limit_ = std::clamp(fraction, 0.0, 1.0);
    Adapt(AdaptationEvent::Trigger::kDiskPressure,
          fraction < 1.0 ? nemesis::GrantReason::kContention
                         : nemesis::GrantReason::kRestore,
          GrantedCpuUtil());
  });
}

StreamSpec StreamSession::ScaledSpec(double fraction) const {
  StreamSpec spec = contract_.granted;
  auto scaled_bps = [fraction](int64_t nominal) {
    return nominal > 0
               ? static_cast<int64_t>(std::llround(static_cast<double>(nominal) * fraction))
               : nominal;
  };
  auto scaled_cpu = [fraction](nemesis::QosParams nominal) {
    nominal.slice =
        static_cast<sim::DurationNs>(static_cast<double>(nominal.slice) * fraction);
    return nominal;
  };
  if (policy_.mode == AdaptationMode::kFrameRateScaling) {
    spec.frame_rate = nominal_.frame_rate * fraction;
  }
  // A pipeline's granted spec carries every leg; a one-leg session's
  // nominal rate is its leg's, stream-wide and in any explicit entry.
  const size_t nlegs = legs_.size();
  spec.bandwidth_bps = scaled_bps(nominal_.bandwidth_bps);
  for (size_t i = 0; i < nlegs && i < spec.legs.size(); ++i) {
    spec.legs[i].bandwidth_bps = scaled_bps(nominal_.LegBandwidthBps(i));
  }
  // CPU moves with the stream except where the manager owns the slice: a
  // managed end keeps the manager's current grant (contract_.granted).
  for (size_t k = 0; k + 1 < nlegs; ++k) {
    if (EndIsManaged(2 + static_cast<int>(k))) {
      continue;
    }
    const nemesis::QosParams nominal_cpu = nominal_.LegComputeCpu(k);
    if (nominal_cpu.slice > 0) {
      spec.legs[k].compute_cpu = scaled_cpu(nominal_cpu);
    }
  }
  if (!EndIsManaged(kSourceEnd) && nominal_.source_cpu.slice > 0) {
    spec.source_cpu = scaled_cpu(nominal_.source_cpu);
  }
  if (!EndIsManaged(kSinkEnd) && nominal_.sink_cpu.slice > 0) {
    spec.sink_cpu = scaled_cpu(nominal_.sink_cpu);
  }
  spec.disk_bps = scaled_bps(nominal_.disk_bps);
  return spec;
}

AdmissionReport StreamSession::AdaptTo(double target_fraction) {
  if (!has_adaptation_) {
    AdmissionReport report;
    report.verdict = AdmitVerdict::kRejected;
    report.detail = "no adaptation policy attached";
    return report;
  }
  app_limit_ = std::clamp(target_fraction, 0.0, 1.0);
  return Adapt(AdaptationEvent::Trigger::kManual,
               app_limit_ >= current_fraction_ ? nemesis::GrantReason::kRestore
                                               : nemesis::GrantReason::kContention,
               GrantedCpuUtil());
}

AdmissionReport StreamSession::Adapt(AdaptationEvent::Trigger trigger,
                                     nemesis::GrantReason reason, double cpu_util_before) {
  AdaptationEvent event;
  event.trigger = trigger;
  event.reason = reason;
  event.cpu_util_before = cpu_util_before;
  event.net_bps_before = GrantedNetBps();
  event.disk_bps_before = GrantedDiskBps();

  // Reclaim signals never updated a limit, so the combined target is
  // unchanged and hysteresis holds the contracts — the stream is idle by
  // choice, not degraded.
  const double target = std::clamp(CombinedLimit(), policy_.floor, 1.0);
  double next = current_fraction_ + policy_.smoothing * (target - current_fraction_);
  next = std::clamp(next, policy_.floor, 1.0);
  event.target_fraction = next;

  AdmissionReport report;
  if (std::abs(next - current_fraction_) < policy_.hysteresis) {
    event.held = true;
    event.cpu_util_after = GrantedCpuUtil();
    event.net_bps_after = event.net_bps_before;
    event.disk_bps_after = event.disk_bps_before;
    LogAdaptationEvent(event);
    report.verdict = AdmitVerdict::kAccepted;
    report.detail = "held";
    return report;
  }

  report = RenegotiateImpl(ScaledSpec(next), /*update_requests=*/false);
  if (report.ok()) {
    current_fraction_ = next;
  }
  event.applied = report.ok();
  event.cpu_util_after = GrantedCpuUtil();
  event.net_bps_after = GrantedNetBps();
  event.disk_bps_after = GrantedDiskBps();
  LogAdaptationEvent(event);
  // CPU-grant triggers fire the callback from OnGrantChanged (after the
  // manager's move is folded in); the other triggers report here, so the
  // application always sees the post-adaptation contract.
  if (report.ok() && trigger != AdaptationEvent::Trigger::kCpuGrant && degrade_cb_) {
    degrade_cb_(contract_);
  }
  return report;
}

AdmissionReport StreamSession::Renegotiate(const StreamSpec& spec) {
  return RenegotiateImpl(spec, /*update_requests=*/true);
}

AdmissionReport StreamSession::RenegotiateImpl(const StreamSpec& spec, bool update_requests) {
  AdmissionReport report;
  auto refuse = [&report](AdmitFailure failure, const char* detail) {
    report.verdict = AdmitVerdict::kRejected;
    report.failure = failure;
    report.detail = detail;
    return report;
  };
  if (!active_) {
    return refuse(AdmitFailure::kEndpoint, "session is closed");
  }
  atm::Network& network = system_->network();
  const size_t nlegs = legs_.size();

  // Per-call vectors, reused across renegotiations: nothing this pass calls
  // reaches a callback, so no nested pass can clobber them.
  struct CpuMove {
    CpuSlot slot;
    nemesis::QosParams wanted;
    nemesis::QosParams prev;
  };
  thread_local std::vector<int64_t> old_bps;
  thread_local std::vector<int64_t> wanted_bps;
  thread_local std::vector<std::vector<atm::Link*>> leg_links;
  thread_local std::vector<nemesis::QosParams> stage_cpu;
  thread_local std::vector<size_t> net_order;
  thread_local std::vector<CpuMove> moves;

  // Resolve the per-leg demands. Without Via() stages the stream-wide knob
  // applies; for a pipeline, entries missing from spec.legs keep the
  // leg's current grant (granted specs carry explicit legs, so editing
  // contract().granted renegotiates naturally).
  old_bps.resize(nlegs);
  wanted_bps.resize(nlegs);
  bool bandwidth_changed = false;
  for (size_t i = 0; i < nlegs; ++i) {
    old_bps[i] = legs_[i].granted_bps;
    const bool explicit_leg =
        i < spec.legs.size() && spec.legs[i].bandwidth_bps != LegSpec::kInheritBps;
    wanted_bps[i] = explicit_leg || nlegs == 1 ? spec.LegBandwidthBps(i) : old_bps[i];
    bandwidth_changed = bandwidth_changed || wanted_bps[i] != old_bps[i];
  }

  // ---- pre-check every layer jointly (the pass Open runs); nothing is
  // touched until all pass, so a refusal leaves the original contract fully
  // intact. A renegotiation that moves no bandwidth skips the link walk ----
  leg_links.resize(bandwidth_changed ? nlegs : 0);
  for (size_t i = 0; i < leg_links.size(); ++i) {
    const std::vector<atm::Link*>* links = network.VcLinks(legs_[i].vc);
    if (links == nullptr) {
      return refuse(AdmitFailure::kNoPath, "a leg's VC no longer exists");
    }
    leg_links[i] = *links;
  }
  if (spec.disk_bps > 0 && (storage_ == nullptr || file_ < 0)) {
    return refuse(AdmitFailure::kDiskBandwidth,
                  "disk rate demanded but the session has no single file to reserve");
  }
  if (!Admit(spec, leg_links, wanted_bps, file_ >= 0 ? storage_ : nullptr, &stage_cpu,
             &report)) {
    return report;
  }

  // ---- every layer accepts: apply network legs, then CPU, then disk, each
  // layer's decreases before its increases so shared links and kernels
  // never transiently overcommit. A layer refusing after the pre-check
  // moves whatever was applied back, in reverse ----
  net_order.resize(nlegs);
  std::iota(net_order.begin(), net_order.end(), size_t{0});
  std::sort(net_order.begin(), net_order.end(), [&](size_t a, size_t b) {
    return wanted_bps[a] - old_bps[a] < wanted_bps[b] - old_bps[b];
  });
  moves.clear();
  for (size_t i = 0; i < CpuSlotCount(); ++i) {
    const CpuSlot slot = CpuSlotAt(i);
    moves.push_back({slot, Demand(slot, spec, stage_cpu), Held(*slot.handler)});
  }
  std::sort(moves.begin(), moves.end(), [](const CpuMove& a, const CpuMove& b) {
    return a.wanted.Utilization() - a.prev.Utilization() <
           b.wanted.Utilization() - b.prev.Utilization();
  });
  size_t legs_done = 0;
  size_t moves_done = 0;
  auto move_back = [&]() {
    while (moves_done > 0) {
      const CpuMove& m = moves[--moves_done];
      SetCpu(m.slot, m.prev, LongTermRequest(m.slot, m.prev));
    }
    while (legs_done > 0) {
      const size_t i = net_order[--legs_done];
      if (wanted_bps[i] != old_bps[i]) {
        network.UpdateVcQos(legs_[i].vc, atm::QosSpec{old_bps[i]});
        legs_[i].granted_bps = old_bps[i];
      }
    }
  };
  for (; legs_done < nlegs; ++legs_done) {
    const size_t i = net_order[legs_done];
    if (wanted_bps[i] == old_bps[i]) {
      continue;
    }
    if (!network.UpdateVcQos(legs_[i].vc, atm::QosSpec{wanted_bps[i]})) {
      move_back();
      return refuse(AdmitFailure::kNetworkBandwidth,
                    "network re-admission refused after the joint pre-check");
    }
    legs_[i].granted_bps = wanted_bps[i];
  }
  // The forward move registers the renegotiated demand with the QoS
  // manager, unless the adaptation plane drives it (grants grow back).
  for (; moves_done < moves.size(); ++moves_done) {
    const CpuMove& m = moves[moves_done];
    if (!SetCpu(m.slot, m.wanted,
                update_requests ? m.wanted : LongTermRequest(m.slot, m.wanted))) {
      move_back();
      return refuse(CpuFailure(m.slot.end), "CPU re-admission refused after the joint pre-check");
    }
  }

  // Disk, by release-and-re-reserve.
  const int64_t old_disk_bps = contract_.granted.disk_bps;
  if (storage_ != nullptr && file_ >= 0 && spec.disk_bps != old_disk_bps) {
    pfs::PegasusFileServer* server = storage_->server();
    const bool was_reserved = disk_reserved_;
    if (disk_reserved_) {
      server->ReleaseStream(file_);
      disk_reserved_ = false;
    }
    if (spec.disk_bps > 0 && !server->ReserveStream(file_, spec.disk_bps)) {
      if (was_reserved && old_disk_bps > 0) {
        server->ReserveStream(file_, old_disk_bps);
        disk_reserved_ = true;
      }
      move_back();
      return refuse(AdmitFailure::kDiskBandwidth,
                    "PFS re-reservation refused after the joint pre-check");
    }
    disk_reserved_ = spec.disk_bps > 0;
  }

  // ---- bind the new contract; an application renegotiation states a new
  // nominal the adaptation plane scales from hereafter, with every signal
  // source's limit reset ----
  SetGranted(spec, contract_.granted.bandwidth_bps);
  if (update_requests) {
    requested_sink_cpu_ = spec.sink_cpu;
    nominal_ = contract_.granted;
    current_fraction_ = 1.0;
    app_limit_ = 1.0;
    disk_limit_ = 1.0;
    net_link_limits_.clear();
    cpu_end_limits_.clear();
  }
  ++contract_.renegotiations;
  ApplySourcePacing();
  // The disk release-and-re-reserve cycle dropped the pressure callback.
  RebindDiskPressureHook();
  report.verdict = AdmitVerdict::kAccepted;
  return report;
}

StreamSession::CpuSlot StreamSession::CpuSlotAt(size_t i) {
  const size_t nstages = legs_.empty() ? 0 : legs_.size() - 1;
  if (i == 0) {
    return {kSourceEnd, 0, source_ws_ != nullptr ? source_ws_->kernel() : nullptr,
            &source_handler_};
  }
  if (i <= nstages) {
    const size_t k = i - 1;
    return {2 + static_cast<int>(k), k,
            legs_[k].compute != nullptr ? legs_[k].compute->kernel() : nullptr,
            &legs_[k].handler};
  }
  return SinkSlot(sinks_[i - 1 - nstages], i - 1 - nstages);
}

StreamSession::CpuSlot StreamSession::SinkSlot(SinkBinding& b, size_t index) {
  return {kSinkEnd, index, b.sink.ws != nullptr ? b.sink.ws->kernel() : nullptr, &b.handler};
}

nemesis::QosParams StreamSession::Demand(const CpuSlot& slot, const StreamSpec& spec,
                                         const std::vector<nemesis::QosParams>& stage_cpu) {
  if (slot.end == kSourceEnd) {
    return spec.source_cpu;
  }
  return slot.end == kSinkEnd ? spec.sink_cpu : stage_cpu[slot.index];
}

nemesis::QosParams StreamSession::LongTermRequest(const CpuSlot& slot,
                                                  const nemesis::QosParams& qos) const {
  if (slot.end == kSourceEnd) {
    return nominal_.source_cpu;
  }
  return slot.end == kSinkEnd ? requested_sink_cpu_ : qos;
}

bool StreamSession::Admit(const StreamSpec& spec,
                          const std::vector<std::vector<atm::Link*>>& leg_links,
                          const std::vector<int64_t>& wanted_bps, StorageNode* disk_storage,
                          std::vector<nemesis::QosParams>* stage_cpu, AdmissionReport* report) {
  const size_t nlegs = legs_.size();
  const size_t nstages = nlegs - 1;
  stage_cpu->resize(nstages);
  for (size_t k = 0; k < nstages; ++k) {
    (*stage_cpu)[k] = k < spec.legs.size() ? spec.legs[k].compute_cpu : Held(legs_[k].handler);
  }
  StreamSpec counter = spec;
  std::vector<AdmitFailure> failures;
  std::vector<std::string> details;
  bool viable = true;
  auto fail = [&](AdmitFailure kind, const std::string& text, bool still_viable) {
    failures.push_back(kind);
    details.push_back(text);
    viable = viable && still_viable;
  };
  // Counter legs are materialised with the resolved demands so the offer is
  // self-contained: resubmitting it verbatim never silently drops a stage
  // contract the caller did not mention.
  auto counter_leg_slot = [&](size_t i) -> LegSpec* {
    while (counter.legs.size() < nlegs) {
      const size_t j = counter.legs.size();
      LegSpec filled;
      filled.bandwidth_bps = wanted_bps[j];
      if (j < nstages) {
        filled.compute_cpu = (*stage_cpu)[j];
      }
      counter.legs.push_back(filled);
    }
    return &counter.legs[i];
  };

  // Per-call vectors, reused: Admit reaches no callback, so no nested pass
  // can clobber them.
  thread_local std::vector<int64_t> clamped_bps;
  thread_local std::vector<int64_t> old_bps;
  thread_local std::vector<CpuEndCheck> ends;

  // 1. Network bandwidth, jointly on every link of every leg. A point-to-
  // point spec without an explicit leg entry takes its clamp on the
  // stream-wide knob instead of a materialised leg.
  clamped_bps.assign(wanted_bps.begin(), wanted_bps.end());
  if (!leg_links.empty()) {
    old_bps.resize(nlegs);
    for (size_t i = 0; i < nlegs; ++i) {
      old_bps[i] = legs_[i].granted_bps;
    }
    JointLinkCheck(system_->network(), leg_links, wanted_bps, old_bps, &clamped_bps);
  }
  const bool counter_streamwide =
      nlegs == 1 && (spec.legs.empty() || spec.legs[0].bandwidth_bps == LegSpec::kInheritBps);
  for (size_t i = 0; i < nlegs; ++i) {
    if (clamped_bps[i] >= wanted_bps[i]) {
      continue;
    }
    if (counter_streamwide) {
      counter.bandwidth_bps = clamped_bps[i];
    } else {
      counter_leg_slot(i)->bandwidth_bps = clamped_bps[i];
    }
    fail(AdmitFailure::kNetworkBandwidth,
         "leg " + std::to_string(i) + ": a traversed link lacks spare capacity",
         clamped_bps[i] > 0);
  }

  // 2. CPU at both ends and every compute stage, grouped per kernel.
  ends.clear();
  for (size_t i = 0; i < CpuSlotCount(); ++i) {
    const CpuSlot slot = CpuSlotAt(i);
    CpuEndCheck e;
    e.end = slot.end;
    e.kernel = slot.kernel;
    e.wanted = Demand(slot, spec, *stage_cpu);
    e.old_util = Held(*slot.handler).Utilization();
    if (e.wanted.slice > 0 && e.kernel == nullptr) {
      report->verdict = AdmitVerdict::kRejected;
      report->failure = CpuFailure(e.end);
      report->detail = "no kernel attached to the host";
      return false;
    }
    ends.push_back(e);
  }
  JointCpuCheck(&ends);
  for (const CpuEndCheck& e : ends) {
    if (!e.failed) {
      continue;
    }
    const char* what = "compute stage";
    if (e.end == kSourceEnd) {
      counter.source_cpu = e.clamped;
      what = "source";
    } else if (e.end == kSinkEnd) {
      // Every sink end carries its own entry, all at the same per-sink
      // demand; the joint offer must satisfy the tightest of them.
      if (e.clamped.slice < counter.sink_cpu.slice) {
        counter.sink_cpu = e.clamped;
      }
      what = "sink";
    } else {
      counter_leg_slot(static_cast<size_t>(e.end - 2))->compute_cpu = e.clamped;
    }
    fail(CpuFailure(e.end), std::string(what) + " CPU demand exceeds Atropos headroom",
         e.clamped.slice > 0);
  }

  // 3. Disk rate at the file server, its current share handed back.
  if (disk_storage != nullptr && spec.disk_bps != contract_.granted.disk_bps) {
    const int64_t available = disk_storage->server()->AvailableStreamBps() +
                              (disk_reserved_ ? contract_.granted.disk_bps : 0);
    if (spec.disk_bps > available) {
      counter.disk_bps = std::max<int64_t>(available, 0);
      fail(AdmitFailure::kDiskBandwidth, "PFS stream budget exhausted", available > 0);
    }
  }

  if (failures.empty()) {
    return true;
  }
  report->failure = failures.front();
  report->failures = std::move(failures);
  report->detail = JoinDetails(details);
  // A counter-offer is only useful if every demanded layer still has
  // something to give.
  report->verdict = viable ? AdmitVerdict::kCounterOffer : AdmitVerdict::kRejected;
  if (viable) {
    report->counter_offer = std::move(counter);
  }
  return false;
}

bool StreamSession::SetCpu(const CpuSlot& slot, const nemesis::QosParams& qos,
                           const nemesis::QosParams& request) {
  std::unique_ptr<nemesis::PeriodicDomain>& handler = *slot.handler;
  if (qos.slice <= 0) {
    ReleaseCpuEnd(slot.handler, slot.kernel);
    return true;
  }
  if (slot.kernel == nullptr) {
    return false;
  }
  if (handler == nullptr || handler->kernel() == nullptr) {
    const std::string suffix = slot.end == kSourceEnd ? "/src"
                               : slot.end == kSinkEnd ? "/snk" + std::to_string(slot.index)
                                                      : "/via" + std::to_string(slot.index);
    auto domain = std::make_unique<nemesis::PeriodicDomain>(
        system_->simulator(), name_ + suffix, qos, qos.slice, qos.period);
    if (!slot.kernel->AddDomain(domain.get())) {
      return false;
    }
    handler = std::move(domain);
  } else if (!slot.kernel->UpdateQos(handler.get(), qos)) {
    return false;
  }
  if (manager_ != nullptr && manager_->kernel() == slot.kernel) {
    manager_->Register(handler.get(), manager_weight_, request,
                       [this, end = slot.end](const nemesis::GrantUpdate& update) {
                         OnGrantChanged(end, update);
                       });
  }
  return true;
}

void StreamSession::SetGranted(const StreamSpec& spec, int64_t pipeline_bps) {
  StreamSpec& granted = contract_.granted;
  granted = spec;
  const size_t nlegs = legs_.size();
  if (nlegs > 1) {
    granted.bandwidth_bps = pipeline_bps;
    if (granted.legs.size() < nlegs) {
      granted.legs.resize(nlegs);
    }
  } else {
    granted.bandwidth_bps = legs_[0].granted_bps;
  }
  for (size_t i = 0; i < nlegs && i < granted.legs.size(); ++i) {
    granted.legs[i].bandwidth_bps = legs_[i].granted_bps;
  }
  if (source_handler_ != nullptr) {
    granted.source_cpu = source_handler_->qos();
  }
  for (size_t k = 0; k + 1 < nlegs; ++k) {
    if (legs_[k].handler != nullptr) {
      granted.legs[k].compute_cpu = legs_[k].handler->qos();
    }
  }
  if (const nemesis::PeriodicDomain* sink = EndHandler(kSinkEnd)) {
    granted.sink_cpu = sink->qos();
  }
}

AdmitFailure StreamSession::BindSink(SinkBinding& b, bool control) {
  if (window_.has_value() && b.sink.display != nullptr) {
    dev::WindowManager wm(b.sink.display);
    wm.CreateWindow(b.vci, window_->x, window_->y, window_->w, window_->h);
    b.window_created = true;
  }
  // Control path (§2.2): index marks ride a VC from the source host to a
  // recording sink; a To*() end pairs with the source — a duplex between
  // the two hosts, or one VC from the sink's host to a storage source.
  atm::Network& network = system_->network();
  std::optional<atm::VcDescriptor> to_far_end;
  std::optional<atm::VcDescriptor> back;
  if (b.sink.storage != nullptr) {
    if (source_ws_ != nullptr) {
      to_far_end = network.OpenVc(source_ws_->host(), b.sink.storage->endpoint());
      if (!to_far_end.has_value()) {
        return AdmitFailure::kNoPath;
      }
    }
  } else if (control && b.sink.ws != nullptr) {
    if (source_ws_ != nullptr) {
      auto duplex = network.OpenDuplex(b.sink.ws->host(), source_ws_->host());
      if (!duplex.has_value()) {
        return AdmitFailure::kNoPath;
      }
      to_far_end = duplex->first;
      back = duplex->second;
    } else {
      to_far_end = network.OpenVc(b.sink.ws->host(), source_ep_);
      if (!to_far_end.has_value()) {
        return AdmitFailure::kNoPath;
      }
    }
  }
  if (to_far_end.has_value()) {
    b.control_vcs.push_back(to_far_end->id);
    if (back.has_value()) {
      b.control_vcs.push_back(back->id);
    }
    if (control_send_vci_ == atm::kVciUnassigned) {
      control_send_vci_ = to_far_end->source_vci;
    }
  }
  if (b.sink.storage != nullptr) {
    b.record_file = b.sink.storage->StartRecording(
        b.vci, to_far_end.has_value() ? to_far_end->destination_vci : atm::kVciUnassigned,
        b.sink.record_stream_id);
  }
  return AdmitFailure::kNone;
}

void StreamSession::UnbindSink(SinkBinding& b) {
  atm::Network& network = system_->network();
  if (b.record_file >= 0) {
    b.sink.storage->StopRecording(b.vci, []() {});
    b.record_file = -1;
  }
  if (b.window_created) {
    dev::WindowManager wm(b.sink.display);
    wm.DestroyWindow(b.vci);
    b.window_created = false;
  }
  ReleaseCpuEnd(&b.handler, b.sink.ws != nullptr ? b.sink.ws->kernel() : nullptr);
  for (atm::VcId vc : b.control_vcs) {
    network.CloseVc(vc);
  }
  b.control_vcs.clear();
}

void StreamSession::RefreshTreeLeg() {
  if (const atm::VcDescriptor* desc = system_->network().GetVc(legs_.back().vc)) {
    contract_.hop_count += desc->hop_count - legs_.back().hop_count;
    legs_.back().hop_count = desc->hop_count;
    legs_.back().sink_vci = desc->destination_vci;
  }
}

std::optional<atm::Vci> StreamSession::SinkVci(const atm::Endpoint* endpoint) const {
  for (const SinkBinding& b : sinks_) {
    if (b.sink.endpoint == endpoint) {
      return b.vci;
    }
  }
  return std::nullopt;
}

AdmissionReport StreamSession::AddSink(const MulticastSink& sink) {
  AdmissionReport report;
  report.verdict = AdmitVerdict::kRejected;
  auto refuse = [&report](AdmitFailure failure, const char* detail) {
    report.failure = failure;
    report.detail = detail;
    return report;
  };
  if (!active_ || legs_.empty()) {
    return refuse(AdmitFailure::kEndpoint, "session is closed");
  }
  atm::Network& network = system_->network();
  atm::Endpoint* ep = SinkEndpoint(sink);
  if (ep == nullptr) {
    return refuse(AdmitFailure::kEndpoint, "sink names no endpoint");
  }
  if (SinkVci(ep).has_value()) {
    return refuse(AdmitFailure::kEndpoint, "endpoint is already a sink");
  }
  if (manager_ != nullptr) {
    return refuse(AdmitFailure::kEndpoint, "a QoS-managed session keeps a single sink end");
  }
  if (sink.storage != nullptr && disk_reserved_) {
    return refuse(AdmitFailure::kDiskBandwidth, "the disk reservation covers one file");
  }
  // The graft must meet the session's latency bound like any original sink.
  if (contract_.granted.latency_bound > 0) {
    atm::Endpoint* tree_source =
        legs_.size() > 1 ? legs_[legs_.size() - 2].compute->endpoint() : source_ep_;
    auto route = network.ResolveRoute(tree_source, ep);
    if (!route.has_value()) {
      return refuse(AdmitFailure::kNoPath, "no switch path to the new sink");
    }
    if (upstream_latency_ns_ + route->latency_ns > contract_.granted.latency_bound) {
      return refuse(AdmitFailure::kLatency, "graft path exceeds the latency bound");
    }
  }
  // Graft admission: AddLeaf checks (and charges) ONLY the links the graft
  // newly adds — links the tree already crosses are free.
  auto vci = network.AddLeaf(legs_.back().vc, ep);
  if (!vci.has_value()) {
    return refuse(AdmitFailure::kNetworkBandwidth,
                  "graft admission refused (no path or a new link lacks capacity)");
  }
  SinkBinding b;
  b.sink = sink;
  b.sink.endpoint = ep;
  b.vci = *vci;
  // Sink CPU on the new sink's host alone — the rest of the session is
  // untouched.
  const AdmitFailure failure =
      SetCpu(SinkSlot(b, sinks_.size()), contract_.granted.sink_cpu, requested_sink_cpu_)
          ? BindSink(b, false)
          : AdmitFailure::kSinkCpu;
  if (failure != AdmitFailure::kNone) {
    UnbindSink(b);
    network.RemoveLeaf(legs_.back().vc, ep);
    return refuse(failure, failure == AdmitFailure::kSinkCpu
                               ? "sink host CPU refused the contract"
                               : "control VC establishment failed");
  }
  if (b.record_file >= 0 && file_ < 0) {
    storage_ = b.sink.storage;
    file_ = b.record_file;
    recording_ = true;
  } else if (b.record_file >= 0 && recording_) {
    storage_ = nullptr;  // several recordings: no one file for a disk rate
  }
  sinks_.push_back(std::move(b));
  RefreshTreeLeg();
  report.verdict = AdmitVerdict::kAccepted;
  report.failure = AdmitFailure::kNone;
  return report;
}

bool StreamSession::RemoveSink(const atm::Endpoint* endpoint) {
  // The last sink cannot be pruned (the network refuses a leafless tree);
  // Close() the session instead.
  if (!active_ || sinks_.size() <= 1) {
    return false;
  }
  auto it = std::find_if(sinks_.begin(), sinks_.end(), [endpoint](const SinkBinding& b) {
    return b.sink.endpoint == endpoint;
  });
  if (it == sinks_.end()) {
    return false;
  }
  if (recording_ && it->record_file == file_) {
    // The session's disk file stops with this sink, and its rate with it.
    if (disk_reserved_) {
      storage_->server()->ReleaseStream(file_);
      disk_reserved_ = false;
    }
    storage_ = nullptr;
    file_ = -1;
    recording_ = false;
    contract_.granted.disk_bps = 0;
    nominal_.disk_bps = 0;
  }
  UnbindSink(*it);
  system_->network().RemoveLeaf(legs_.back().vc, it->sink.endpoint);
  sinks_.erase(it);
  RefreshTreeLeg();
  return true;
}

void StreamSession::Close() {
  if (!active_) {
    return;
  }
  active_ = false;
  atm::Network& network = system_->network();

  // Sink ends: recording, window, per-host CPU and control path, before
  // the tree VC below releases the shared reservations.
  for (SinkBinding& b : sinks_) {
    UnbindSink(b);
  }

  // Storage layer: stop the play-out, release the rate reservation (which
  // also drops the budget-pressure subscription) and the play-out pacing.
  if (storage_ != nullptr) {
    if (!recording_ && file_ >= 0) {
      storage_->StopPlayback(file_);
      storage_->SetPlayoutPaceBps(file_, 0);
    }
    if (disk_reserved_) {
      storage_->server()->ReleaseStream(file_);
      disk_reserved_ = false;
    }
  }

  // CPU layer: retire the source's handler domain and its registration.
  ReleaseCpuEnd(&source_handler_, source_ws_ != nullptr ? source_ws_->kernel() : nullptr);

  // Compute layer: detach every stage (no more packets reach it) and
  // release its contract domain.
  for (Leg& leg : legs_) {
    if (leg.compute != nullptr && leg.processor != nullptr) {
      leg.compute->DetachStage(leg.processor);
    }
    ReleaseCpuEnd(&leg.handler, leg.compute != nullptr ? leg.compute->kernel() : nullptr);
  }

  // Network layer: close every leg's VC, releasing every link reservation.
  for (Leg& leg : legs_) {
    if (leg.vc >= 0) {
      network.CloseVc(leg.vc);
      leg.vc = -1;
    }
  }
}

// --- StreamBuilder ---

StreamBuilder::StreamBuilder(PegasusSystem* system, std::string name)
    : session_(new StreamSession()) {
  session_->name_ = std::move(name);
  session_->system_ = system;
}

StreamBuilder& StreamBuilder::From(Workstation* ws, dev::AtmCamera* camera) {
  FromEndpoint(ws, ws != nullptr ? ws->device_endpoint(camera) : nullptr);
  session_->source_camera_ = camera;
  return *this;
}

StreamBuilder& StreamBuilder::From(Workstation* ws, dev::AudioCapture* capture) {
  FromEndpoint(ws, ws != nullptr ? ws->device_endpoint(capture) : nullptr);
  session_->source_audio_ = capture;
  return *this;
}

StreamBuilder& StreamBuilder::FromEndpoint(Workstation* ws, atm::Endpoint* endpoint) {
  session_->source_ws_ = ws;
  session_->source_ep_ = endpoint;
  return *this;
}

StreamBuilder& StreamBuilder::FromStorage(StorageNode* storage, pfs::FileId file) {
  source_storage_ = storage;
  session_->source_ep_ = storage != nullptr ? storage->endpoint() : nullptr;
  playback_file_ = file;
  return *this;
}

StreamBuilder& StreamBuilder::Via(ComputeNode* node, dev::TileProcessor::Config stage) {
  ViaStage via;
  via.node = node;
  via.config = std::move(stage);
  vias_.push_back(std::move(via));
  return *this;
}

StreamBuilder& StreamBuilder::To(Workstation* ws, dev::AtmDisplay* display) {
  SinkEnd end{{}, true};
  end.sink.ws = ws;
  end.sink.display = display;
  sinks_.push_back(end);
  return *this;
}

StreamBuilder& StreamBuilder::To(Workstation* ws, dev::AudioPlayback* playback) {
  return ToEndpoint(ws, ws != nullptr ? ws->device_endpoint(playback) : nullptr);
}

StreamBuilder& StreamBuilder::ToEndpoint(Workstation* ws, atm::Endpoint* endpoint) {
  SinkEnd end{{}, true};
  end.sink.ws = ws;
  end.sink.endpoint = endpoint;
  sinks_.push_back(end);
  return *this;
}

StreamBuilder& StreamBuilder::ToStorage(StorageNode* storage, uint32_t stream_id) {
  SinkEnd end{{}, true};
  end.sink.storage = storage;
  end.sink.record_stream_id = stream_id;
  sinks_.push_back(end);
  return *this;
}

StreamBuilder& StreamBuilder::ToMany(const std::vector<MulticastSink>& sinks) {
  for (const MulticastSink& sink : sinks) {
    sinks_.push_back({sink, false});
  }
  return *this;
}

StreamBuilder& StreamBuilder::WithSpec(const StreamSpec& spec) {
  spec_ = spec;
  return *this;
}

StreamBuilder& StreamBuilder::WithWindow(int x, int y, int w, int h) {
  session_->window_ = StreamSession::Window{x, y, w, h};
  return *this;
}

StreamBuilder& StreamBuilder::ManagedBy(nemesis::QosManagerDomain* manager, double weight) {
  session_->manager_ = manager;
  session_->manager_weight_ = weight;
  return *this;
}

StreamBuilder& StreamBuilder::RequestingSinkCpu(const nemesis::QosParams& cpu) {
  requested_sink_cpu_ = cpu;
  return *this;
}

StreamBuilder& StreamBuilder::WithAdaptation(const AdaptationPolicy& policy) {
  session_->has_adaptation_ = true;
  session_->policy_ = policy;
  return *this;
}

StreamBuilder& StreamBuilder::OnDegrade(StreamSession::DegradeCallback cb) {
  session_->degrade_cb_ = std::move(cb);
  return *this;
}

StreamResult StreamBuilder::Open() {
  StreamResult result;
  AdmissionReport& report = result.report;
  StreamSession* s = session_.get();
  PegasusSystem* system = s->system_;
  atm::Network& network = system->network();
  auto reject = [&](AdmitFailure failure, std::string detail) {
    report.verdict = AdmitVerdict::kRejected;
    report.failure = failure;
    report.detail = std::move(detail);
    return result;
  };

  // Per-call vectors, reused across opens. They are live only until the
  // legs' VCs are open, and nothing before that reaches a callback, so an
  // Open nested in a callback cannot clobber them; the binding below reads
  // the session instead.
  thread_local std::vector<atm::Endpoint*> sink_eps;
  thread_local std::vector<atm::Endpoint*> heads;
  thread_local std::vector<int64_t> wanted_bps;
  thread_local std::vector<std::vector<atm::Link*>> leg_links;

  // --- resolve endpoints: source, every compute detour, every sink ---
  sink_eps.clear();
  int recorders = 0;
  for (const SinkEnd& end : sinks_) {
    sink_eps.push_back(SinkEndpoint(end.sink));
    recorders += end.sink.storage != nullptr ? 1 : 0;
  }
  if (s->source_ep_ == nullptr || sink_eps.empty() ||
      std::count(sink_eps.begin(), sink_eps.end(), nullptr) > 0) {
    return reject(AdmitFailure::kEndpoint, "source or sink endpoint missing");
  }
  for (const ViaStage& via : vias_) {
    if (via.node == nullptr || via.node->endpoint() == nullptr) {
      return reject(AdmitFailure::kEndpoint, "compute node missing");
    }
  }
  if (s->manager_ != nullptr && sinks_.size() > 1) {
    return reject(AdmitFailure::kEndpoint,
                  "QoS-manager registration needs a single sink end");
  }
  // Legs in path order: one per Via() stage, then the tree leg from the
  // last stage to every sink.
  heads.clear();
  heads.push_back(s->source_ep_);
  for (const ViaStage& via : vias_) {
    heads.push_back(via.node->endpoint());
  }
  const size_t nstages = vias_.size();
  const size_t nlegs = nstages + 1;
  wanted_bps.resize(nlegs);
  for (size_t i = 0; i < nlegs; ++i) {
    wanted_bps[i] = spec_.LegBandwidthBps(i);
  }

  // --- cross-layer admission: check EVERY layer of EVERY leg in one pass
  // before binding anything, collecting all failures into one joint
  // counter-offer (the pass Renegotiate runs) ---
  // One ResolveRoute per leg and per sink serves the joint bandwidth check
  // and the latency check. The tree leg's links are its sinks' routes
  // laid end to end; the joint check charges a shared edge once.
  leg_links.resize(nlegs);
  for (std::vector<atm::Link*>& links : leg_links) {
    links.clear();
  }
  sim::DurationNs upstream_latency = 0;
  for (size_t i = 0; i < nstages; ++i) {
    auto route = network.ResolveRoute(heads[i], heads[i + 1]);
    if (!route.has_value()) {
      return reject(AdmitFailure::kNoPath, "no switch path on leg " + std::to_string(i));
    }
    upstream_latency += route->latency_ns;
    leg_links[i] = std::move(route->links);
  }
  sim::DurationNs deepest = 0;
  for (atm::Endpoint* ep : sink_eps) {
    auto route = network.ResolveRoute(heads.back(), ep);
    if (!route.has_value()) {
      return reject(AdmitFailure::kNoPath, "no switch path on leg " + std::to_string(nstages));
    }
    deepest = std::max(deepest, route->latency_ns);
    if (leg_links.back().empty()) {
      leg_links.back() = std::move(route->links);
    } else {
      leg_links.back().insert(leg_links.back().end(), route->links.begin(), route->links.end());
    }
  }

  // Latency bound against the chain's delivery-time floor: the legs before
  // the tree plus its deepest sink. A resolved leg always carries its
  // latency, so an uncomputable floor is a kNoPath rejection above — never
  // silently treated as zero latency.
  if (spec_.latency_bound > 0 && upstream_latency + deepest > spec_.latency_bound) {
    return reject(AdmitFailure::kLatency, "chain latency floor exceeds the bound");
  }

  // Disk rate applies to the session's one file: the single recording
  // sink's, else the play-out.
  StorageNode* disk_storage = source_storage_;
  for (const SinkEnd& end : sinks_) {
    if (end.sink.storage != nullptr) {
      disk_storage = recorders == 1 ? end.sink.storage : nullptr;
    }
  }
  if (spec_.disk_bps > 0 && disk_storage == nullptr) {
    return reject(AdmitFailure::kDiskBandwidth,
                  "disk rate demanded but the session has no single file to reserve");
  }

  // The session's legs (each with its compute node, no VC yet) and sink
  // ends (each with its endpoint, nothing bound), so admission sees every
  // CPU contract the chain will hold.
  s->legs_.resize(nlegs);
  for (size_t k = 0; k < nstages; ++k) {
    s->legs_[k].compute = vias_[k].node;
  }
  s->sinks_.resize(sinks_.size());
  for (size_t i = 0; i < sinks_.size(); ++i) {
    s->sinks_[i].sink = sinks_[i].sink;
    s->sinks_[i].sink.endpoint = sink_eps[i];
  }
  std::vector<nemesis::QosParams> stage_cpu;
  if (!s->Admit(spec_, leg_links, wanted_bps, disk_storage, &stage_cpu, &report)) {
    return result;
  }

  // --- every layer accepts: bind the whole chain ---
  s->upstream_latency_ns_ = upstream_latency;
  if (s->window_.has_value() && (s->window_->w == 0 || s->window_->h == 0) &&
      s->source_camera_ != nullptr) {
    s->window_->w = s->source_camera_->config().width;
    s->window_->h = s->source_camera_->config().height;
  }
  s->requested_sink_cpu_ = requested_sink_cpu_.value_or(spec_.sink_cpu);
  s->active_ = true;
  auto fail = [&](AdmitFailure failure, std::string detail) {
    s->Close();
    system->AdoptSession(std::move(session_));
    return reject(failure, std::move(detail));
  };

  // Network: one reserved VC per leg, the last a tree to every sink.
  for (size_t i = 0; i < nlegs; ++i) {
    const atm::QosSpec qos{wanted_bps[i]};
    auto vc = i < nstages ? network.OpenVc(heads[i], heads[i + 1], qos)
                          : network.OpenVc(heads[i], sink_eps, qos);
    if (!vc.has_value()) {
      return fail(AdmitFailure::kNetworkBandwidth,
                  "VC establishment failed after admission on leg " + std::to_string(i));
    }
    StreamSession::Leg& leg = s->legs_[i];
    leg.vc = vc->id;
    leg.source_vci = vc->source_vci;
    leg.sink_vci = vc->destination_vci;
    leg.granted_bps = wanted_bps[i];
    leg.hop_count = vc->hop_count;
    s->contract_.hop_count += vc->hop_count;
  }

  // Compute: instantiate each detour's processing stage between its
  // incoming and outgoing legs.
  for (size_t k = 0; k < nstages; ++k) {
    s->legs_[k].processor = vias_[k].node->AddStage(
        s->legs_[k].sink_vci, s->legs_[k + 1].source_vci, vias_[k].config);
  }

  // CPU: every contract in path order, through scheduler admission.
  for (size_t i = 0; i < s->CpuSlotCount(); ++i) {
    const StreamSession::CpuSlot slot = s->CpuSlotAt(i);
    const nemesis::QosParams qos = StreamSession::Demand(slot, spec_, stage_cpu);
    if (!s->SetCpu(slot, qos,
                   slot.end == StreamSession::kSinkEnd ? s->requested_sink_cpu_ : qos)) {
      return fail(CpuFailure(slot.end),
                  "scheduler admission refused the contract after the headroom check");
    }
  }

  // Sinks: each end's window, control path and recording, through the
  // routine AddSink reuses.
  const atm::VcId tree = s->legs_.back().vc;
  for (size_t i = 0; i < sinks_.size(); ++i) {
    StreamSession::SinkBinding& b = s->sinks_[i];
    b.vci = network.LeafVci(tree, b.sink.endpoint).value_or(atm::kVciUnassigned);
    const AdmitFailure failure = s->BindSink(b, sinks_[i].control);
    if (failure != AdmitFailure::kNone) {
      return fail(failure, "control VC establishment failed");
    }
    if (b.record_file >= 0 && s->file_ < 0) {
      s->file_ = b.record_file;
      s->recording_ = true;
    }
  }

  // Storage: the disk rate rides the session's one file.
  if (s->file_ < 0 && source_storage_ != nullptr) {
    s->file_ = playback_file_;
  }
  s->storage_ = disk_storage;
  if (spec_.disk_bps > 0 && s->file_ >= 0) {
    if (!disk_storage->server()->ReserveStream(s->file_, spec_.disk_bps)) {
      return fail(AdmitFailure::kDiskBandwidth, "PFS reservation refused after the budget check");
    }
    s->disk_reserved_ = true;
  }

  // The granted contract carries fully explicit legs for pipelines, so
  // callers renegotiate by editing contract().granted. As admitted it is
  // the nominal (full-rate) point the adaptation plane scales from and
  // restores toward.
  s->SetGranted(spec_, spec_.bandwidth_bps);
  s->contract_.established_at = system->simulator()->now();
  s->nominal_ = s->contract_.granted;

  // Pace every media source to the granted rates so the reservations hold
  // (camera and audio to the first leg, storage play-out to min(net, disk)),
  // and subscribe the session to the other layers' degradation signals.
  s->ApplySourcePacing();
  s->BindAdaptationHooks();

  report.verdict = AdmitVerdict::kAccepted;
  report.failure = AdmitFailure::kNone;
  result.session = s;
  system->AdoptSession(std::move(session_));
  return result;
}

}  // namespace pegasus::core
