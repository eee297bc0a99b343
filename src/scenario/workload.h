// Session-churn workload engine for metro-scale scenarios.
//
// Drives a generated metro fabric the way a city drives it: calls arrive as
// a Poisson process, each opening a cross-layer StreamBuilder contract —
// phone calls between workstations, video-on-demand play-outs from the
// storage tier, recorder streams into it — holding it for an exponential
// time, perhaps renegotiating mid-life, then departing. Content popularity
// is Zipf-distributed over the catalog, so a handful of titles (and the
// storage node shelving them) take most of the load.
//
// Everything stochastic draws from per-purpose seeded sim::Rng streams —
// arrival spacing, session mix/placement, holding times and per-session
// fates each have their own stream, so changing (say) the data-session
// fraction cannot shift which sessions arrive or where they go — and every
// schedule lives on the simulator clock, so a (topology, params, duration)
// triple replays bit-for-bit: identical seeds produce identical
// FleetMetrics fingerprints. The only wall-clock observations
// (admission-call latency, sustained cells/s) are kept outside the
// fingerprint.
//
// When the system's network carries a sim::ShardGroup, Run() drives the
// group instead of the bare simulator: churn control stays on the control
// simulator (global sync points) while the shards advance the data plane
// in conservative windows. Metrics are bit-identical either way.
#ifndef PEGASUS_SRC_SCENARIO_WORKLOAD_H_
#define PEGASUS_SRC_SCENARIO_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/pfs/server.h"
#include "src/scenario/metrics.h"
#include "src/scenario/topology.h"
#include "src/sim/random.h"

namespace pegasus::scenario {

// The choices a fleet run makes. Everything else about the offered load —
// per-type session rates, Zipf skews, the broadcast tier's channel count
// and rate, the renegotiation cut and the metrics cadence — is a constant of
// workload.cc.
struct WorkloadParams {
  uint64_t seed = 1;

  // Session churn: Poisson arrivals, exponential holding times.
  double arrivals_per_sec = 20.0;
  double mean_holding_sec = 5.0;

  // Session mix (normalised internally).
  double phone_weight = 0.55;
  double vod_weight = 0.35;
  double record_weight = 0.10;

  // Content popularity: Zipf rank over the whole catalog, laid out
  // storage-major so the hottest titles pile onto the first storage node.
  // The PFS reservation ledger and the play-out engine are per-file, so a
  // title can be on the air once; a viewer finding it busy probes down the
  // popularity ranking and blocks only when every title is playing. The
  // catalog geometry is fixed; it stays readable here for code that seeds
  // the same catalog.
  static constexpr int catalog_files_per_storage = 32;
  static constexpr int catalog_records_per_file = 64;
  static constexpr int catalog_record_bytes = 4096;
  static constexpr sim::DurationNs catalog_record_cadence = sim::Milliseconds(40);

  // Broadcast head-end tier: Zipf-popular live channels viewers join and
  // leave. Each channel is ONE multicast tree sourced at a deterministic
  // edge host; a viewer arrival grafts a leaf (StreamSession::AddSink), a
  // departure prunes it, and the last viewer's departure closes the tree.
  // Weight 0.0 (the default) draws nothing from any RNG stream, keeping
  // legacy mixes bit-identical.
  double broadcast_weight = 0.0;

  // Fraction of admitted sessions that actually move cells (live frame
  // sources / real play-outs) rather than holding reservations only; keeps
  // fleet-sized runs tractable while still exercising the data plane.
  double data_session_fraction = 0.05;
  // Fraction of sessions that renegotiate their contract down mid-life.
  double renegotiate_fraction = 0.10;

  // The adaptation policy every fleet session carries: the default policy
  // with a floor of a quarter of the nominal contract.
  static constexpr core::AdaptationPolicy adaptation = [] {
    core::AdaptationPolicy policy;
    policy.floor = 0.25;
    return policy;
  }();

  // Closed-loop monitoring over the whole fabric; adaptation convergence
  // metrics need it (nothing else degrades fleet sessions).
  bool enable_qos_monitor = false;
};

class ScenarioEngine {
 public:
  // `system` and `topo` must outlive the engine. Seeds the VOD catalog on
  // construction (before any churn) when the mix plays video on demand.
  ScenarioEngine(core::PegasusSystem* system, const MetroTopology* topo, WorkloadParams params);

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  // Drives churn for `duration` of simulated time and finalises the
  // metrics. One shot: call once per engine.
  const FleetMetrics& Run(sim::DurationNs duration);

  const FleetMetrics& metrics() const { return metrics_; }

 private:
  enum class SessionType { kPhone, kVod, kRecord, kBroadcast };

  // Adaptation history of one session, polled off its applied counter: the
  // counter's watermark and the sim times the first/last applied change was
  // observed at.
  struct AdaptationWatch {
    int64_t applied_seen = 0;
    sim::TimeNs first_applied_at = -1;
    sim::TimeNs last_applied_at = -1;
  };

  // A unicast session, or one broadcast viewer. A viewer holds no session
  // of its own: its channel owns the tree, frame driving and adaptation
  // history.
  struct ActiveSession {
    core::StreamSession* session = nullptr;  // null for broadcast viewers
    SessionType type = SessionType::kPhone;
    core::Workstation* source_ws = nullptr;  // frame-driving end (phone/record)
    int catalog_index = -1;                  // busy flag to drop on departure
    int channel = -1;                        // broadcast: channel this viewer watches
    atm::Endpoint* viewer_ep = nullptr;      // broadcast: this viewer's leaf endpoint
    AdaptationWatch watch;
  };

  // One live broadcast channel: a single multicast tree every viewer of the
  // channel shares. The first viewer's arrival opens the tree with itself
  // as the only leaf; later viewers graft (AddSink) and prune (RemoveSink)
  // leaves at runtime; the last viewer's departure closes the tree.
  struct BroadcastChannel {
    core::StreamSession* session = nullptr;
    core::Workstation* head = nullptr;
    int viewers = 0;
    int64_t generation = 0;  // guards stale frame-driving chains across reopen
    AdaptationWatch watch;
  };

  void SeedCatalog();
  void ScheduleNextArrival();
  void OnArrival();
  void OnBroadcastArrival(int64_t id, int channel, int viewer_draw, sim::DurationNs holding,
                          bool drives_data);
  void OnDeparture(int64_t id);
  void OnRenegotiate(int64_t id);
  void DriveFrames(int64_t id);
  void DriveChannelFrames(int channel, int64_t generation);
  // Sends one frame interval's worth of `session`'s granted rate from `ws`,
  // paced onto the wire through the token-bucket shaper; every payload
  // byte is `fill`.
  void SendFrame(core::Workstation* ws, core::StreamSession* session, uint8_t fill);
  void OnMetricsTick();
  // Advances `watch` to `session`'s applied-adaptation counter (a null or
  // non-adapting session has nothing to poll).
  void Poll(const core::StreamSession* session, AdaptationWatch* watch);
  // Folds a finished watch into the convergence metrics and resets it.
  void Finish(AdaptationWatch* watch);
  // Runs one admission call (Open or AddSink), timing exactly that call on
  // the host clock into the admission metrics, and returns its result.
  template <typename Admit>
  auto TimeAdmission(Admit admit);
  void RecordBlock(const core::AdmissionReport& report);
  // First non-busy catalog index at or below rank `rank` in popularity
  // order (wrapping), or -1 when the whole catalog is on the air.
  int ProbeCatalog(int rank);

  core::PegasusSystem* system_;
  const MetroTopology* topo_;
  WorkloadParams params_;
  sim::Simulator* sim_;
  // Independent per-purpose streams, all derived from params.seed: arrival
  // spacing, session mix + placement + content choice, holding times, and
  // per-session fates (drives data / renegotiates).
  sim::Rng arrival_rng_;
  sim::Rng mix_rng_;
  sim::Rng holding_rng_;
  sim::Rng fate_rng_;

  // Catalog, popularity-ranked: index i is the i-th most popular title.
  std::vector<pfs::FileId> catalog_files_;
  std::vector<int> catalog_storage_;
  std::vector<bool> catalog_busy_;

  std::vector<BroadcastChannel> channels_;
  std::map<int64_t, ActiveSession> active_;
  int64_t next_session_id_ = 1;
  sim::TimeNs end_time_ = 0;
  bool running_ = false;
  FleetMetrics metrics_;
};

}  // namespace pegasus::scenario

#endif  // PEGASUS_SRC_SCENARIO_WORKLOAD_H_
