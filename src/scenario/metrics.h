// Fleet-level metrics for metro-scale scenario runs.
//
// Everything an operator would watch across thousands of sessions: how many
// calls arrived, how many the cross-layer admission took, which layer turned
// the rest away, how long adaptation took to settle after the fabric pushed
// back, and how much cell traffic the run actually moved.
//
// The struct is split along a determinism line. Counters derived from the
// simulation (arrivals, admissions, blocking, cell counts, sim-time
// convergence) are reproducible bit-for-bit from the workload seed and feed
// Fingerprint(); wall-clock observations (admission-call latency, sustained
// cells per wall second) measure the simulator itself and are excluded.
#ifndef PEGASUS_SRC_SCENARIO_METRICS_H_
#define PEGASUS_SRC_SCENARIO_METRICS_H_

#include <cstdint>
#include <string>

#include "src/sim/event_queue.h"

namespace pegasus::scenario {

struct FleetMetrics {
  // --- deterministic (seed-reproducible) ---
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t blocked = 0;
  int64_t blocked_network = 0;       // a link on the path lacked capacity
  int64_t blocked_disk = 0;          // PFS stream budget exhausted
  int64_t blocked_content_busy = 0;  // every probed catalog title in play
  int64_t blocked_other = 0;
  int64_t counter_offers = 0;  // rejections that carried a feasible counter
  int64_t departed = 0;
  int64_t peak_concurrent = 0;
  int64_t concurrent_at_end = 0;
  int64_t renegotiations = 0;
  int64_t renegotiations_refused = 0;
  // Sessions whose adaptation plane applied at least one joint
  // renegotiation, and the decisions they applied in total.
  int64_t adapting_sessions = 0;
  int64_t adaptation_events = 0;
  // Convergence: per adapting session, sim time from its first applied
  // adaptation to its last (0 = settled in one move), observed at the
  // metrics-poll granularity. Summed / maxed over adapting sessions.
  sim::DurationNs convergence_total_ns = 0;
  sim::DurationNs convergence_max_ns = 0;
  // Data-plane volume over the run: cells put on links (every hop counts)
  // and cells tail-dropped.
  uint64_t link_cells_sent = 0;
  uint64_t link_cells_dropped = 0;
  int64_t records_played = 0;
  int64_t records_recorded = 0;
  sim::DurationNs sim_duration_ns = 0;
  // Network-signalling admission refusals over the run, split by cause
  // (Network::admission_rejections_*). Deterministic, but EXCLUDED from
  // Fingerprint: its layout stays fixed so fleet fingerprints remain
  // comparable with the ones scenario_test pins and the performance ledger
  // records.
  int64_t net_rejections_bandwidth = 0;
  int64_t net_rejections_no_path = 0;
  // One-to-many (broadcast) plane over the run: delivery trees opened,
  // viewer joins grafted onto / leaves pruned from live trees, and the
  // largest leaf set any one tree reached. Deterministic, but EXCLUDED
  // from Fingerprint like the net_rejections_* split, for the same reason.
  int64_t mcast_trees_opened = 0;
  int64_t mcast_grafts = 0;
  int64_t mcast_prunes = 0;
  int64_t mcast_peak_leaves = 0;

  // --- wall-clock (machine-dependent, excluded from Fingerprint) ---
  int64_t admit_calls = 0;       // Open() invocations timed
  double admit_wall_ns_total = 0.0;
  double admit_wall_ns_max = 0.0;
  double run_wall_seconds = 0.0;

  double blocking_probability() const {
    return arrivals > 0 ? static_cast<double>(blocked) / static_cast<double>(arrivals) : 0.0;
  }
  double mean_admit_wall_us() const {
    return admit_calls > 0 ? admit_wall_ns_total / static_cast<double>(admit_calls) / 1e3 : 0.0;
  }
  double mean_convergence_ms() const {
    return adapting_sessions > 0 ? static_cast<double>(convergence_total_ns) /
                                       static_cast<double>(adapting_sessions) / 1e6
                                 : 0.0;
  }
  // Simulated cell-hops pushed per wall-clock second: the engine's
  // sustained data-plane throughput.
  double cells_per_wall_second() const {
    return run_wall_seconds > 0 ? static_cast<double>(link_cells_sent) / run_wall_seconds : 0.0;
  }

  // FNV-1a over every deterministic field, in declaration order. Two runs
  // from the same seed and parameters must agree exactly.
  uint64_t Fingerprint() const;

  // One-per-line human summary (deterministic fields first).
  std::string Summary() const;
};

}  // namespace pegasus::scenario

#endif  // PEGASUS_SRC_SCENARIO_METRICS_H_
