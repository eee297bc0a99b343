// Closed-loop QoS monitoring (§3.3's feedback loop without an oracle).
//
// The adaptation plane of stream.h reacts to Network::SignalCongestion and
// PegasusFileServer::SignalBudgetPressure — but until now both were explicit
// operator calls. The QosMonitor derives them from what the system actually
// does: a periodic simulated task snapshots every link's transmit-queue
// occupancy, per-priority drop deltas and interval utilisation, and every
// file server's windowed play-out lateness, maps the EWMA-smoothed scores
// through thresholds with hysteresis to a severity in [0, 1], and raises the
// very same signals — including the decay-to-zero recovery signal that lets
// AdaptationPolicy sessions restore when queues drain. The explicit-signal
// API stays available (tests and fault injection use it); the monitor is
// just another caller of it.
#ifndef PEGASUS_SRC_CORE_QOS_MONITOR_H_
#define PEGASUS_SRC_CORE_QOS_MONITOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/atm/link.h"
#include "src/atm/network.h"
#include "src/pfs/server.h"
#include "src/sim/periodic_task.h"
#include "src/sim/time.h"

namespace pegasus::core {

class QosMonitor {
 public:
  // Severity is clamped here so a degraded stream never loses its whole
  // reservation to a transient measurement spike.
  static constexpr double max_severity = 0.9;
  // Severity ceiling of the queue-occupancy term alone: a standing queue
  // delays cells but, unlike drops, does not yet destroy deliverable
  // capacity.
  static constexpr double occupancy_cap = 0.3;

  // The monitor's other settings (cadence, smoothing, thresholds, dwell)
  // are constants of qos_monitor.cc; disk lateness below
  // pfs::StreamQualityRecorder::kMissTolerance is jitter, not pressure.
  QosMonitor(sim::Simulator* sim, atm::Network* network);

  QosMonitor(const QosMonitor&) = delete;
  QosMonitor& operator=(const QosMonitor&) = delete;

  // Adds a file server volume to the watch set (idempotent).
  void AddFileServer(pfs::PegasusFileServer* server);

  void Start();
  void Stop();
  bool running() const { return task_.running(); }

  // --- introspection (tests, benches, dashboards) ---
  int64_t ticks() const { return task_.ticks(); }
  // Congestion signals raised or escalated (severity > 0) / cleared.
  int64_t congestion_signals() const { return congestion_signals_; }
  int64_t congestion_recoveries() const { return congestion_recoveries_; }
  // Budget-pressure signals raised or escalated (fraction < 1) / cleared.
  int64_t pressure_signals() const { return pressure_signals_; }
  int64_t pressure_recoveries() const { return pressure_recoveries_; }
  // The smoothed congestion score of `link`, in [0, 1].
  double link_score(const atm::Link* link) const;
  // Severity currently announced for `link` (0 when not signalling).
  double link_severity(const atm::Link* link) const;
  // Deliverable fraction currently announced for `server` (1 = no pressure).
  double disk_fraction(const pfs::PegasusFileServer* server) const;

 private:
  struct LinkState {
    atm::Link::StatsSnapshot prev;
    bool primed = false;  // first tick only seeds `prev`
    double score = 0.0;
    double signalled = 0.0;  // last announced severity; 0 = not signalling
    int64_t ticks_since_change = 0;
    int64_t below_off_ticks = 0;  // consecutive ticks spent under the off threshold
  };
  struct DiskState {
    bool primed = false;  // first tick only discards the stale window
    double score = 0.0;
    double signalled_fraction = 1.0;  // 1 = not signalling
    int64_t ticks_since_change = 0;
    int64_t below_off_ticks = 0;
  };

  void Tick();
  // Discards whatever accumulated while the monitor was not watching: link
  // snapshot deltas and disk windows re-prime on the next tick.
  void Reprime();

  sim::Simulator* sim_;
  atm::Network* network_;
  sim::PeriodicTask task_;
  // Indexed by dense link id (= index in network->links()); grown lazily on
  // tick so links added after construction are picked up.
  std::vector<LinkState> link_states_;
  std::vector<pfs::PegasusFileServer*> servers_;
  std::map<const pfs::PegasusFileServer*, DiskState> disk_states_;
  int64_t congestion_signals_ = 0;
  int64_t congestion_recoveries_ = 0;
  int64_t pressure_signals_ = 0;
  int64_t pressure_recoveries_ = 0;
};

}  // namespace pegasus::core

#endif  // PEGASUS_SRC_CORE_QOS_MONITOR_H_
