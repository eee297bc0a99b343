#include "src/core/qos_monitor.h"

#include <algorithm>
#include <cmath>

namespace pegasus::core {

namespace {

// Sampling cadence of the monitor task.
constexpr sim::DurationNs kPeriod = sim::Milliseconds(10);
// EWMA weight of the newest per-tick score, in (0, 1].
constexpr double kSmoothing = 0.3;
// Smoothed link score that raises a congestion signal / clears it. The gap
// between the two is the hysteresis band that prevents signal churn.
constexpr double kOnThreshold = 0.12;
constexpr double kOffThreshold = 0.04;
// While signalling, re-signal only when the smoothed score has moved at
// least this far from the last severity announced...
constexpr double kSeverityStep = 0.15;
// ...and no sooner than this many ticks after the previous change, so an
// oscillating load cannot flap the announced severity every tick. Recovery
// needs the same dwell: the all-clear is announced only after the score has
// stayed below the off threshold this many consecutive ticks (restoring a
// stream just to re-degrade it next tick is churn too). The dwell must
// outlast the quiet phase of any oscillation the monitor should ride out.
// Disk pressure uses the same dwell.
constexpr int64_t kMinHoldTicks = 8;
// Smoothed disk miss-ratio thresholds (raise / clear), same hysteresis idea.
constexpr double kDiskOnThreshold = 0.10;
constexpr double kDiskOffThreshold = 0.04;
// Re-signal disk pressure only when the deliverable fraction moved at least
// this far.
constexpr double kDiskFractionStep = 0.15;
// Floor of the deliverable fraction announced under pressure.
constexpr double kMinDiskFraction = 0.1;

// One link's per-tick raw congestion score from the snapshot delta.
double LinkRawScore(const atm::Link::StatsSnapshot& prev, const atm::Link::StatsSnapshot& cur) {
  // Weight of a dropped cell by its loss-priority class: losing reserved
  // (high-priority) cells is worse than shedding best-effort ones.
  constexpr double kHighDropWeight = 1.0;
  constexpr double kLowDropWeight = 0.5;
  // Queue occupancy below this fraction of the queue limit contributes
  // nothing; above it, the excess ramps linearly up to occupancy_cap.
  constexpr double kOccupancyFloor = 0.5;
  // The occupancy term counts only when the interval utilisation (busy-time
  // delta over the tick) shows a saturated transmitter — a standing queue
  // behind an idle transmitter is a sampling artifact.
  constexpr double kUtilizationFloor = 0.9;

  // Drops destroy deliverable capacity outright: the weighted fraction of
  // this interval's offered cells that the link tail-dropped is severity in
  // the SignalCongestion sense ("the fraction of deliverable capacity that
  // is gone").
  const double sent = static_cast<double>(cur.cells_sent - prev.cells_sent);
  const double drops_high =
      static_cast<double>(cur.cells_dropped_high - prev.cells_dropped_high);
  const double drops_low =
      static_cast<double>(cur.cells_dropped_low - prev.cells_dropped_low);
  const double weighted_drops = drops_high * kHighDropWeight + drops_low * kLowDropWeight;
  double drop_score = 0.0;
  if (weighted_drops > 0.0) {
    drop_score = weighted_drops / (sent + weighted_drops);
  }
  // A standing transmit queue is the early warning: cells are delayed but
  // still delivered, so its contribution ramps from kOccupancyFloor and is
  // capped below what real loss can reach. It only counts when the
  // interval utilisation confirms a saturated transmitter.
  double occupancy_score = 0.0;
  const double interval_util =
      static_cast<double>(cur.busy_time - prev.busy_time) / static_cast<double>(kPeriod);
  if (cur.queue_limit > 0 && interval_util >= kUtilizationFloor) {
    const double occ =
        static_cast<double>(cur.queued_cells) / static_cast<double>(cur.queue_limit);
    if (occ > kOccupancyFloor) {
      occupancy_score = QosMonitor::occupancy_cap * (occ - kOccupancyFloor) /
                        (1.0 - kOccupancyFloor);
    }
  }
  return std::clamp(std::max(drop_score, occupancy_score), 0.0, 1.0);
}

}  // namespace

QosMonitor::QosMonitor(sim::Simulator* sim, atm::Network* network)
    : sim_(sim), network_(network), task_(sim, kPeriod, [this]() { Tick(); }) {}

void QosMonitor::AddFileServer(pfs::PegasusFileServer* server) {
  if (std::find(servers_.begin(), servers_.end(), server) == servers_.end()) {
    servers_.push_back(server);
  }
}

void QosMonitor::Start() {
  if (!task_.running()) {
    // A restart must not score the whole stopped stretch as one interval:
    // drops and lateness accumulated while nobody watched are history, not
    // current pressure.
    Reprime();
  }
  task_.Start();
}

void QosMonitor::Stop() { task_.Stop(); }

void QosMonitor::Reprime() {
  for (LinkState& state : link_states_) {
    state.primed = false;
  }
  for (auto& [server, state] : disk_states_) {
    (void)server;
    state.primed = false;
  }
}

double QosMonitor::link_score(const atm::Link* link) const {
  const int id = link->id();
  if (id < 0 || static_cast<size_t>(id) >= link_states_.size()) {
    return 0.0;
  }
  return link_states_[static_cast<size_t>(id)].score;
}

double QosMonitor::link_severity(const atm::Link* link) const {
  const int id = link->id();
  if (id < 0 || static_cast<size_t>(id) >= link_states_.size()) {
    return 0.0;
  }
  return link_states_[static_cast<size_t>(id)].signalled;
}

double QosMonitor::disk_fraction(const pfs::PegasusFileServer* server) const {
  auto it = disk_states_.find(server);
  return it == disk_states_.end() ? 1.0 : it->second.signalled_fraction;
}

void QosMonitor::Tick() {
  // --- links: snapshot, diff, smooth, signal with hysteresis ---
  const auto& links = network_->links();
  if (link_states_.size() < links.size()) {
    link_states_.resize(links.size());
  }
  for (const auto& link : links) {
    atm::Link* l = link.get();
    LinkState& state = link_states_[static_cast<size_t>(l->id())];
    // Quiescent fast path: a primed link with no smoothed score, no standing
    // signal, untouched counters and an empty queue cannot change any state
    // this tick (raw score is 0, the EWMA stays 0, and below_off_ticks /
    // ticks_since_change are only read while signalling and reset when a
    // signal raises). At metro scale almost every link is idle almost every
    // tick, so the monitor's cost tracks links with reservations or recent
    // traffic instead of the whole fabric.
    if (state.primed && state.score == 0.0 && state.signalled == 0.0 &&
        l->cells_sent() == state.prev.cells_sent &&
        l->cells_dropped_high() == state.prev.cells_dropped_high &&
        l->cells_dropped_low() == state.prev.cells_dropped_low &&
        l->busy_time() == state.prev.busy_time && l->queued_cells() == 0) {
      continue;
    }
    const atm::Link::StatsSnapshot cur = l->Stats();
    if (!state.primed) {
      state.prev = cur;
      state.primed = true;
      continue;
    }
    const double raw = LinkRawScore(state.prev, cur);
    state.prev = cur;
    state.score += kSmoothing * (raw - state.score);
    ++state.ticks_since_change;
    state.below_off_ticks = state.score <= kOffThreshold ? state.below_off_ticks + 1 : 0;

    if (state.signalled == 0.0) {
      if (state.score >= kOnThreshold) {
        const double severity = std::min(state.score, max_severity);
        state.signalled = severity;
        state.ticks_since_change = 0;
        ++congestion_signals_;
        network_->SignalCongestion(l, severity);
      }
    } else if (state.below_off_ticks >= kMinHoldTicks) {
      // The queue stayed drained for the whole dwell: announce the
      // all-clear so adapting sessions restore — the recovery half of the
      // loop. (A single quiet tick of an oscillating load is not a drain.)
      state.signalled = 0.0;
      state.ticks_since_change = 0;
      ++congestion_recoveries_;
      network_->SignalCongestion(l, 0.0);
    } else if (std::abs(state.score - state.signalled) >= kSeverityStep &&
               state.ticks_since_change >= kMinHoldTicks) {
      // Escalate or relax only on a real, settled move; oscillations of
      // the smoothed score around the announced severity stay silent. A
      // relax never announces below kOnThreshold: sub-band severities are
      // the dwell-clear's business (announcing them would strand the
      // session a hair under nominal once the clear lands), but a score
      // that settles INSIDE the band must still be able to walk a stale
      // deep cut back down to the band's edge.
      const double severity = std::clamp(state.score, kOnThreshold, max_severity);
      state.signalled = severity;
      state.ticks_since_change = 0;
      ++congestion_signals_;
      network_->SignalCongestion(l, severity);
    }
  }

  // --- file servers: windowed lateness -> budget pressure ---
  for (pfs::PegasusFileServer* server : servers_) {
    DiskState& state = disk_states_[server];
    const pfs::StreamQualityRecorder::Window window =
        server->stream_quality().TakeWindow();
    if (!state.primed) {
      // The first drain carries everything recorded before monitoring
      // began; stale history is not current pressure.
      state.primed = true;
      continue;
    }
    // Raw score: the fraction of this window's chunks that missed their
    // deadline by more than the recorder's jitter tolerance
    // (StreamQualityRecorder::kMissTolerance). An idle window (no chunks)
    // scores zero, so pressure decays once play-out stops too.
    double raw = 0.0;
    if (window.chunks > 0) {
      raw = static_cast<double>(window.deadline_misses) /
            static_cast<double>(window.chunks);
    }
    state.score += kSmoothing * (raw - state.score);
    ++state.ticks_since_change;
    state.below_off_ticks = state.score <= kDiskOffThreshold ? state.below_off_ticks + 1 : 0;

    const bool signalling = state.signalled_fraction < 1.0;
    if (!signalling) {
      if (state.score >= kDiskOnThreshold) {
        const double fraction = std::clamp(1.0 - state.score, kMinDiskFraction, 1.0);
        state.signalled_fraction = fraction;
        state.ticks_since_change = 0;
        ++pressure_signals_;
        server->SignalBudgetPressure(fraction);
      }
    } else if (state.below_off_ticks >= kMinHoldTicks) {
      state.signalled_fraction = 1.0;
      state.ticks_since_change = 0;
      ++pressure_recoveries_;
      server->SignalBudgetPressure(1.0);
    } else {
      // As for links: a relax stops at the band's edge (1 - kDiskOnThreshold);
      // going all the way to 1.0 is the dwell-clear's announcement.
      const double fraction = std::clamp(1.0 - state.score, kMinDiskFraction,
                                         1.0 - kDiskOnThreshold);
      if (std::abs(fraction - state.signalled_fraction) >= kDiskFractionStep &&
          state.ticks_since_change >= kMinHoldTicks) {
        state.signalled_fraction = fraction;
        state.ticks_since_change = 0;
        ++pressure_signals_;
        server->SignalBudgetPressure(fraction);
      }
    }
  }
}

}  // namespace pegasus::core
