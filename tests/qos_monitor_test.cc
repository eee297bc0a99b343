// The closed-loop QoS monitor: congestion severity derived from observed
// link queues and drops, disk budget pressure derived from windowed play-out
// lateness — with EWMA smoothing, hysteresis against signal churn, and
// decay-to-zero recovery signals that restore adapting streams. No test here
// calls SignalCongestion or SignalBudgetPressure explicitly; every signal is
// the monitor's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/atm/network.h"
#include "src/core/qos_monitor.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/sim/event_queue.h"

namespace pegasus::core {
namespace {

using sim::Milliseconds;
using sim::Seconds;

// One recorded congestion callback on a VC.
struct Signal {
  double severity = 0.0;
  sim::TimeNs at = 0;
};

// Schedules a burst of `cells_per_ms` raw cells per millisecond on `vci`
// from `ep`, for every millisecond in [from, to).
void Blast(sim::Simulator* sim, atm::Endpoint* ep, atm::Vci vci, int cells_per_ms,
           bool low_priority, sim::TimeNs from, sim::TimeNs to) {
  for (sim::TimeNs t = from; t < to; t += Milliseconds(1)) {
    sim->ScheduleAt(t, [ep, vci, cells_per_ms, low_priority]() {
      for (int i = 0; i < cells_per_ms; ++i) {
        atm::Cell cell;
        cell.vci = vci;
        cell.low_priority = low_priority;
        ep->SendCell(cell);
      }
    });
  }
}

// A slow two-endpoint network whose uplink is easy to overload, plus a
// monitor with its fixed mapping at a 10 ms tick.
class MonitorNetFixture : public ::testing::Test {
 protected:
  MonitorNetFixture() : net_(&sim_) {
    sw_ = net_.AddSwitch("sw", 4);
    // 10 Mb/s: one cell every 42.4 us, ~23.6 cells per millisecond.
    a_ = net_.AddEndpoint("a", sw_, 0, 10'000'000);
    b_ = net_.AddEndpoint("b", sw_, 1, 10'000'000);
    monitor_ = std::make_unique<QosMonitor>(&sim_, &net_);
  }

  // The link the blast overloads: a's uplink into the switch.
  const atm::Link* Uplink() const { return a_->uplink(); }

  sim::Simulator sim_;
  atm::Network net_;
  atm::Switch* sw_ = nullptr;
  atm::Endpoint* a_ = nullptr;
  atm::Endpoint* b_ = nullptr;
  std::unique_ptr<QosMonitor> monitor_;
};

// A sustained 2x overload trajectory: the monitor's smoothed severity must
// converge near the true lost-capacity fraction (~0.53), reach the VC's
// handler, and decay to a zero (recovery) signal once the source stops.
TEST_F(MonitorNetFixture, SeverityTracksDropTrajectoryAndRecovers) {
  auto vc = net_.OpenVc(a_, b_, atm::QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());
  std::vector<Signal> signals;
  net_.SetCongestionHandler(vc->id, [&](atm::VcId, const atm::Link* link, double severity) {
    EXPECT_EQ(link, Uplink());
    signals.push_back({severity, sim_.now()});
  });
  monitor_->Start();

  // 50 cells/ms offered against ~23.6 deliverable: drop fraction ~0.53.
  Blast(&sim_, a_, vc->source_vci, 50, /*low_priority=*/false, Milliseconds(100),
        Milliseconds(800));
  sim_.RunUntil(Milliseconds(790));

  ASSERT_FALSE(signals.empty());
  EXPECT_GT(monitor_->congestion_signals(), 0);
  // The announced severity settled near the measured loss fraction.
  EXPECT_NEAR(signals.back().severity, 0.53, 0.18);
  EXPECT_NEAR(monitor_->link_score(Uplink()), 0.53, 0.1);
  EXPECT_GT(monitor_->link_severity(Uplink()), 0.0);

  // The overload ends: the smoothed score decays below the off threshold
  // and the monitor announces the all-clear for that link.
  sim_.RunUntil(Milliseconds(1200));
  ASSERT_GE(signals.size(), 2u);
  EXPECT_EQ(signals.back().severity, 0.0);
  EXPECT_EQ(monitor_->congestion_recoveries(), 1);
  EXPECT_EQ(monitor_->link_severity(Uplink()), 0.0);
  EXPECT_LT(monitor_->link_score(Uplink()), 0.05);

  // Severity never escalated past the loss fraction's neighbourhood, and
  // every non-zero announcement was a real move (no per-tick chatter).
  for (size_t i = 0; i + 1 < signals.size(); ++i) {
    EXPECT_GT(signals[i].severity, 0.0);
    EXPECT_LE(signals[i].severity, QosMonitor::max_severity);
  }
}

// Oscillating occupancy around the threshold band must not flap the
// announced severity: smoothing plus the on/off band plus the hold time
// bound the signal count to a handful over dozens of oscillation cycles.
TEST_F(MonitorNetFixture, HysteresisPreventsSignalChurnOnOscillatingOccupancy) {
  auto vc = net_.OpenVc(a_, b_, atm::QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());
  int callbacks = 0;
  net_.SetCongestionHandler(vc->id,
                            [&](atm::VcId, const atm::Link*, double) { ++callbacks; });
  monitor_->Start();

  // 25 cycles of fill-and-drain: 42 ms at 2x rate builds the queue toward
  // its limit (no sustained drops), 42 ms of silence drains it fully. The
  // instantaneous occupancy seen by the 10 ms ticks swings 0 -> ~0.9 -> 0.
  for (int cycle = 0; cycle < 25; ++cycle) {
    const sim::TimeNs start = Milliseconds(100) + cycle * Milliseconds(84);
    Blast(&sim_, a_, vc->source_vci, 47, /*low_priority=*/false, start,
          start + Milliseconds(42));
  }
  sim_.RunUntil(Milliseconds(100) + 25 * Milliseconds(84) + Milliseconds(300));

  // Dozens of occupancy swings, at most a couple of announcements — and
  // never an alternating raise/clear/raise/clear chatter.
  EXPECT_LE(monitor_->congestion_signals(), 3);
  EXPECT_LE(monitor_->congestion_recoveries(), 1);
  EXPECT_LE(callbacks, 4);
  // Occupancy alone is capped well below what real loss can announce.
  for (const auto& link : net_.links()) {
    EXPECT_LE(monitor_->link_severity(link.get()), QosMonitor::occupancy_cap + 0.05);
  }
}

// Low-priority (best-effort) drops are discounted by a fixed weight:
// the same drop trajectory announces a milder severity when the lost cells
// were best-effort than when they were reserved-class.
TEST_F(MonitorNetFixture, DropSeverityWeighsCellPriority) {
  auto vc = net_.OpenVc(a_, b_, atm::QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());
  monitor_->Start();

  Blast(&sim_, a_, vc->source_vci, 50, /*low_priority=*/true, Milliseconds(100),
        Milliseconds(800));
  sim_.RunUntil(Milliseconds(790));

  // Weighted loss: (0.5 * 26.4) / (23.6 + 0.5 * 26.4) ~= 0.36 instead of
  // the unweighted ~0.53 of the high-priority trajectory.
  EXPECT_NEAR(monitor_->link_score(Uplink()), 0.36, 0.08);
  EXPECT_GT(Uplink()->cells_dropped_low(), 0u);
  EXPECT_EQ(Uplink()->cells_dropped_high(), 0u);
  EXPECT_EQ(net_.ReservedBps(Uplink()), 5'000'000);
}

// --- system level: the full closed loop through PegasusSystem ---

class ClosedLoopFixture : public ::testing::Test {
 protected:
  ClosedLoopFixture() : system_(&sim_) {
    desk_ = system_.AddWorkstation("desk");
    peer_ = system_.AddWorkstation("peer");
  }

  sim::Simulator sim_;
  PegasusSystem system_;
  Workstation* desk_ = nullptr;
  Workstation* peer_ = nullptr;
};

AdaptationPolicy TestPolicy(AdaptationMode mode = AdaptationMode::kFrameRateScaling) {
  AdaptationPolicy policy;
  policy.mode = mode;
  policy.floor = 0.05;
  policy.hysteresis = 0.02;
  policy.smoothing = 1.0;
  return policy;
}

// The acceptance scenario: with the monitor enabled and NO explicit signal
// calls anywhere, best-effort cross-traffic sharing the desk uplink
// degrades an adapting stream (an applied congestion-triggered adaptation
// event), and the stream restores to nominal after the cross-traffic stops.
TEST_F(ClosedLoopFixture, CrossTrafficDegradesAndRestoresAdaptingStream) {
  dev::AtmCamera::Config cfg;
  cfg.width = 320;
  cfg.height = 240;  // ~17 Mb/s of raw tiles on the wire at 25 fps
  dev::AtmCamera* camera = desk_->AddCamera(cfg);
  dev::AtmDisplay* display = peer_->AddDisplay(640, 480);

  auto r = system_.BuildStream("feed")
               .From(desk_, camera)
               .To(peer_, display)
               .WithSpec(StreamSpec::Video(25, 16'000'000))
               .WithAdaptation(TestPolicy())
               .Open();
  ASSERT_TRUE(r.report.ok());
  StreamSession* session = r.session;
  camera->Start(session->source_vci());

  QosMonitor* monitor = system_.EnableQosMonitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(system_.qos_monitor(), monitor);

  // Best-effort cross-traffic from the desk host floods the shared desk ->
  // backbone uplink at line rate for two seconds.
  auto cross = system_.network().OpenVc(desk_->host(), peer_->host());
  ASSERT_TRUE(cross.has_value());
  Blast(&sim_, desk_->host(), cross->source_vci, 500, /*low_priority=*/true, Seconds(1),
        Seconds(3));

  // Mid-blast: the stream has been degraded by a congestion-triggered
  // adaptation event the monitor raised on its own.
  sim_.RunUntil(Seconds(3));
  EXPECT_LT(session->adaptation_fraction(), 1.0);
  EXPECT_LT(session->contract().granted.bandwidth_bps, 16'000'000);
  int applied_congestion = 0;
  for (const AdaptationEvent& e : session->adaptation_log()) {
    if (e.applied && e.trigger == AdaptationEvent::Trigger::kNetworkCongestion) {
      ++applied_congestion;
    }
  }
  EXPECT_GE(applied_congestion, 1);
  // The camera pacing followed the degraded grant.
  EXPECT_EQ(camera->config().pace_bps, session->contract().granted.bandwidth_bps);

  // The cross-traffic stops: queues drain, the monitor announces recovery,
  // and the stream restores to its nominal contract — the half of the loop
  // that never happened without an operator.
  sim_.RunUntil(Seconds(5));
  EXPECT_GE(monitor->congestion_recoveries(), 1);
  EXPECT_NEAR(session->adaptation_fraction(), 1.0, 1e-9);
  EXPECT_EQ(session->contract().granted.bandwidth_bps, 16'000'000);
  EXPECT_EQ(camera->config().pace_bps, 16'000'000);
}

// Disk half of the loop: a synthetic lateness trajectory recorded against
// the file server's quality recorder drives budget pressure onto a reserved
// adapting stream, and the lateness clearing drives the restore.
TEST_F(ClosedLoopFixture, PlayoutLatenessDrivesDiskPressureAndRecovery) {
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = desk_->AddCamera(cfg);
  StreamSpec spec = StreamSpec::Video(25, 8'000'000);
  spec.disk_bps = 1'000'000;
  auto r = system_.BuildStream("rec")
               .From(desk_, camera)
               .ToStorage(storage)
               .WithSpec(spec)
               .WithAdaptation(TestPolicy(AdaptationMode::kQualityScaling))
               .Open();
  ASSERT_TRUE(r.report.ok());
  StreamSession* session = r.session;

  QosMonitor* monitor = system_.EnableQosMonitor();
  pfs::PegasusFileServer* server = storage->server();

  // One second of overloaded play-out: every chunk misses its deadline by
  // 5 ms (synthetic trajectory — the monitor cannot tell it from a slow
  // disk, which is the point of measuring instead of asserting).
  for (sim::TimeNs t = Seconds(1); t < Seconds(2); t += Milliseconds(1)) {
    sim_.ScheduleAt(t, [server]() { server->stream_quality().Record(Milliseconds(5)); });
  }

  sim_.RunUntil(Seconds(2));
  EXPECT_GT(monitor->pressure_signals(), 0);
  EXPECT_LT(monitor->disk_fraction(server), 1.0);
  EXPECT_LT(session->contract().granted.disk_bps, 1'000'000);
  EXPECT_LT(session->adaptation_fraction(), 1.0);
  int applied_disk = 0;
  for (const AdaptationEvent& e : session->adaptation_log()) {
    if (e.applied && e.trigger == AdaptationEvent::Trigger::kDiskPressure) {
      ++applied_disk;
    }
  }
  EXPECT_GE(applied_disk, 1);
  // Quality scaling holds the frame rate while bits shrink.
  EXPECT_NEAR(session->contract().granted.frame_rate, 25.0, 1e-9);

  // The lateness stops (windows come back empty): the score decays, the
  // monitor announces fraction 1.0, and the reservation restores.
  sim_.RunUntil(Seconds(3));
  EXPECT_GE(monitor->pressure_recoveries(), 1);
  EXPECT_EQ(monitor->disk_fraction(server), 1.0);
  EXPECT_NEAR(session->adaptation_fraction(), 1.0, 1e-9);
  EXPECT_EQ(session->contract().granted.disk_bps, 1'000'000);
  EXPECT_EQ(server->reserved_stream_bps(), 1'000'000);
}

// The windowed export itself: TakeWindow drains exactly the samples since
// the previous call, keeps cumulative totals, and summarises lateness.
TEST(StreamQualityRecorderTest, WindowedExportDrainsAndAccumulates) {
  pfs::StreamQualityRecorder recorder;
  recorder.Record(-Milliseconds(1));  // on time
  recorder.Record(Milliseconds(4));   // late
  recorder.Record(Milliseconds(8));   // later

  pfs::StreamQualityRecorder::Window w = recorder.TakeWindow();
  EXPECT_EQ(w.chunks, 3);
  EXPECT_EQ(w.deadline_misses, 2);
  EXPECT_EQ(w.max_lateness, Milliseconds(8));
  EXPECT_NEAR(w.mean_lateness, static_cast<double>(Milliseconds(6)), 1.0);

  // Drained: the next window is empty, the cumulative view is not.
  w = recorder.TakeWindow();
  EXPECT_EQ(w.chunks, 0);
  EXPECT_EQ(w.deadline_misses, 0);
  EXPECT_EQ(recorder.chunks(), 3);
  EXPECT_EQ(recorder.deadline_misses(), 2);
  EXPECT_EQ(recorder.max_lateness(), Milliseconds(8));
  EXPECT_NEAR(recorder.mean_lateness(), static_cast<double>(Milliseconds(11)) / 3, 1.0);

  // Sub-tolerance lateness is jitter, not a windowed miss: against the
  // fixed 1 ms tolerance, a windowful of hair-late chunks plus one real
  // miss counts exactly one miss (the cumulative strict counter still sees
  // them all).
  static_assert(pfs::StreamQualityRecorder::kMissTolerance == Milliseconds(1));
  for (int i = 0; i < 49; ++i) {
    recorder.Record(Milliseconds(1) / 10);  // 0.1 ms late: jitter
  }
  recorder.Record(Milliseconds(2));  // a real miss
  w = recorder.TakeWindow();
  EXPECT_EQ(w.chunks, 50);
  EXPECT_EQ(w.deadline_misses, 1);
  EXPECT_EQ(w.max_lateness, Milliseconds(2));
  EXPECT_EQ(recorder.deadline_misses(), 52);
}

}  // namespace
}  // namespace pegasus::core
