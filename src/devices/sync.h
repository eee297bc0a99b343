// Stream synchronisation at the rendering end (§2.2).
//
// "A local process will merge the two control streams into a combined
// control stream for the playback control process at the rendering end. The
// playback control process is then responsible for the synchronization of
// the play-out of the various streams arriving at it, based on the source
// synchronization information from the remote manager(s) and data arrival
// events."
//
// The PlaybackController maps every stream's media timestamps onto one
// play-out clock: the first arrival fixes play-out time T0 = arrival +
// margin, and media timestamp t plays at T0 + (t - t0). Streams that arrive
// early wait; late data plays immediately and is counted. The measured
// inter-stream skew (E13) compares this against unsynchronised immediate
// play-out.
#ifndef PEGASUS_SRC_DEVICES_SYNC_H_
#define PEGASUS_SRC_DEVICES_SYNC_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace pegasus::dev {

class PlaybackController {
 public:
  enum class Mode {
    kSynchronized,  // common play-out clock with a jitter margin
    kImmediate,     // play on arrival (the unsynchronised baseline)
  };

  struct Options {
    Mode mode = Mode::kSynchronized;
    // Buffering margin added to the first arrival; absorbs jitter and
    // inter-stream latency differences.
    sim::DurationNs margin = sim::Milliseconds(40);
  };

  using PlayoutCallback =
      std::function<void(int stream, sim::TimeNs media_ts, sim::TimeNs playout_ts)>;

  PlaybackController(sim::Simulator* sim, Options options);

  // Registers a stream; returns its id.
  int RegisterStream(const std::string& name);

  // Data arrival: media for `media_ts` is ready to render on `stream`.
  void OnArrival(int stream, sim::TimeNs media_ts);

  void set_playout_callback(PlayoutCallback cb) { playout_cb_ = std::move(cb); }

  // --- cross-layer degradation visibility ---
  // The fraction of a stream's nominal rate currently granted (1.0 = full).
  // Stream degradation callbacks push renegotiated rates here so the
  // synchronisation logic and its clients see A/V degradation coherently.
  void SetEffectiveRate(int stream, double fraction);
  double EffectiveRate(int stream) const;

  // --- measurements ---
  // Cross-stream play-out skew samples (|ns|), matched by media timestamp.
  const sim::Summary& skew() const { return skew_; }
  // Arrivals after their scheduled play-out time.
  int64_t late_arrivals() const { return late_arrivals_; }
  int64_t playouts() const { return playouts_; }

 private:
  struct Stream {
    std::string name;
    // Recent playouts (media_ts, playout_ts) for skew matching.
    std::deque<std::pair<sim::TimeNs, sim::TimeNs>> history;
    // Granted fraction of the stream's nominal rate (degradation).
    double effective_rate = 1.0;
  };

  void Playout(int stream, sim::TimeNs media_ts);

  sim::Simulator* sim_;
  Options options_;
  std::vector<Stream> streams_;
  bool clock_fixed_ = false;
  sim::TimeNs t0_ = 0;        // play-out wall time of base_ts_
  sim::TimeNs base_ts_ = 0;   // media timestamp anchored to t0_
  PlayoutCallback playout_cb_;
  sim::Summary skew_;
  int64_t late_arrivals_ = 0;
  int64_t playouts_ = 0;
};

}  // namespace pegasus::dev

#endif  // PEGASUS_SRC_DEVICES_SYNC_H_
