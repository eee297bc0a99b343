// The ATM DSP/audio node (§2.1).
//
// "There is an ATM DSP node which combines digital signal processing and
// audio input and output. This device contains DACs and ADCs and packs and
// unpacks audio samples into ATM cells. Each such cell also contains a time
// stamp." Audio cells are raw cells (no AAL5): 8 payload bytes of timestamp
// plus 40 one-byte samples. At 44.1 kHz a cell leaves every ~907 us, which
// is why audio is "much more susceptible to jitter" — the playback side
// smooths arrival jitter with a configurable buffer and counts underruns.
#ifndef PEGASUS_SRC_DEVICES_AUDIO_H_
#define PEGASUS_SRC_DEVICES_AUDIO_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/atm/endpoint.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace pegasus::dev {

inline constexpr int kSamplesPerAudioCell = 40;

// ADC half: generates a deterministic tone, packs samples into timestamped
// cells at the exact sample cadence.
class AudioCapture {
 public:
  AudioCapture(sim::Simulator* sim, atm::Endpoint* endpoint, int sample_rate = 44'100);

  void Start(atm::Vci vci);
  void Stop();
  bool running() const { return running_; }

  int sample_rate() const { return sample_rate_; }
  int64_t cells_sent() const { return cells_sent_; }

  // Re-shapes the outgoing cell stream to `bps` wire bits per second (0 =
  // unpaced, the exact sample cadence). Stream admission binds this to the
  // granted network bandwidth, exactly as it paces cameras: below the
  // nominal rate the ADC decimates — cells leave at the paced interval and
  // the skipped samples are counted.
  void set_pace_bps(int64_t bps) { pace_bps_ = bps; }
  int64_t pace_bps() const { return pace_bps_; }
  // Wire bits per second of the unpaced cell stream.
  int64_t nominal_bps() const;
  // Samples skipped by pacing-induced decimation, as whole-cell equivalents.
  int64_t cells_decimated() const { return samples_decimated_ / kSamplesPerAudioCell; }

 private:
  void EmitCell();
  // One cell's worth of samples at the sample cadence.
  sim::DurationNs CellPeriod() const {
    return sim::Seconds(1) * kSamplesPerAudioCell / sample_rate_;
  }
  // Interval between cells under the current pacing.
  sim::DurationNs CellInterval() const;

  sim::Simulator* sim_;
  atm::Endpoint* endpoint_;
  int sample_rate_;
  atm::Vci vci_ = atm::kVciUnassigned;
  bool running_ = false;
  uint64_t sample_pos_ = 0;
  int64_t cells_sent_ = 0;
  int64_t pace_bps_ = 0;
  int64_t samples_decimated_ = 0;
};

// DAC half: buffers arriving cells, starts the play-out clock once
// `buffer_depth` of audio is queued, then consumes one cell per cell period.
// A tick with no data is an underrun (an audible click).
class AudioPlayback {
 public:
  // Invoked at each play-out with the cell's capture timestamp; used by the
  // synchronisation controller (E13).
  using PlayoutCallback = std::function<void(sim::TimeNs capture_ts, sim::TimeNs playout_ts)>;

  AudioPlayback(sim::Simulator* sim, atm::Endpoint* endpoint, int sample_rate = 44'100,
                sim::DurationNs buffer_depth = sim::Milliseconds(10));

  void set_playout_callback(PlayoutCallback cb) { playout_cb_ = std::move(cb); }

  int64_t cells_received() const { return cells_received_; }
  int64_t cells_played() const { return cells_played_; }
  int64_t underruns() const { return underruns_; }
  // Capture-to-playout latency per cell, ns.
  const sim::Summary& end_to_end_latency() const { return latency_; }
  // |actual - ideal| play-out time per cell, ns: residual jitter after the
  // buffer. Ideal spacing is exactly one cell period.
  const sim::Summary& playout_jitter() const { return jitter_; }

 private:
  void OnBurst(const atm::Cell* cells, size_t count);
  void Tick();

  sim::Simulator* sim_;
  atm::Endpoint* endpoint_;
  int sample_rate_;
  sim::DurationNs buffer_depth_;
  sim::DurationNs cell_period_;
  std::deque<sim::TimeNs> buffer_;  // capture timestamps of queued cells
  bool playing_ = false;
  sim::TimeNs next_tick_ = 0;
  PlayoutCallback playout_cb_;
  int64_t cells_received_ = 0;
  int64_t cells_played_ = 0;
  int64_t underruns_ = 0;
  sim::Summary latency_;
  sim::Summary jitter_;
};

}  // namespace pegasus::dev

#endif  // PEGASUS_SRC_DEVICES_AUDIO_H_
