// The ATM camera (§2.1, Figure 2).
//
// "The ATM camera directly produces digital video as a stream of ATM cells."
// The model scans a synthetic frame line by line at the CCD line rate; every
// eight buffered lines become a row of 8x8 tiles, optionally compressed, and
// are shipped immediately in AAL5 frames. This is what cuts source latency
// from a frame time (33-40 ms) to a tile time (tens of microseconds) — the
// subject of experiment E01, which compares against kWholeFrame mode (a
// conventional frame-grabber that cannot transmit until the frame is done).
#ifndef PEGASUS_SRC_DEVICES_CAMERA_H_
#define PEGASUS_SRC_DEVICES_CAMERA_H_

#include <cstdint>
#include <optional>

#include "src/atm/endpoint.h"
#include "src/devices/compression.h"
#include "src/devices/frame_source.h"
#include "src/devices/tile.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace pegasus::dev {

class AtmCamera {
 public:
  enum class Emission {
    kTiles,       // ship each 8-line band as soon as it is digitised
    kWholeFrame,  // buffer the whole frame first (conventional baseline)
  };

  struct Config {
    int width = 160;
    int height = 120;
    int fps = 25;
    CompressionMode compression = CompressionMode::kRaw;
    int jpeg_quality = 60;
    Emission emission = Emission::kTiles;
    // Cell pacing rate; 0 = line rate of the uplink.
    int64_t pace_bps = 0;
    double content_noise = 0.1;
  };

  AtmCamera(sim::Simulator* sim, atm::Endpoint* endpoint, Config config);

  // Starts streaming on `data_vci` (from the established data VC).
  void Start(atm::Vci data_vci);
  void Stop();
  bool running() const { return running_; }

  // Adds a further output circuit: every packet is also RE-SENT on `vci`,
  // costing the source O(outputs). The real point-to-multipoint tap (e.g.
  // display + recording from one capture) is a multicast stream contract —
  // StreamBuilder::ToMany — where the camera sends once and the switches
  // replicate only at tree branches; see examples/camera_tap.cpp. This
  // source-side fallback remains for endpoints without signalling access.
  void AddOutput(atm::Vci vci) { extra_vcis_.push_back(vci); }

  const Config& config() const { return config_; }
  // Re-shapes the outgoing cell stream; stream admission sets this to the
  // granted bandwidth so the camera never bursts past its reservation.
  void set_pace_bps(int64_t bps) { config_.pace_bps = bps; }
  uint32_t frames_captured() const { return frames_captured_; }
  int64_t packets_sent() const { return packets_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  // Payload bytes per second averaged since Start.
  double average_bandwidth_bps(sim::TimeNs now) const;

 private:
  void BeginFrame();
  // Digitisation of one 8-line band completes.
  void BandReady(int band);
  void EmitTiles(std::vector<Tile> tiles, uint32_t frame_no, sim::TimeNs capture_ts);

  sim::Simulator* sim_;
  atm::Endpoint* endpoint_;
  Config config_;
  atm::Vci data_vci_ = atm::kVciUnassigned;
  std::vector<atm::Vci> extra_vcis_;
  bool running_ = false;
  FrameSource source_;
  Frame current_frame_;
  sim::TimeNs frame_started_at_ = 0;
  // Whole-frame mode: bands held back until the frame scan completes, each
  // keeping its own digitisation timestamp (rolling shutter).
  struct HeldBand {
    std::vector<Tile> tiles;
    sim::TimeNs digitised_at;
  };
  std::vector<HeldBand> held_bands_;
  uint32_t frames_captured_ = 0;
  int64_t packets_sent_ = 0;
  int64_t bytes_sent_ = 0;
  sim::TimeNs started_at_ = 0;
};

}  // namespace pegasus::dev

#endif  // PEGASUS_SRC_DEVICES_CAMERA_H_
