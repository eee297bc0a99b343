#include "src/devices/camera.h"

namespace pegasus::dev {

AtmCamera::AtmCamera(sim::Simulator* sim, atm::Endpoint* endpoint, Config config)
    : sim_(sim),
      endpoint_(endpoint),
      config_(config),
      source_(config.width, config.height, config.content_noise) {}

void AtmCamera::Start(atm::Vci data_vci) {
  if (running_) {
    return;
  }
  data_vci_ = data_vci;
  running_ = true;
  started_at_ = sim_->now();
  BeginFrame();
}

void AtmCamera::Stop() { running_ = false; }

double AtmCamera::average_bandwidth_bps(sim::TimeNs now) const {
  const sim::DurationNs elapsed = now - started_at_;
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(bytes_sent_) * 8e9 / static_cast<double>(elapsed);
}

void AtmCamera::BeginFrame() {
  if (!running_) {
    return;
  }
  current_frame_ = source_.Render(frames_captured_);
  current_frame_.capture_ts = sim_->now();
  frame_started_at_ = sim_->now();
  held_bands_.clear();
  // The CCD digitises scan lines continuously through the frame period; a
  // band of eight lines is ready after 8 line times.
  const sim::DurationNs frame_period = sim::Seconds(1) / config_.fps;
  const sim::DurationNs line_time = frame_period / config_.height;
  const int bands = (config_.height + kTileDim - 1) / kTileDim;
  for (int band = 0; band < bands; ++band) {
    const sim::DurationNs ready_at = line_time * (band + 1) * kTileDim;
    sim_->ScheduleAfter(ready_at, [this, band]() { BandReady(band); });
  }
  sim_->ScheduleAfter(frame_period, [this]() {
    ++frames_captured_;
    BeginFrame();
  });
}

void AtmCamera::BandReady(int band) {
  if (!running_) {
    return;
  }
  // The eight lines of this band were digitised just now (rolling shutter):
  // their capture timestamp is the band-ready time, in both emission modes.
  const sim::TimeNs band_ts = sim_->now();
  const int ty = band * kTileDim;
  std::vector<Tile> tiles;
  tiles.reserve(static_cast<size_t>((config_.width + kTileDim - 1) / kTileDim));
  for (int tx = 0; tx < config_.width; tx += kTileDim) {
    Tile tile = current_frame_.ExtractTile(tx, ty);
    CompressTileInPlace(&tile, config_.compression, config_.jpeg_quality);
    tiles.push_back(std::move(tile));
  }
  if (config_.emission == Emission::kTiles) {
    EmitTiles(std::move(tiles), current_frame_.frame_no, band_ts);
    return;
  }
  // Whole-frame mode: hold every band until the last one is digitised, then
  // ship them all — the frame-grabber behaviour the paper contrasts with.
  held_bands_.push_back(HeldBand{std::move(tiles), band_ts});
  const int bands = (config_.height + kTileDim - 1) / kTileDim;
  if (band == bands - 1) {
    for (HeldBand& held : held_bands_) {
      EmitTiles(std::move(held.tiles), current_frame_.frame_no, held.digitised_at);
    }
    held_bands_.clear();
  }
}

void AtmCamera::EmitTiles(std::vector<Tile> tiles, uint32_t frame_no, sim::TimeNs capture_ts) {
  TilePacket packet;
  packet.frame_no = frame_no;
  packet.capture_ts = capture_ts;
  auto ship = [this](const TilePacket& p) {
    std::vector<uint8_t> payload = p.Serialize();
    bytes_sent_ += static_cast<int64_t>(payload.size());
    ++packets_sent_;
    endpoint_->SendFrame(data_vci_, payload, config_.pace_bps);
    for (atm::Vci extra : extra_vcis_) {
      endpoint_->SendFrame(extra, payload, config_.pace_bps);
    }
  };
  // Tiles per AAL5 frame (a band of w/8 tiles is split as needed).
  constexpr size_t kTilesPerPacket = 10;
  for (Tile& tile : tiles) {
    packet.tiles.push_back(std::move(tile));
    if (packet.tiles.size() >= kTilesPerPacket) {
      ship(packet);
      packet.tiles.clear();
    }
  }
  if (!packet.tiles.empty()) {
    ship(packet);
  }
}

}  // namespace pegasus::dev
