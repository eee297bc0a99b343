#include "src/devices/audio.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pegasus::dev {

AudioCapture::AudioCapture(sim::Simulator* sim, atm::Endpoint* endpoint, int sample_rate)
    : sim_(sim), endpoint_(endpoint), sample_rate_(sample_rate) {}

void AudioCapture::Start(atm::Vci vci) {
  if (running_) {
    return;
  }
  vci_ = vci;
  running_ = true;
  EmitCell();
}

void AudioCapture::Stop() { running_ = false; }

int64_t AudioCapture::nominal_bps() const {
  return atm::kCellSize * 8 * sim::Seconds(1) / CellPeriod();
}

sim::DurationNs AudioCapture::CellInterval() const {
  if (pace_bps_ <= 0) {
    return CellPeriod();
  }
  return std::max(CellPeriod(), sim::TransmissionTime(atm::kCellSize, pace_bps_));
}

void AudioCapture::EmitCell() {
  if (!running_) {
    return;
  }
  const sim::DurationNs interval = CellInterval();
  const sim::DurationNs cell_period = CellPeriod();
  // Paced below the sample cadence, the ADC decimates: samples captured
  // since the last shipped cell that do not fit are skipped, not queued (an
  // ever-growing backlog would just be deferred loss).
  const uint64_t skipped =
      interval > cell_period
          ? static_cast<uint64_t>((interval - cell_period) * sample_rate_ / sim::Seconds(1))
          : 0;
  samples_decimated_ += static_cast<int64_t>(skipped);
  atm::Cell cell;
  cell.vci = vci_;
  cell.created_at = sim_->now();
  cell.seq = static_cast<uint64_t>(cells_sent_);
  cell.end_of_frame = true;  // each audio cell stands alone
  // Payload: 8-byte capture timestamp + 40 samples of a 440 Hz tone.
  const sim::TimeNs ts = sim_->now();
  std::memcpy(cell.payload.data(), &ts, 8);
  for (int i = 0; i < kSamplesPerAudioCell; ++i) {
    const double t = static_cast<double>(sample_pos_ + static_cast<uint64_t>(i)) /
                     static_cast<double>(sample_rate_);
    cell.payload[static_cast<size_t>(8 + i)] =
        static_cast<uint8_t>(128.0 + 100.0 * std::sin(2.0 * M_PI * 440.0 * t));
  }
  sample_pos_ += kSamplesPerAudioCell + skipped;
  ++cells_sent_;
  endpoint_->SendCell(cell);
  sim_->ScheduleAfter(interval, [this]() { EmitCell(); });
}

AudioPlayback::AudioPlayback(sim::Simulator* sim, atm::Endpoint* endpoint, int sample_rate,
                             sim::DurationNs buffer_depth)
    : sim_(sim),
      endpoint_(endpoint),
      sample_rate_(sample_rate),
      buffer_depth_(buffer_depth),
      cell_period_(sim::Seconds(1) * kSamplesPerAudioCell / sample_rate) {
  endpoint_->set_cell_handler(
      [this](const atm::Cell* cells, size_t count) { OnBurst(cells, count); });
}

void AudioPlayback::OnBurst(const atm::Cell* cells, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    ++cells_received_;
    sim::TimeNs ts = 0;
    std::memcpy(&ts, cells[i].payload.data(), 8);
    buffer_.push_back(ts);
    if (!playing_) {
      const auto needed = static_cast<size_t>(buffer_depth_ / cell_period_);
      if (buffer_.size() > needed) {
        playing_ = true;
        next_tick_ = sim_->now();
        Tick();
      }
    }
  }
}

void AudioPlayback::Tick() {
  if (!playing_) {
    return;
  }
  const sim::TimeNs ideal = next_tick_;
  jitter_.Add(static_cast<double>(std::abs(sim_->now() - ideal)));
  if (buffer_.empty()) {
    ++underruns_;
  } else {
    const sim::TimeNs capture_ts = buffer_.front();
    buffer_.pop_front();
    ++cells_played_;
    latency_.Add(static_cast<double>(sim_->now() - capture_ts));
    if (playout_cb_) {
      playout_cb_(capture_ts, sim_->now());
    }
  }
  next_tick_ += cell_period_;
  sim_->ScheduleAt(next_tick_, [this]() { Tick(); });
}

}  // namespace pegasus::dev
