#include "src/devices/sync.h"

#include <cmath>

namespace pegasus::dev {

PlaybackController::PlaybackController(sim::Simulator* sim, Options options)
    : sim_(sim), options_(options) {}

int PlaybackController::RegisterStream(const std::string& name) {
  streams_.push_back(Stream{name, {}, 1.0});
  return static_cast<int>(streams_.size()) - 1;
}

void PlaybackController::SetEffectiveRate(int stream, double fraction) {
  if (stream < 0 || stream >= static_cast<int>(streams_.size())) {
    return;
  }
  streams_[static_cast<size_t>(stream)].effective_rate = fraction;
}

double PlaybackController::EffectiveRate(int stream) const {
  if (stream < 0 || stream >= static_cast<int>(streams_.size())) {
    return 1.0;
  }
  return streams_[static_cast<size_t>(stream)].effective_rate;
}

void PlaybackController::OnArrival(int stream, sim::TimeNs media_ts) {
  if (options_.mode == Mode::kImmediate) {
    Playout(stream, media_ts);
    return;
  }
  if (!clock_fixed_) {
    clock_fixed_ = true;
    base_ts_ = media_ts;
    t0_ = sim_->now() + options_.margin;
  }
  const sim::TimeNs due = t0_ + (media_ts - base_ts_);
  if (sim_->now() >= due) {
    ++late_arrivals_;
    Playout(stream, media_ts);
    return;
  }
  sim_->ScheduleAt(due, [this, stream, media_ts]() { Playout(stream, media_ts); });
}

void PlaybackController::Playout(int stream, sim::TimeNs media_ts) {
  const sim::TimeNs now = sim_->now();
  ++playouts_;
  Stream& s = streams_[static_cast<size_t>(stream)];
  s.history.emplace_back(media_ts, now);
  while (s.history.size() > 256) {
    s.history.pop_front();
  }
  // Skew against the nearest-in-media-time sample of every other stream:
  // skew = (playout - media_ts) difference between the streams.
  // How far apart two streams' samples may be and still be compared.
  constexpr sim::DurationNs kSkewMatchWindow = sim::Milliseconds(100);
  for (size_t other = 0; other < streams_.size(); ++other) {
    if (other == static_cast<size_t>(stream)) {
      continue;
    }
    const Stream& o = streams_[other];
    sim::TimeNs best_gap = kSkewMatchWindow + 1;
    sim::TimeNs best_skew = 0;
    for (const auto& [ots, oplay] : o.history) {
      const sim::TimeNs gap = std::llabs(ots - media_ts);
      if (gap < best_gap) {
        best_gap = gap;
        best_skew = (now - media_ts) - (oplay - ots);
      }
    }
    if (best_gap <= kSkewMatchWindow) {
      skew_.Add(static_cast<double>(std::llabs(best_skew)));
    }
  }
  if (playout_cb_) {
    playout_cb_(stream, media_ts, now);
  }
}

}  // namespace pegasus::dev
