#include "src/core/storage_node.h"

#include <algorithm>
#include <cstring>

#include "src/atm/wire.h"

namespace pegasus::core {

namespace {
constexpr int64_t kRecordHeader = 12;  // u32 length + i64 arrival timestamp
}

StorageNode::StorageNode(atm::Network* network, atm::Switch* sw, int port, pfs::PfsConfig config,
                         const std::string& name, int64_t link_bps)
    : sim_(sw->simulator()),
      endpoint_(network->AddEndpoint(name, sw, port, link_bps)),
      transport_(endpoint_),
      server_(sw->simulator(), config) {}

pfs::FileId StorageNode::SeedContinuousFile(int records, int record_bytes,
                                            sim::DurationNs cadence) {
  const pfs::FileId file = server_.CreateFile(pfs::FileType::kContinuous);
  // Build the whole title in one buffer and issue a single write.
  std::vector<uint8_t> all;
  all.reserve(static_cast<size_t>(records) * static_cast<size_t>(kRecordHeader + record_bytes));
  int64_t offset = 0;
  sim::TimeNs media_ts = sim_->now();
  for (int i = 0; i < records; ++i) {
    atm::WireWriter w;
    w.PutU32(static_cast<uint32_t>(record_bytes));
    w.PutI64(media_ts);
    std::vector<uint8_t> record = w.Take();
    record.resize(static_cast<size_t>(kRecordHeader + record_bytes), static_cast<uint8_t>(i));
    all.insert(all.end(), record.begin(), record.end());
    if (i % 25 == 0) {
      server_.AppendIndexEntry(file, media_ts, offset);
    }
    offset += kRecordHeader + record_bytes;
    media_ts += cadence;
  }
  server_.Write(file, 0, std::move(all), [](bool) {});
  return file;
}

pfs::FileId StorageNode::StartRecording(atm::Vci data_vci, atm::Vci control_vci,
                                        uint32_t stream_id) {
  const pfs::FileId file = server_.CreateFile(pfs::FileType::kContinuous);
  RecordingState state;
  state.file = file;
  state.stream_id = stream_id;
  state.control_vci = control_vci;
  recordings_[data_vci] = state;
  control_to_data_[control_vci] = data_vci;

  transport_.SetHandler(data_vci, [this](atm::Vci vci, std::vector<uint8_t> message,
                                         sim::TimeNs) { OnData(vci, std::move(message)); });
  transport_.SetHandler(control_vci,
                        [this](atm::Vci vci, std::vector<uint8_t> message, sim::TimeNs) {
                          auto msg = dev::ControlMessage::Parse(message);
                          if (msg.has_value()) {
                            OnControl(vci, *msg);
                          }
                        });
  return file;
}

void StorageNode::OnData(atm::Vci vci, std::vector<uint8_t> message) {
  auto it = recordings_.find(vci);
  if (it == recordings_.end()) {
    return;
  }
  RecordingState& state = it->second;
  atm::WireWriter w;
  w.PutU32(static_cast<uint32_t>(message.size()));
  w.PutI64(sim_->now());
  std::vector<uint8_t> record = w.Take();
  record.insert(record.end(), message.begin(), message.end());
  server_.Write(state.file, state.offset, std::move(record), [](bool) {});
  state.offset += kRecordHeader + static_cast<int64_t>(message.size());
  ++records_recorded_;
}

void StorageNode::OnControl(atm::Vci vci, const dev::ControlMessage& message) {
  auto data_it = control_to_data_.find(vci);
  if (data_it == control_to_data_.end()) {
    return;
  }
  auto rec_it = recordings_.find(data_it->second);
  if (rec_it == recordings_.end()) {
    return;
  }
  RecordingState& state = rec_it->second;
  switch (message.type) {
    case dev::ControlType::kSyncMark:
    case dev::ControlType::kIndexMark:
      // The control stream drives the index: media time -> byte offset.
      server_.AppendIndexEntry(state.file, message.media_ts, state.offset);
      break;
    case dev::ControlType::kStop:
      StopRecording(data_it->second, []() {});
      break;
    default:
      break;
  }
}

int64_t StorageNode::StopRecording(atm::Vci data_vci, std::function<void()> synced) {
  auto it = recordings_.find(data_vci);
  if (it == recordings_.end()) {
    sim_->ScheduleAfter(0, std::move(synced));
    return 0;
  }
  const int64_t bytes = it->second.offset;
  transport_.ClearHandler(data_vci);
  transport_.ClearHandler(it->second.control_vci);
  control_to_data_.erase(it->second.control_vci);
  recordings_.erase(it);
  server_.Sync(std::move(synced));
  return bytes;
}

bool StorageNode::StartPlayback(pfs::FileId file, atm::Vci out_vci, double speed,
                                sim::TimeNs from_ts) {
  if (server_.FileSize(file) <= 0 || speed <= 0.0) {
    return false;
  }
  PlaybackState state;
  state.out_vci = out_vci;
  state.speed = speed;
  state.running = true;
  state.next_send = sim_->now();
  state.generation = next_playback_generation_++;
  if (from_ts > 0) {
    auto offset = server_.LookupIndex(file, from_ts);
    if (offset.has_value()) {
      state.offset = *offset;
    }
  }
  playbacks_[file] = state;
  PlayNext(file, state.generation);
  return true;
}

void StorageNode::StopPlayback(pfs::FileId file) { playbacks_.erase(file); }

void StorageNode::SetPlayoutPaceBps(pfs::FileId file, int64_t bps) {
  if (bps > 0) {
    playout_pace_bps_[file] = bps;
  } else {
    playout_pace_bps_.erase(file);
  }
}

int64_t StorageNode::PlayoutPaceBps(pfs::FileId file) const {
  auto it = playout_pace_bps_.find(file);
  return it == playout_pace_bps_.end() ? 0 : it->second;
}

StorageNode::PlaybackState* StorageNode::LivePlayback(pfs::FileId file, uint64_t generation) {
  auto it = playbacks_.find(file);
  if (it == playbacks_.end() || it->second.generation != generation) {
    return nullptr;
  }
  return &it->second;
}

void StorageNode::PlayNext(pfs::FileId file, uint64_t generation) {
  PlaybackState* state = LivePlayback(file, generation);
  if (state == nullptr || !state->running) {
    return;
  }
  const int64_t file_size = server_.FileSize(file);
  if (state->offset + kRecordHeader > file_size) {
    playbacks_.erase(file);  // end of stream
    return;
  }
  // Parse the next record from the read-ahead window if it is fully there.
  const int64_t in_buffer_off = state->offset - state->buffer_base;
  const auto buffered = static_cast<int64_t>(state->buffer.size());
  bool have_record = false;
  uint32_t len = 0;
  sim::TimeNs media_ts = 0;
  if (in_buffer_off >= 0 && in_buffer_off + kRecordHeader <= buffered) {
    const uint8_t* p = state->buffer.data() + in_buffer_off;
    len = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
          static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
    std::memcpy(&media_ts, p + 4, 8);
    have_record = in_buffer_off + kRecordHeader + len <= buffered;
  }
  if (!have_record) {
    // Refill the window from the current offset: one large realtime read
    // instead of a disk visit per record.
    constexpr int64_t kReadAhead = 128 << 10;
    const int64_t want = std::min(kReadAhead, file_size - state->offset);
    const int64_t from = state->offset;
    server_.ReadRealtime(file, from, want,
                         [this, file, generation, from](bool ok, std::vector<uint8_t> data) {
                           PlaybackState* st = LivePlayback(file, generation);
                           if (st == nullptr) {
                             return;
                           }
                           if (!ok) {
                             playbacks_.erase(file);
                             return;
                           }
                           st->buffer = std::move(data);
                           st->buffer_base = from;
                           PlayNext(file, generation);
                         });
    return;
  }
  if (len == 0) {
    playbacks_.erase(file);  // corrupt or truncated tail
    return;
  }
  std::vector<uint8_t> payload(
      state->buffer.begin() + in_buffer_off + kRecordHeader,
      state->buffer.begin() + in_buffer_off + kRecordHeader + static_cast<int64_t>(len));
  // Re-time: preserve the recorded cadence, scaled by speed — but never
  // faster than the granted play-out rate, so a degraded stream's records
  // leave at the renegotiated pace rather than bursting past it.
  sim::DurationNs gap = 0;
  const bool had_cadence = state->last_media_ts >= 0;
  if (had_cadence) {
    gap = static_cast<sim::DurationNs>(
        static_cast<double>(media_ts - state->last_media_ts) / state->speed);
  }
  const int64_t pace = PlayoutPaceBps(file);
  if (pace > 0) {
    gap = std::max(gap, sim::TransmissionTime(kRecordHeader + len, pace));
  }
  state->last_media_ts = media_ts;
  // The record is due one (pace-stretched) cadence gap after its
  // predecessor; if a read-ahead refill stalled past that, the play-out is
  // late by the disk's fault — the quality metric the monitor watches. The
  // first record has no cadence yet, so its start-up read is not a miss.
  const sim::TimeNs due = state->next_send + gap;
  if (had_cadence) {
    server_.stream_quality().Record(sim_->now() - due);
  }
  state->next_send = std::max(due, sim_->now());
  state->offset += kRecordHeader + static_cast<int64_t>(len);
  const sim::TimeNs at = state->next_send;
  const atm::Vci vci = state->out_vci;
  sim_->ScheduleAt(at, [this, file, generation, vci, payload = std::move(payload)]() {
    if (LivePlayback(file, generation) == nullptr) {
      return;
    }
    transport_.Send(vci, payload);
    ++records_played_;
    PlayNext(file, generation);
  });
}

}  // namespace pegasus::core
