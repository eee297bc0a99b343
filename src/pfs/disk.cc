#include "src/pfs/disk.h"

#include <algorithm>
#include <cstring>

namespace pegasus::pfs {

SimDisk::SimDisk(sim::Simulator* sim, std::string name, DiskGeometry geometry)
    : sim_(sim), name_(std::move(name)), geometry_(geometry) {}

void SimDisk::Read(int64_t offset, int64_t len, bool realtime, ReadCallback callback) {
  Request req;
  req.is_write = false;
  req.offset = offset;
  req.len = len;
  req.read_cb = std::move(callback);
  Enqueue(std::move(req), realtime);
}

void SimDisk::Write(int64_t offset, std::vector<uint8_t> data, bool realtime,
                    WriteCallback callback) {
  Request req;
  req.is_write = true;
  req.offset = offset;
  req.len = static_cast<int64_t>(data.size());
  req.data = std::move(data);
  req.write_cb = std::move(callback);
  Enqueue(std::move(req), realtime);
}

void SimDisk::Enqueue(Request req, bool realtime) {
  if (failed_) {
    // Fail fast without consuming disk time.
    sim_->ScheduleAfter(0, [req = std::move(req)]() mutable {
      if (req.is_write) {
        req.write_cb(false);
      } else {
        req.read_cb(false, {});
      }
    });
    return;
  }
  if (realtime) {
    rt_queue_.push_back(std::move(req));
  } else {
    queue_.push_back(std::move(req));
  }
  if (!busy_) {
    StartNext();
  }
}

sim::DurationNs SimDisk::PositioningTime(int64_t offset) const {
  constexpr sim::DurationNs kMinSeek = sim::Milliseconds(1);    // track-to-track
  constexpr sim::DurationNs kMaxSeek = sim::Milliseconds(17);   // full stroke
  constexpr sim::DurationNs kRotation = sim::Milliseconds(11);  // ~5400 rpm
  const int64_t distance = std::abs(offset - head_pos_);
  if (distance == 0) {
    // Sequential access: no seek, no rotational delay (the head is there).
    return 0;
  }
  const double frac =
      static_cast<double>(distance) / static_cast<double>(geometry_.capacity_bytes);
  const auto seek = static_cast<sim::DurationNs>(
      static_cast<double>(kMinSeek) + frac * static_cast<double>(kMaxSeek - kMinSeek));
  return seek + kRotation / 2;
}

void SimDisk::StartNext() {
  std::deque<Request>* source = nullptr;
  if (!rt_queue_.empty()) {
    source = &rt_queue_;
  } else if (!queue_.empty()) {
    source = &queue_;
  } else {
    busy_ = false;
    return;
  }
  busy_ = true;
  Request req = std::move(source->front());
  source->pop_front();

  const sim::DurationNs position = PositioningTime(req.offset);
  const sim::DurationNs transfer =
      req.len * sim::Seconds(1) / DiskGeometry::transfer_bytes_per_sec;
  seek_time_ += position;
  transfer_time_ += transfer;
  busy_time_ += position + transfer;
  head_pos_ = req.offset + req.len;

  sim_->ScheduleAfter(position + transfer, [this, req = std::move(req)]() mutable {
    Complete(std::move(req));
    StartNext();
  });
}

void SimDisk::Complete(Request req) {
  if (failed_) {
    if (req.is_write) {
      req.write_cb(false);
    } else {
      req.read_cb(false, {});
    }
    return;
  }
  if (req.is_write) {
    ++writes_;
    bytes_written_ += req.len;
    StoreWrite(req.offset, req.data);
    req.write_cb(true);
  } else {
    ++reads_;
    bytes_read_ += req.len;
    req.read_cb(true, StoreRead(req.offset, req.len));
  }
}

void SimDisk::StoreWrite(int64_t offset, const std::vector<uint8_t>& data) {
  if (data.empty()) {
    return;
  }
  const int64_t end = offset + static_cast<int64_t>(data.size());
  // Trim or split any extent overlapping [offset, end).
  auto it = extents_.lower_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const int64_t prev_end = prev->first + static_cast<int64_t>(prev->second.size());
    if (prev_end > offset) {
      // The previous extent overlaps the front of the write range.
      std::vector<uint8_t> head(prev->second.begin(),
                                prev->second.begin() + (offset - prev->first));
      if (prev_end > end) {
        std::vector<uint8_t> tail(prev->second.begin() + (end - prev->first),
                                  prev->second.end());
        extents_[end] = std::move(tail);
      }
      prev->second = std::move(head);
      if (prev->second.empty()) {
        extents_.erase(prev);
      }
    }
  }
  it = extents_.lower_bound(offset);
  while (it != extents_.end() && it->first < end) {
    const int64_t it_end = it->first + static_cast<int64_t>(it->second.size());
    if (it_end <= end) {
      it = extents_.erase(it);
    } else {
      std::vector<uint8_t> tail(it->second.begin() + (end - it->first), it->second.end());
      extents_.erase(it);
      extents_[end] = std::move(tail);
      break;
    }
  }
  extents_[offset] = data;
}

std::vector<uint8_t> SimDisk::StoreRead(int64_t offset, int64_t len) const {
  std::vector<uint8_t> out(static_cast<size_t>(len), 0);
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    --it;
  }
  const int64_t end = offset + len;
  for (; it != extents_.end() && it->first < end; ++it) {
    const int64_t ext_start = it->first;
    const int64_t ext_end = ext_start + static_cast<int64_t>(it->second.size());
    const int64_t copy_start = std::max(offset, ext_start);
    const int64_t copy_end = std::min(end, ext_end);
    if (copy_start >= copy_end) {
      continue;
    }
    std::memcpy(out.data() + (copy_start - offset), it->second.data() + (copy_start - ext_start),
                static_cast<size_t>(copy_end - copy_start));
  }
  return out;
}

void SimDisk::Fail() {
  failed_ = true;
  // Error out everything already queued.
  auto flush = [this](std::deque<Request>* q) {
    while (!q->empty()) {
      Request req = std::move(q->front());
      q->pop_front();
      sim_->ScheduleAfter(0, [req = std::move(req)]() mutable {
        if (req.is_write) {
          req.write_cb(false);
        } else {
          req.read_cb(false, {});
        }
      });
    }
  };
  flush(&rt_queue_);
  flush(&queue_);
}

void SimDisk::Repair() { failed_ = false; }

void SimDisk::ReplaceBlank() {
  failed_ = false;
  extents_.clear();
  head_pos_ = 0;
}

}  // namespace pegasus::pfs
