#include "src/pfs/server.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>

namespace pegasus::pfs {

// Implementation note: file blocks are stored as full block_size units
// (zero-padded at the tail), so every on-disk block, garbage entry and
// summary entry has length == block_size. This keeps the log arithmetic
// simple without changing any behaviour the experiments measure.

PegasusFileServer::PegasusFileServer(sim::Simulator* sim, PfsConfig config)
    : sim_(sim),
      config_(config),
      store_(std::make_unique<StripeStore>(sim, PfsConfig::num_data_disks, config.segment_size,
                                           config.geometry)),
      meta_(store_->capacity_segments()) {
  durable_meta_image_ = meta_.Serialize();
}

PegasusFileServer::~PegasusFileServer() = default;

FileId PegasusFileServer::CreateFile(FileType type) {
  if (crashed_) {
    return -1;
  }
  return meta_.CreateFile(type)->id;
}

std::optional<FileType> PegasusFileServer::FileTypeOf(FileId file) const {
  const Pnode* node = meta_.Find(file);
  if (node == nullptr) {
    return std::nullopt;
  }
  return node->type;
}

int64_t PegasusFileServer::FileSize(FileId file) const {
  const Pnode* node = meta_.Find(file);
  return node == nullptr ? -1 : node->size;
}

int64_t PegasusFileServer::buffered_bytes() const {
  return open_normal_.bytes + open_continuous_.bytes;
}

PegasusFileServer::OpenBlock* PegasusFileServer::FindOpenBlock(FileId file, int64_t block) {
  for (OpenSegment* seg : {&open_normal_, &open_continuous_}) {
    for (OpenBlock& b : seg->blocks) {
      if (b.file == file && b.block == block) {
        return &b;
      }
    }
  }
  return nullptr;
}

void PegasusFileServer::Write(FileId file, int64_t offset, std::vector<uint8_t> data,
                              WriteCallback callback) {
  Pnode* node = meta_.Find(file);
  if (crashed_ || node == nullptr || data.empty() || offset < 0) {
    sim_->ScheduleAfter(0, [callback = std::move(callback)]() { callback(false); });
    return;
  }
  const FileType type = node->type;
  const int64_t bs = config_.block_size;
  const int64_t end = offset + static_cast<int64_t>(data.size());

  struct BlockWrite {
    int64_t block = 0;
    std::vector<uint8_t> base;  // block content when this write was issued
    bool needs_read = false;
  };
  auto writes = std::make_shared<std::vector<BlockWrite>>();
  for (int64_t block = offset / bs; block * bs < end; ++block) {
    BlockWrite bw;
    bw.block = block;
    OpenBlock* open = FindOpenBlock(file, block);
    if (open != nullptr) {
      bw.base = open->data;
    } else {
      bw.base.assign(static_cast<size_t>(bs), 0);
      const int64_t b_start = block * bs;
      const bool full_cover = offset <= b_start && end >= b_start + bs;
      if (!full_cover && node->blocks.count(block) > 0) {
        bw.needs_read = true;  // read-modify-write against the disk copy
      }
    }
    writes->push_back(std::move(bw));
  }

  const uint64_t epoch = epoch_;
  auto commit = [this, epoch, file, type, offset, end, bs, writes,
                 data = std::move(data), callback = std::move(callback)]() {
    if (epoch != epoch_ || crashed_) {
      callback(false);
      return;
    }
    Pnode* n = meta_.Find(file);
    if (n == nullptr) {
      callback(false);
      return;
    }
    for (BlockWrite& bw : *writes) {
      // Overlay the newly written range onto the block as it is buffered
      // now, if it is: a write committed since this one was issued (in the
      // same event, say) may have changed it. Otherwise the issue-time base
      // (or the read-modify-write disk copy) stands.
      if (const OpenBlock* open = FindOpenBlock(file, bw.block)) {
        bw.base = open->data;
      }
      const int64_t b_start = bw.block * bs;
      const int64_t cover_start = std::max(offset, b_start);
      const int64_t cover_end = std::min(end, b_start + bs);
      std::memcpy(bw.base.data() + (cover_start - b_start), data.data() + (cover_start - offset),
                  static_cast<size_t>(cover_end - cover_start));
      BufferBlock(type, file, bw.block, std::move(bw.base));
    }
    n->size = std::max(n->size, end);
    callback(true);
    if (config_.write_back_delay == 0) {
      FlushOpen(type, []() {});
    }
  };

  auto pending = std::make_shared<int>(0);
  for (const BlockWrite& bw : *writes) {
    if (bw.needs_read) {
      ++*pending;
    }
  }
  if (*pending == 0) {
    sim_->ScheduleAfter(0, commit);
    return;
  }
  for (size_t i = 0; i < writes->size(); ++i) {
    if (!(*writes)[i].needs_read) {
      continue;
    }
    const BlockLocation loc = node->blocks[(*writes)[i].block];
    store_->ReadRange(loc.segment, loc.offset, loc.length, type == FileType::kContinuous,
                      [writes, i, pending, commit](bool ok, std::vector<uint8_t> old) {
                        if (ok) {
                          BlockWrite& target = (*writes)[i];
                          std::memcpy(target.base.data(), old.data(),
                                      std::min(old.size(), target.base.size()));
                        }
                        if (--*pending == 0) {
                          commit();
                        }
                      });
  }
}

void PegasusFileServer::BufferBlock(FileType type, FileId file, int64_t block,
                                    std::vector<uint8_t> data) {
  data.resize(static_cast<size_t>(config_.block_size), 0);
  ++blocks_accepted_;
  OpenBlock* existing = FindOpenBlock(file, block);
  if (existing != nullptr) {
    // The previous buffered version dies in memory: one disk write saved —
    // the §5 benefit of delaying writes.
    existing->data = std::move(data);
    ++blocks_died_in_buffer_;
    return;
  }
  OpenSegment& open = open_for(type);
  OpenBlock ob;
  ob.file = file;
  ob.block = block;
  ob.data = std::move(data);
  ob.buffered_at = sim_->now();
  open.blocks.push_back(std::move(ob));
  open.bytes += config_.block_size;
  if (open.bytes > config_.max_buffered_bytes) {
    // Memory pressure: push the oldest segment's worth out early.
    const auto per_segment = static_cast<size_t>(config_.segment_size / config_.block_size);
    std::vector<OpenBlock> oldest(
        std::make_move_iterator(open.blocks.begin()),
        std::make_move_iterator(open.blocks.begin() +
                                std::min(per_segment, open.blocks.size())));
    open.blocks.erase(open.blocks.begin(),
                      open.blocks.begin() + static_cast<int64_t>(oldest.size()));
    open.bytes -= static_cast<int64_t>(oldest.size()) * config_.block_size;
    PackAndWrite(type, std::move(oldest), []() {});
  }
  ScheduleFlushTimer(type);
}

void PegasusFileServer::ScheduleFlushTimer(FileType type) {
  OpenSegment& open = open_for(type);
  if (open.flush_scheduled || config_.write_back_delay <= 0 || open.blocks.empty()) {
    return;
  }
  // Fire when the oldest buffered block's write-back window expires.
  const sim::TimeNs due = open.blocks.front().buffered_at + config_.write_back_delay;
  open.flush_scheduled = true;
  open.flush_timer = sim_->ScheduleAt(due, [this, type]() {
    open_for(type).flush_scheduled = false;
    FlushOpen(
        type, []() {}, /*aged_only=*/true);
    ScheduleFlushTimer(type);
  });
}

void PegasusFileServer::FlushOpen(FileType type, std::function<void()> done, bool aged_only) {
  OpenSegment& open = open_for(type);
  if (!aged_only && open.flush_scheduled) {
    sim_->Cancel(open.flush_timer);
    open.flush_scheduled = false;
  }
  if (open.blocks.empty() || crashed_) {
    sim_->ScheduleAfter(0, done);
    return;
  }
  std::vector<OpenBlock> blocks;
  if (aged_only) {
    const sim::TimeNs cutoff = sim_->now() - config_.write_back_delay;
    auto first_young = open.blocks.begin();
    while (first_young != open.blocks.end() && first_young->buffered_at <= cutoff) {
      ++first_young;
    }
    blocks.assign(std::make_move_iterator(open.blocks.begin()),
                  std::make_move_iterator(first_young));
    open.blocks.erase(open.blocks.begin(), first_young);
  } else {
    blocks.swap(open.blocks);
  }
  open.bytes -= static_cast<int64_t>(blocks.size()) * config_.block_size;
  if (blocks.empty()) {
    sim_->ScheduleAfter(0, done);
    return;
  }
  PackAndWrite(type, std::move(blocks), std::move(done));
}

void PegasusFileServer::PackAndWrite(FileType type, std::vector<OpenBlock> blocks,
                                     std::function<void()> done) {
  // Split into as many segments as the blocks need; `done` fires after the
  // last segment write is issued and completed.
  const auto per_segment = static_cast<size_t>(config_.segment_size / config_.block_size);
  auto remaining = std::make_shared<int>(0);
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  std::vector<std::vector<OpenBlock>> batches;
  for (size_t i = 0; i < blocks.size(); i += per_segment) {
    const size_t end = std::min(blocks.size(), i + per_segment);
    batches.emplace_back(std::make_move_iterator(blocks.begin() + static_cast<int64_t>(i)),
                         std::make_move_iterator(blocks.begin() + static_cast<int64_t>(end)));
  }
  *remaining = static_cast<int>(batches.size());
  for (auto& batch : batches) {
    WriteSegmentOf(type, std::move(batch), [remaining, done_shared]() {
      if (--*remaining == 0) {
        (*done_shared)();
      }
    });
  }
}

void PegasusFileServer::WriteSegmentOf(FileType type, std::vector<OpenBlock> blocks,
                                       std::function<void()> done) {
  const int64_t seg = meta_.AllocateSegment(type == FileType::kContinuous);
  if (seg < 0) {
    // Out of space: drop the flush (callers learn via free_segments()).
    sim_->ScheduleAfter(0, done);
    return;
  }
  std::vector<uint8_t> payload;
  payload.reserve(static_cast<size_t>(config_.segment_size));
  struct Placed {
    FileId file;
    int64_t block;
    int64_t offset;
  };
  std::vector<Placed> placed;
  for (OpenBlock& b : blocks) {
    placed.push_back({b.file, b.block, static_cast<int64_t>(payload.size())});
    payload.insert(payload.end(), b.data.begin(), b.data.end());
  }

  const uint64_t epoch = epoch_;
  ++pending_flushes_;
  auto release = [this, epoch]() {
    if (epoch == epoch_ && pending_flushes_ > 0) {
      --pending_flushes_;
      MaybeFinishSync();
    }
  };
  store_->WriteSegment(seg, std::move(payload), [this, epoch, seg, placed, release,
                                                 done = std::move(done)](bool ok) {
    if (epoch != epoch_ || crashed_) {
      done();
      return;
    }
    if (!ok) {
      // A failed segment write (multi-disk failure) leaves old data intact.
      meta_.FreeSegment(seg);
      release();
      done();
      return;
    }
    ++segments_written_;
    SegmentInfo& info = meta_.segment(seg);
    for (const Placed& p : placed) {
      Pnode* node = meta_.Find(p.file);
      if (node == nullptr) {
        // Deleted while the flush was in flight: immediately garbage.
        meta_.AppendGarbage(GarbageEntry{seg, p.offset, config_.block_size});
        continue;
      }
      auto old = node->blocks.find(p.block);
      if (old != node->blocks.end()) {
        meta_.AppendGarbage(GarbageEntry{old->second.segment, old->second.offset,
                                         old->second.length});
        meta_.segment(old->second.segment).live_bytes -= old->second.length;
      }
      node->blocks[p.block] = BlockLocation{seg, p.offset, config_.block_size};
      info.live_bytes += config_.block_size;
      info.summary.push_back(SummaryEntry{p.file, p.block, p.offset, config_.block_size});
      ++blocks_flushed_;
    }
    // Data is durable once both the segment and the checkpoint that
    // references it are on disk; only then do clients learn about it.
    WriteCheckpoint([this, placed, release]() {
      if (durable_cb_) {
        for (const Placed& p : placed) {
          durable_cb_(p.file, p.block * config_.block_size, config_.block_size);
        }
      }
      release();
    });
    done();
  });
}

void PegasusFileServer::WriteCheckpoint(std::function<void()> done) {
  // Checkpoints coalesce: while one image is being written, further requests
  // wait and are satisfied together by the next (single) checkpoint, which
  // by then covers their metadata too.
  checkpoint_waiters_.push_back(std::move(done));
  if (checkpoint_in_flight_) {
    checkpoint_dirty_ = true;
    return;
  }
  StartCheckpoint();
}

void PegasusFileServer::StartCheckpoint() {
  checkpoint_in_flight_ = true;
  checkpoint_dirty_ = false;
  std::vector<std::function<void()>> waiters;
  waiters.swap(checkpoint_waiters_);
  std::vector<uint8_t> image = meta_.Serialize();
  const uint64_t epoch = epoch_;
  // The checkpoint region lives past the segment area on the first disk.
  const int64_t ckpt_offset = config_.geometry.capacity_bytes;
  store_->disk(0)->Write(
      ckpt_offset, image,
      /*realtime=*/false,
      [this, epoch, image, waiters = std::move(waiters)](bool ok) {
        if (epoch == epoch_ && ok) {
          durable_meta_image_ = image;
        }
        for (const auto& w : waiters) {
          w();
        }
        if (epoch != epoch_) {
          return;  // a crash reset the checkpoint machinery
        }
        checkpoint_in_flight_ = false;
        if (checkpoint_dirty_ || !checkpoint_waiters_.empty()) {
          StartCheckpoint();
        }
      });
}

void PegasusFileServer::MaybeFinishSync() {
  if (pending_flushes_ > 0 || buffered_bytes() > 0) {
    return;
  }
  std::vector<std::function<void()>> waiters;
  waiters.swap(sync_waiters_);
  for (auto& w : waiters) {
    w();
  }
}

void PegasusFileServer::Sync(std::function<void()> callback) {
  sync_waiters_.push_back(std::move(callback));
  FlushOpen(FileType::kNormal, []() {});
  FlushOpen(FileType::kContinuous, []() {});
  // If nothing was buffered and no flush is in flight, finish immediately.
  sim_->ScheduleAfter(0, [this]() { MaybeFinishSync(); });
}

void PegasusFileServer::DoRead(FileId file, int64_t offset, int64_t len, bool realtime,
                               ReadCallback callback) {
  Pnode* node = meta_.Find(file);
  if (crashed_ || node == nullptr || offset < 0 || len <= 0) {
    sim_->ScheduleAfter(0, [callback = std::move(callback)]() { callback(false, {}); });
    return;
  }
  const int64_t bs = config_.block_size;
  const int64_t end = offset + len;

  struct Gather {
    int pending = 1;  // released once all requests are issued
    bool ok = true;
    std::vector<uint8_t> out;
  };
  auto gather = std::make_shared<Gather>();
  gather->out.assign(static_cast<size_t>(len), 0);
  auto finish = [gather, callback = std::move(callback)]() {
    if (--gather->pending == 0) {
      callback(gather->ok, std::move(gather->out));
    }
  };

  for (int64_t block = offset / bs; block * bs < end; ++block) {
    const int64_t b_start = block * bs;
    const int64_t copy_start = std::max(offset, b_start);
    const int64_t copy_end = std::min(end, b_start + bs);
    OpenBlock* open = FindOpenBlock(file, block);
    if (open != nullptr) {
      std::memcpy(gather->out.data() + (copy_start - offset),
                  open->data.data() + (copy_start - b_start),
                  static_cast<size_t>(copy_end - copy_start));
      continue;
    }
    auto loc_it = node->blocks.find(block);
    if (loc_it == node->blocks.end()) {
      continue;  // hole: zeros
    }
    ++gather->pending;
    const BlockLocation loc = loc_it->second;
    store_->ReadRange(loc.segment, loc.offset, loc.length, realtime,
                      [gather, copy_start, copy_end, b_start, offset, finish](
                          bool ok, std::vector<uint8_t> data) {
                        if (!ok) {
                          gather->ok = false;
                        } else {
                          std::memcpy(gather->out.data() + (copy_start - offset),
                                      data.data() + (copy_start - b_start),
                                      static_cast<size_t>(copy_end - copy_start));
                        }
                        finish();
                      });
  }
  sim_->ScheduleAfter(0, finish);  // release the issue hold
}

void PegasusFileServer::Read(FileId file, int64_t offset, int64_t len, ReadCallback callback) {
  DoRead(file, offset, len, /*realtime=*/false, std::move(callback));
}

void PegasusFileServer::ReadRealtime(FileId file, int64_t offset, int64_t len,
                                     ReadCallback callback) {
  DoRead(file, offset, len, /*realtime=*/true, std::move(callback));
}

bool PegasusFileServer::Delete(FileId file) {
  Pnode* node = meta_.Find(file);
  if (crashed_ || node == nullptr) {
    return false;
  }
  // On-disk blocks become garbage-file entries.
  for (const auto& [block, loc] : node->blocks) {
    (void)block;
    meta_.AppendGarbage(GarbageEntry{loc.segment, loc.offset, loc.length});
    meta_.segment(loc.segment).live_bytes -= loc.length;
  }
  // Buffered blocks die quietly in memory: disk writes saved.
  for (OpenSegment* seg : {&open_normal_, &open_continuous_}) {
    auto& blocks = seg->blocks;
    auto it = blocks.begin();
    while (it != blocks.end()) {
      if (it->file == file) {
        seg->bytes -= config_.block_size;
        ++blocks_died_in_buffer_;
        it = blocks.erase(it);
      } else {
        ++it;
      }
    }
  }
  ReleaseStream(file);
  return meta_.RemoveFile(file);
}

// --- continuous-media support ---

int64_t PegasusFileServer::StreamBudgetBps() const {
  // Fraction of aggregate disk bandwidth admitted to stream reservations.
  constexpr double kStreamAdmissionFraction = 0.8;
  return static_cast<int64_t>(static_cast<double>(PfsConfig::num_data_disks) *
                              static_cast<double>(DiskGeometry::transfer_bytes_per_sec) *
                              kStreamAdmissionFraction);
}

bool PegasusFileServer::ReserveStream(FileId file, int64_t bytes_per_second) {
  if (reserved_bps_ + bytes_per_second > StreamBudgetBps()) {
    return false;
  }
  reserved_bps_ += bytes_per_second;
  stream_reservations_[file] += bytes_per_second;
  return true;
}

void PegasusFileServer::ReleaseStream(FileId file) {
  auto it = stream_reservations_.find(file);
  if (it == stream_reservations_.end()) {
    return;
  }
  reserved_bps_ -= it->second;
  stream_reservations_.erase(it);
  stream_pressure_callbacks_.erase(file);
}

void PegasusFileServer::SetStreamPressureCallback(FileId file, PressureCallback callback) {
  if (stream_reservations_.count(file) == 0) {
    return;
  }
  stream_pressure_callbacks_[file] = std::move(callback);
}

int PegasusFileServer::SignalBudgetPressure(double fraction) {
  // Collect first: a callback may renegotiate its reservation, mutating the
  // reservation and callback maps.
  std::vector<PressureCallback> to_notify;
  for (const auto& [file, callback] : stream_pressure_callbacks_) {
    (void)file;
    to_notify.push_back(callback);
  }
  for (PressureCallback& callback : to_notify) {
    callback(fraction);
  }
  return static_cast<int>(to_notify.size());
}

bool PegasusFileServer::AppendIndexEntry(FileId file, int64_t media_ts, int64_t byte_offset) {
  Pnode* node = meta_.Find(file);
  if (node == nullptr) {
    return false;
  }
  node->index[media_ts] = byte_offset;
  return true;
}

std::optional<int64_t> PegasusFileServer::LookupIndex(FileId file, int64_t media_ts) const {
  const Pnode* node = meta_.Find(file);
  if (node == nullptr || node->index.empty()) {
    return std::nullopt;
  }
  auto it = node->index.upper_bound(media_ts);
  if (it == node->index.begin()) {
    return std::nullopt;
  }
  --it;
  return it->second;
}

// --- cleaning ---

void PegasusFileServer::Clean(CleanCallback callback) {
  const sim::TimeNs started = sim_->now();
  CleanStats stats;
  // Read the garbage file up to the marker; sort its entries by segment.
  const size_t marker = meta_.MarkGarbage();
  std::set<int64_t> victim_set;
  size_t i = 0;
  for (const GarbageEntry& g : meta_.garbage()) {
    if (i++ >= marker) {
      break;
    }
    ++stats.entries_processed;
    victim_set.insert(g.segment);
  }
  stats.segments_examined = static_cast<int64_t>(victim_set.size());
  std::vector<int64_t> victims(victim_set.begin(), victim_set.end());
  CleanSegments(std::move(victims), marker, stats, started, std::move(callback));
}

void PegasusFileServer::CleanFullScan(CleanCallback callback) {
  const sim::TimeNs started = sim_->now();
  CleanStats stats;
  // Sprite-style: examine EVERY segment's summary to decide cleanability.
  std::vector<int64_t> victims;
  for (int64_t s = 0; s < meta_.num_segments(); ++s) {
    ++stats.segments_examined;
    const SegmentInfo& info = meta_.segment(s);
    if (info.state != SegmentInfo::State::kLive) {
      continue;
    }
    int64_t occupied = 0;
    for (const SummaryEntry& e : info.summary) {
      (void)e;
      occupied += e.length;
    }
    if (info.live_bytes < occupied) {
      victims.push_back(s);
    }
  }
  // The full scan subsumes the garbage file: consume it all.
  const size_t marker = meta_.MarkGarbage();
  CleanSegments(std::move(victims), marker, stats, started, std::move(callback));
}

void PegasusFileServer::CleanSegments(std::vector<int64_t> victims, size_t garbage_marker,
                                      CleanStats stats, sim::TimeNs started_at,
                                      CleanCallback callback) {
  // Relocation buffers, one per data class, flushed as they fill.
  struct CleanState {
    std::vector<int64_t> victims;
    size_t next = 0;
    CleanStats stats;
    size_t marker;
    sim::TimeNs started_at;
    CleanCallback callback;
  };
  auto state = std::make_shared<CleanState>();
  state->victims = std::move(victims);
  state->stats = stats;
  state->marker = garbage_marker;
  state->started_at = started_at;
  state->callback = std::move(callback);

  const uint64_t epoch = epoch_;
  // Processes victims one at a time (bounded memory, like the real cleaner).
  auto step = std::make_shared<std::function<void()>>();
  // The closure holds itself only weakly; the strong references live in the
  // caller and the pending async continuations, so the chain frees itself
  // after the last step (a strong self-capture would leak the closure).
  *step = [this, state, epoch,
           weak_step = std::weak_ptr<std::function<void()>>(step)]() {
    auto step = weak_step.lock();
    if (step == nullptr) {
      return;
    }
    if (epoch != epoch_ || crashed_) {
      state->callback(state->stats);
      return;
    }
    if (state->next >= state->victims.size()) {
      // Done: drop the processed prefix of the garbage file ("the portion of
      // the garbage file before the marker is deleted") and checkpoint.
      meta_.TruncateGarbage(state->marker);
      WriteCheckpoint([state, this]() {
        state->stats.wall_time = sim_->now() - state->started_at;
        state->callback(state->stats);
      });
      return;
    }
    const int64_t seg = state->victims[state->next++];
    SegmentInfo& info = meta_.segment(seg);
    if (info.state != SegmentInfo::State::kLive) {
      (*step)();
      return;
    }
    if (info.live_bytes <= 0) {
      // Entirely dead: free without reading a byte.
      state->stats.bytes_reclaimed += config_.segment_size;
      ++state->stats.segments_cleaned;
      meta_.FreeSegment(seg);
      (*step)();
      return;
    }
    // Live data present: read the segment, relocate the live blocks.
    store_->ReadSegment(seg, [this, state, seg, epoch, step](bool ok,
                                                             std::vector<uint8_t> data) {
      if (epoch != epoch_ || crashed_ || !ok) {
        state->callback(state->stats);
        return;
      }
      SegmentInfo& info2 = meta_.segment(seg);
      std::vector<std::pair<SummaryEntry, std::vector<uint8_t>>> live;
      for (const SummaryEntry& e : info2.summary) {
        Pnode* node = meta_.Find(e.file);
        if (node == nullptr) {
          continue;
        }
        auto it = node->blocks.find(e.block);
        if (it == node->blocks.end() || it->second.segment != seg ||
            it->second.offset != e.offset) {
          continue;  // superseded elsewhere
        }
        live.emplace_back(e, std::vector<uint8_t>(
                                 data.begin() + e.offset,
                                 data.begin() + e.offset + e.length));
      }
      state->stats.bytes_reclaimed +=
          config_.segment_size - static_cast<int64_t>(live.size()) * config_.block_size;
      ++state->stats.segments_cleaned;

      if (live.empty()) {
        meta_.FreeSegment(seg);
        (*step)();
        return;
      }
      // Pack live blocks into a fresh segment and write it before freeing
      // the victim (crash safety).
      const bool continuous = info2.continuous;
      const int64_t new_seg = meta_.AllocateSegment(continuous);
      if (new_seg < 0) {
        state->callback(state->stats);  // out of space; abort the clean
        return;
      }
      std::vector<uint8_t> payload;
      std::vector<SummaryEntry> new_summary;
      for (auto& [entry, bytes] : live) {
        SummaryEntry moved = entry;
        moved.offset = static_cast<int64_t>(payload.size());
        new_summary.push_back(moved);
        payload.insert(payload.end(), bytes.begin(), bytes.end());
        state->stats.live_bytes_copied += entry.length;
      }
      store_->WriteSegment(new_seg, std::move(payload),
                           [this, state, seg, new_seg, new_summary, epoch, step](bool ok2) {
                             if (epoch != epoch_ || crashed_ || !ok2) {
                               state->callback(state->stats);
                               return;
                             }
                             SegmentInfo& dst = meta_.segment(new_seg);
                             for (const SummaryEntry& e : new_summary) {
                               Pnode* node = meta_.Find(e.file);
                               if (node != nullptr) {
                                 node->blocks[e.block] =
                                     BlockLocation{new_seg, e.offset, e.length};
                               }
                               dst.live_bytes += e.length;
                               dst.summary.push_back(e);
                             }
                             meta_.FreeSegment(seg);
                             (*step)();
                           });
    });
  };
  sim_->ScheduleAfter(0, [step]() { (*step)(); });
}

void PegasusFileServer::RebuildDisk(int disk_index,
                                    std::function<void(bool, int64_t)> callback) {
  // Only live segments hold data worth rebuilding; free ones are rewritten
  // in full when reallocated.
  auto victims = std::make_shared<std::vector<int64_t>>();
  for (int64_t s = 0; s < meta_.num_segments(); ++s) {
    if (meta_.segment(s).state == SegmentInfo::State::kLive) {
      victims->push_back(s);
    }
  }
  auto state = std::make_shared<std::pair<size_t, bool>>(0, true);  // next index, ok
  auto step = std::make_shared<std::function<void()>>();
  const uint64_t epoch = epoch_;
  // Weak self-capture, as in CleanSegments: the pending RebuildChunk
  // continuations carry the strong references.
  *step = [this, epoch, disk_index, victims, state,
           weak_step = std::weak_ptr<std::function<void()>>(step),
           callback = std::move(callback)]() {
    auto step = weak_step.lock();
    if (step == nullptr) {
      return;
    }
    if (epoch != epoch_ || crashed_) {
      callback(false, static_cast<int64_t>(state->first));
      return;
    }
    if (state->first >= victims->size()) {
      callback(state->second, static_cast<int64_t>(victims->size()));
      return;
    }
    const int64_t seg = (*victims)[state->first++];
    store_->RebuildChunk(disk_index, seg, [state, step](bool ok) {
      state->second = state->second && ok;
      (*step)();
    });
  };
  sim_->ScheduleAfter(0, [step]() { (*step)(); });
}

// --- failure injection ---

void PegasusFileServer::Crash() {
  crashed_ = true;
  ++epoch_;
  open_normal_.blocks.clear();
  open_normal_.bytes = 0;
  if (open_normal_.flush_scheduled) {
    sim_->Cancel(open_normal_.flush_timer);
    open_normal_.flush_scheduled = false;
  }
  open_continuous_.blocks.clear();
  open_continuous_.bytes = 0;
  if (open_continuous_.flush_scheduled) {
    sim_->Cancel(open_continuous_.flush_timer);
    open_continuous_.flush_scheduled = false;
  }
  pending_flushes_ = 0;
  sync_waiters_.clear();
  checkpoint_in_flight_ = false;
  checkpoint_dirty_ = false;
  checkpoint_waiters_.clear();
}

void PegasusFileServer::Recover(std::function<void(bool)> callback) {
  // Model the checkpoint read from disk, then restore the metadata image.
  const int64_t ckpt_offset = config_.geometry.capacity_bytes;
  const auto len = static_cast<int64_t>(durable_meta_image_.size());
  store_->disk(0)->Read(ckpt_offset, std::max<int64_t>(len, 1), false,
                        [this, callback = std::move(callback)](bool ok, std::vector<uint8_t>) {
                          if (!ok) {
                            callback(false);
                            return;
                          }
                          auto meta = LogMetadata::Deserialize(durable_meta_image_);
                          if (!meta.has_value()) {
                            callback(false);
                            return;
                          }
                          meta_ = std::move(*meta);
                          crashed_ = false;
                          callback(true);
                        });
}

void PegasusFileServer::PowerFailure(bool has_ups, std::function<void()> halted) {
  if (!has_ups) {
    Crash();
    sim_->ScheduleAfter(0, std::move(halted));
    return;
  }
  // The UPS gives the server time to push its volatile buffers out ("the
  // server has time to write its volatile-memory buffers to disk and halt").
  Sync([this, halted = std::move(halted)]() {
    crashed_ = true;
    ++epoch_;
    halted();
  });
}

}  // namespace pegasus::pfs
