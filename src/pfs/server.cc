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

const PegasusFileServer::OpenBlock* PegasusFileServer::FindUnsynced(FileId file, int64_t block) {
  if (const OpenBlock* open = FindOpenBlock(file, block)) {
    return open;
  }
  for (auto flush = in_flight_.rbegin(); flush != in_flight_.rend(); ++flush) {
    for (const OpenBlock& b : flush->blocks) {
      if (b.file == file && b.block == block) {
        return flush->on_disk ? nullptr : &b;
      }
    }
  }
  return nullptr;
}

void PegasusFileServer::Write(FileId file, int64_t offset, std::vector<uint8_t> data,
                              WriteCallback callback) {
  if (crashed_ || meta_.Find(file) == nullptr || data.empty() || offset < 0) {
    sim_->ScheduleAfter(0, [callback = std::move(callback)]() { callback(false); });
    return;
  }
  writes_.push_back(PendingWrite{file, offset, std::move(data), std::move(callback), epoch_});
  sim_->ScheduleAfter(0, [this, w = &writes_.back()]() {
    w->due = true;
    CommitWrites();
  });
}

void PegasusFileServer::CommitWrites() {
  const int64_t bs = config_.block_size;
  while (!writes_.empty() && writes_.front().due && writes_.front().reads_pending == 0) {
    Pnode* node = meta_.Find(writes_.front().file);
    const bool accepted = writes_.front().epoch == epoch_ && !crashed_ && node != nullptr;
    if (accepted && ReadForModify(writes_.front(), *node)) {
      return;  // no later write commits before this one
    }
    PendingWrite w = std::move(writes_.front());
    writes_.pop_front();
    if (!accepted) {
      w.callback(false);
      continue;
    }
    const int64_t end = w.offset + static_cast<int64_t>(w.data.size());
    for (int64_t block = w.offset / bs; block * bs < end; ++block) {
      // A block covered in part starts from its newest bytes: the unsynced
      // copy, else the disk copy read for it, else zeros.
      const int64_t b_start = block * bs;
      const int64_t lo = std::max(w.offset, b_start);
      const int64_t hi = std::min(end, b_start + bs);
      std::vector<uint8_t> bytes;
      if (hi - lo < bs) {
        if (const OpenBlock* unsynced = FindUnsynced(w.file, block)) {
          bytes = unsynced->data;
        } else if (auto read = w.disk_copies.find(block); read != w.disk_copies.end()) {
          bytes = std::move(read->second);
        }
      }
      bytes.resize(static_cast<size_t>(bs), 0);
      std::memcpy(bytes.data() + (lo - b_start), w.data.data() + (lo - w.offset),
                  static_cast<size_t>(hi - lo));
      BufferBlock(node->type, w.file, block, std::move(bytes));
    }
    node->size = std::max(node->size, end);
    const FileType type = node->type;  // the callback may delete the file
    w.callback(true);
    if (config_.write_back_delay == 0) {
      FlushOpen(type, []() {});
    }
  }
}

bool PegasusFileServer::ReadForModify(PendingWrite& w, const Pnode& node) {
  const int64_t bs = config_.block_size;
  const int64_t end = w.offset + static_cast<int64_t>(w.data.size());
  for (int64_t block = w.offset / bs; block * bs < end; ++block) {
    const bool covered = w.offset <= block * bs && end >= (block + 1) * bs;
    auto loc = node.blocks.find(block);
    if (covered || loc == node.blocks.end() || w.disk_copies.count(block) > 0 ||
        FindUnsynced(w.file, block) != nullptr) {
      continue;
    }
    w.disk_copies[block];  // requested; stays empty if the read fails
    ++w.reads_pending;
    store_->ReadRange(loc->second.segment, loc->second.offset, loc->second.length,
                      node.type == FileType::kContinuous,
                      [this, w = &w, block](bool ok, std::vector<uint8_t> bytes) {
                        if (ok) {
                          w->disk_copies[block] = std::move(bytes);
                        }
                        if (--w->reads_pending == 0) {
                          CommitWrites();
                        }
                      });
  }
  return w.reads_pending > 0;
}

void PegasusFileServer::BufferBlock(FileType type, FileId file, int64_t block,
                                    std::vector<uint8_t> data) {
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
  for (const OpenBlock& b : blocks) {
    payload.insert(payload.end(), b.data.begin(), b.data.end());
  }
  const auto flush = in_flight_.insert(in_flight_.end(), Flush{std::move(blocks)});

  const uint64_t epoch = epoch_;
  store_->WriteSegment(seg, std::move(payload), [this, epoch, seg, flush,
                                                 done = std::move(done)](bool ok) {
    if (epoch != epoch_ || crashed_) {
      done();  // Crash() dropped the entry
      return;
    }
    if (!ok) {
      // A failed segment write (multi-disk failure) leaves old data intact.
      meta_.FreeSegment(seg);
      in_flight_.erase(flush);
      MaybeFinishSync();
      done();
      return;
    }
    ++segments_written_;
    flush->on_disk = true;
    SegmentInfo& info = meta_.segment(seg);
    for (size_t i = 0; i < flush->blocks.size(); ++i) {
      const OpenBlock& p = flush->blocks[i];
      const int64_t offset = static_cast<int64_t>(i) * config_.block_size;
      Pnode* node = meta_.Find(p.file);
      if (node == nullptr) {
        // Deleted while the flush was in flight: immediately garbage.
        meta_.AppendGarbage(GarbageEntry{seg, offset, config_.block_size});
        continue;
      }
      auto old = node->blocks.find(p.block);
      if (old != node->blocks.end()) {
        meta_.AppendGarbage(GarbageEntry{old->second.segment, old->second.offset,
                                         old->second.length});
        meta_.segment(old->second.segment).live_bytes -= old->second.length;
      }
      node->blocks[p.block] = BlockLocation{seg, offset, config_.block_size};
      info.live_bytes += config_.block_size;
      info.summary.push_back(SummaryEntry{p.file, p.block, offset, config_.block_size});
      ++blocks_flushed_;
    }
    // Data is durable once both the segment and the checkpoint that
    // references it are on disk; only then do clients learn about it.
    WriteCheckpoint([this, epoch, flush]() {
      if (epoch != epoch_) {
        return;  // a crash cleared the entry; recovery reads an older image
      }
      if (durable_cb_) {
        for (const OpenBlock& p : flush->blocks) {
          durable_cb_(p.file, p.block * config_.block_size, config_.block_size);
        }
      }
      in_flight_.erase(flush);
      MaybeFinishSync();
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
  if (!in_flight_.empty() || buffered_bytes() > 0) {
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
    if (const OpenBlock* unsynced = FindUnsynced(file, block)) {
      std::memcpy(gather->out.data() + (copy_start - offset),
                  unsynced->data.data() + (copy_start - b_start),
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

namespace {

// `file`'s `block` when its live copy is the one at (segment, offset), else
// null: the block has been rewritten, deleted or moved since.
BlockLocation* CopyAt(LogMetadata& meta, FileId file, int64_t block, int64_t segment,
                      int64_t offset) {
  Pnode* node = meta.Find(file);
  if (node == nullptr) {
    return nullptr;
  }
  auto it = node->blocks.find(block);
  return it != node->blocks.end() && it->second.segment == segment &&
                 it->second.offset == offset
             ? &it->second
             : nullptr;
}

}  // namespace

struct PegasusFileServer::CleanRun {
  sim::TimeNs started_at = 0;
  CleanCallback callback;
  uint64_t epoch = 0;
  std::vector<int64_t> victims = {};
  size_t next = 0;
  size_t marker = 0;  // the garbage file's marker at the start
  CleanStats stats = {};
};

void PegasusFileServer::Clean(CleanCallback callback) {
  auto run = std::make_shared<CleanRun>(CleanRun{sim_->now(), std::move(callback), epoch_});
  // Read the garbage file up to the marker; sort its entries by segment.
  run->marker = meta_.MarkGarbage();
  std::set<int64_t> victim_set;
  size_t i = 0;
  for (const GarbageEntry& g : meta_.garbage()) {
    if (i++ >= run->marker) {
      break;
    }
    ++run->stats.entries_processed;
    victim_set.insert(g.segment);
  }
  run->stats.segments_examined = static_cast<int64_t>(victim_set.size());
  run->victims.assign(victim_set.begin(), victim_set.end());
  sim_->ScheduleAfter(0, [this, run]() { CleanNext(run); });
}

void PegasusFileServer::CleanFullScan(CleanCallback callback) {
  auto run = std::make_shared<CleanRun>(CleanRun{sim_->now(), std::move(callback), epoch_});
  // Sprite-style: examine EVERY segment's summary to decide cleanability.
  for (int64_t s = 0; s < meta_.num_segments(); ++s) {
    ++run->stats.segments_examined;
    const SegmentInfo& info = meta_.segment(s);
    if (info.state != SegmentInfo::State::kLive) {
      continue;
    }
    int64_t occupied = 0;
    for (const SummaryEntry& e : info.summary) {
      occupied += e.length;
    }
    if (info.live_bytes < occupied) {
      run->victims.push_back(s);
    }
  }
  // The full scan subsumes the garbage file: consume it all.
  run->marker = meta_.MarkGarbage();
  sim_->ScheduleAfter(0, [this, run]() { CleanNext(run); });
}

void PegasusFileServer::CleanNext(std::shared_ptr<CleanRun> run) {
  if (run->epoch != epoch_ || crashed_) {
    run->callback(run->stats);
    return;
  }
  if (run->next >= run->victims.size()) {
    // Done: drop the processed prefix of the garbage file ("the portion of
    // the garbage file before the marker is deleted") and checkpoint.
    meta_.TruncateGarbage(run->marker);
    WriteCheckpoint([this, run]() {
      run->stats.wall_time = sim_->now() - run->started_at;
      run->callback(run->stats);
    });
    return;
  }
  // Victims go one at a time (bounded memory, like the real cleaner).
  const int64_t seg = run->victims[run->next++];
  SegmentInfo& info = meta_.segment(seg);
  if (info.state != SegmentInfo::State::kLive) {
    CleanNext(run);
    return;
  }
  if (info.live_bytes <= 0) {
    // Entirely dead: free without reading a byte.
    run->stats.bytes_reclaimed += config_.segment_size;
    ++run->stats.segments_cleaned;
    meta_.FreeSegment(seg);
    CleanNext(run);
    return;
  }
  // Live data present: read the segment, relocate the live blocks.
  store_->ReadSegment(seg, [this, run, seg](bool ok, std::vector<uint8_t> data) {
    if (run->epoch != epoch_ || crashed_ || !ok) {
      run->callback(run->stats);
      return;
    }
    SegmentInfo& victim = meta_.segment(seg);
    std::vector<std::pair<SummaryEntry, std::vector<uint8_t>>> live;
    for (const SummaryEntry& e : victim.summary) {
      if (CopyAt(meta_, e.file, e.block, seg, e.offset) == nullptr) {
        continue;  // superseded elsewhere
      }
      live.emplace_back(e, std::vector<uint8_t>(data.begin() + e.offset,
                                                data.begin() + e.offset + e.length));
    }
    run->stats.bytes_reclaimed +=
        config_.segment_size - static_cast<int64_t>(live.size()) * config_.block_size;
    ++run->stats.segments_cleaned;

    if (live.empty()) {
      meta_.FreeSegment(seg);
      CleanNext(run);
      return;
    }
    // Pack live blocks into a fresh segment and write it before freeing
    // the victim (crash safety).
    const int64_t new_seg = meta_.AllocateSegment(victim.continuous);
    if (new_seg < 0) {
      run->callback(run->stats);  // out of space; abort the clean
      return;
    }
    std::vector<uint8_t> payload;
    // Each copy with the victim offset it was read from.
    std::vector<std::pair<SummaryEntry, int64_t>> moved;
    for (auto& [entry, bytes] : live) {
      SummaryEntry copy = entry;
      copy.offset = static_cast<int64_t>(payload.size());
      moved.emplace_back(copy, entry.offset);
      payload.insert(payload.end(), bytes.begin(), bytes.end());
      run->stats.live_bytes_copied += entry.length;
    }
    store_->WriteSegment(new_seg, std::move(payload),
                         [this, run, seg, new_seg, moved](bool ok2) {
                           if (run->epoch != epoch_ || crashed_ || !ok2) {
                             run->callback(run->stats);
                             return;
                           }
                           SegmentInfo& dst = meta_.segment(new_seg);
                           for (const auto& [e, from] : moved) {
                             dst.summary.push_back(e);
                             // A block rewritten or deleted while the copy
                             // was in flight lives elsewhere now, or
                             // nowhere: its copy is born garbage.
                             BlockLocation* loc = CopyAt(meta_, e.file, e.block, seg, from);
                             if (loc == nullptr) {
                               meta_.AppendGarbage(GarbageEntry{new_seg, e.offset, e.length});
                               continue;
                             }
                             *loc = BlockLocation{new_seg, e.offset, e.length};
                             dst.live_bytes += e.length;
                           }
                           meta_.FreeSegment(seg);
                           CleanNext(run);
                         });
  });
}

struct PegasusFileServer::RebuildRun {
  int disk_index = 0;
  std::function<void(bool, int64_t)> callback;
  uint64_t epoch = 0;
  std::vector<int64_t> victims = {};
  size_t next = 0;
  bool ok = true;
};

void PegasusFileServer::RebuildDisk(int disk_index,
                                    std::function<void(bool, int64_t)> callback) {
  auto run = std::make_shared<RebuildRun>(RebuildRun{disk_index, std::move(callback), epoch_});
  // Only live segments hold data worth rebuilding; free ones are rewritten
  // in full when reallocated.
  for (int64_t s = 0; s < meta_.num_segments(); ++s) {
    if (meta_.segment(s).state == SegmentInfo::State::kLive) {
      run->victims.push_back(s);
    }
  }
  sim_->ScheduleAfter(0, [this, run]() { RebuildNext(run); });
}

void PegasusFileServer::RebuildNext(std::shared_ptr<RebuildRun> run) {
  if (run->epoch != epoch_ || crashed_) {
    run->callback(false, static_cast<int64_t>(run->next));
    return;
  }
  if (run->next >= run->victims.size()) {
    run->callback(run->ok, static_cast<int64_t>(run->victims.size()));
    return;
  }
  const int64_t seg = run->victims[run->next++];
  store_->RebuildChunk(run->disk_index, seg, [this, run](bool ok) {
    run->ok = run->ok && ok;
    RebuildNext(run);
  });
}

// --- failure injection ---

void PegasusFileServer::Crash() {
  crashed_ = true;
  ++epoch_;
  for (OpenSegment* open : {&open_normal_, &open_continuous_}) {
    open->blocks.clear();
    open->bytes = 0;
    if (open->flush_scheduled) {
      sim_->Cancel(open->flush_timer);
      open->flush_scheduled = false;
    }
  }
  in_flight_.clear();
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
