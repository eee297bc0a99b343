// The Pegasus File Server core layer (§5).
//
// "The bottom layer of the Pegasus storage service is called the core layer.
// It manages storage structures on secondary and tertiary storage devices
// and carries out the actual I/O." On top of the striped segment store this
// class implements:
//   * buffered, delayed writes (data becomes durable when its segment goes
//     to disk; the client agent's copy covers the window — §5's reliability
//     argument, exploited for performance via Baker et al.'s observation
//     that 70% of files die within 30 seconds). Blocks stay readable from
//     memory until their segment is on disk, and writes commit in issue order;
//   * segregated normal / continuous-media segments;
//   * the garbage-file cleaner with the concurrent-clean marker protocol,
//     plus a Sprite-style full-scan cleaner as the ablation baseline;
//   * checkpointed metadata and crash recovery (server crash, power failure
//     with and without UPS);
//   * rate-reserved continuous-media streams with realtime disk priority
//     and control-stream indexing for seek / fast-forward / reverse.
#ifndef PEGASUS_SRC_PFS_SERVER_H_
#define PEGASUS_SRC_PFS_SERVER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/pfs/disk.h"
#include "src/pfs/log.h"
#include "src/pfs/stripe.h"
#include "src/sim/event_queue.h"

namespace pegasus::pfs {

struct PfsConfig {
  // Data disks in the stripe; one parity disk rides along.
  static constexpr int num_data_disks = 4;
  int64_t segment_size = 1 << 20;  // the paper's megabyte segments
  int64_t block_size = 8192;
  DiskGeometry geometry;
  // How long a buffered block may wait before its segment is forced out.
  // The client-agent copy makes this safe (§5); 0 forces write-through.
  sim::DurationNs write_back_delay = sim::Seconds(30);
  // Server write-buffer memory per data class; exceeding it flushes the
  // oldest segment's worth of blocks early.
  int64_t max_buffered_bytes = 4 << 20;
};

// Aggregates the delivery quality of a volume's continuous-media reads:
// StorageNode's record play-out records how late each chunk left relative
// to its due time. Cumulative counters serve dashboards; TakeWindow() drains
// the samples recorded since the previous call — the per-tick export the QoS
// monitor derives disk budget pressure from, without the server asserting
// anything itself.
class StreamQualityRecorder {
 public:
  struct Window {
    int64_t chunks = 0;
    int64_t deadline_misses = 0;
    sim::DurationNs max_lateness = 0;  // worst chunk in the window, ns
    double mean_lateness = 0.0;        // over late chunks only, ns
  };

  // Window misses up to this lateness are jitter, not pressure: they are
  // excluded from the windowed miss count (the cumulative counters keep the
  // strict > 0 definition).
  static constexpr sim::DurationNs kMissTolerance = sim::Milliseconds(1);

  // `lateness` is delivery time minus due time; <= 0 is on time.
  void Record(sim::DurationNs lateness) {
    ++chunks_;
    ++window_.chunks;
    if (lateness > 0) {
      ++deadline_misses_;
    }
    if (lateness > kMissTolerance) {
      ++window_.deadline_misses;
      window_late_sum_ += static_cast<double>(lateness);
      window_.max_lateness = std::max(window_.max_lateness, lateness);
    }
    // Cumulative aggregates only — this object lives as long as the server
    // and hears every chunk of every stream, so per-sample storage (a
    // sim::Summary) would grow without bound.
    lateness_sum_ += static_cast<double>(lateness);
    max_lateness_ = std::max(max_lateness_, lateness);
  }

  // Drains the current window: deltas since the previous TakeWindow().
  Window TakeWindow() {
    Window out = window_;
    if (out.deadline_misses > 0) {
      out.mean_lateness = window_late_sum_ / static_cast<double>(out.deadline_misses);
    }
    window_ = Window{};
    window_late_sum_ = 0.0;
    return out;
  }

  int64_t chunks() const { return chunks_; }
  int64_t deadline_misses() const { return deadline_misses_; }
  // Mean lateness over every chunk ever recorded, ns (<= 0 when play-out
  // runs ahead of its deadlines on average).
  double mean_lateness() const {
    return chunks_ > 0 ? lateness_sum_ / static_cast<double>(chunks_) : 0.0;
  }
  sim::DurationNs max_lateness() const { return max_lateness_; }

 private:
  int64_t chunks_ = 0;
  int64_t deadline_misses_ = 0;
  double lateness_sum_ = 0.0;
  sim::DurationNs max_lateness_ = 0;
  Window window_;
  double window_late_sum_ = 0.0;
};

struct CleanStats {
  int64_t entries_processed = 0;
  int64_t segments_cleaned = 0;
  int64_t segments_examined = 0;  // full-scan baseline examines them all
  int64_t bytes_reclaimed = 0;
  int64_t live_bytes_copied = 0;
  sim::DurationNs wall_time = 0;
};

class PegasusFileServer {
 public:
  using WriteCallback = std::function<void(bool accepted)>;
  using ReadCallback = std::function<void(bool ok, std::vector<uint8_t> data)>;
  using DurableCallback = std::function<void(FileId file, int64_t offset, int64_t length)>;
  using CleanCallback = std::function<void(CleanStats stats)>;

  PegasusFileServer(sim::Simulator* sim, PfsConfig config);
  ~PegasusFileServer();

  PegasusFileServer(const PegasusFileServer&) = delete;
  PegasusFileServer& operator=(const PegasusFileServer&) = delete;

  const PfsConfig& config() const { return config_; }
  StripeStore& store() { return *store_; }
  sim::Simulator* simulator() const { return sim_; }
  bool crashed() const { return crashed_; }

  // --- file operations (the core-layer interface) ---
  FileId CreateFile(FileType type);
  std::optional<FileType> FileTypeOf(FileId file) const;
  int64_t FileSize(FileId file) const;
  // Buffers `data` at `offset`; `callback(true)` fires when the server has
  // the data in memory (the ack that unblocks the client application).
  // Writes commit in issue order; one issued before a Crash() reports false.
  void Write(FileId file, int64_t offset, std::vector<uint8_t> data, WriteCallback callback);
  void Read(FileId file, int64_t offset, int64_t len, ReadCallback callback);
  // Deletes the file, turning its on-disk blocks into garbage.
  bool Delete(FileId file);
  // Forces every buffered block to disk; callback on completion.
  void Sync(std::function<void()> callback);
  // Writes a metadata checkpoint without flushing data; used to make
  // metadata-only changes (file creation, deletion) durable immediately.
  void Checkpoint(std::function<void()> callback) { WriteCheckpoint(std::move(callback)); }
  // Registered observer learns when written ranges become durable (the
  // client agent uses this to release its safety copies).
  void SetDurableCallback(DurableCallback callback) { durable_cb_ = std::move(callback); }

  // --- continuous-media support ---
  // Admission control against aggregate disk bandwidth. Returns false when
  // the reservation would oversubscribe the store.
  bool ReserveStream(FileId file, int64_t bytes_per_second);
  void ReleaseStream(FileId file);
  int64_t reserved_stream_bps() const { return reserved_bps_; }
  // Aggregate disk bandwidth the admission controller hands out to stream
  // reservations (a fixed 80% of the raw disk rate).
  int64_t StreamBudgetBps() const;
  // Unreserved stream bandwidth remaining — the largest reservation the
  // store can still admit.
  int64_t AvailableStreamBps() const { return StreamBudgetBps() - reserved_bps_; }
  // Observer for disk-bandwidth pressure on a reserved stream. `fraction`
  // is the share of its reserved rate the stream can still count on, in
  // (0, 1]; 1.0 announces the pressure cleared.
  using PressureCallback = std::function<void(double fraction)>;
  // At most one callback per reserved file; dropped on ReleaseStream.
  void SetStreamPressureCallback(FileId file, PressureCallback callback);
  // Announces budget pressure (a failing disk, a rebuild eating bandwidth):
  // every reserved stream with a callback hears that only `fraction` of its
  // reservation is deliverable. Returns the number of streams notified.
  int SignalBudgetPressure(double fraction);
  // Control-stream indexing: record that media timestamp `ts` lives at byte
  // `offset` of `file`; look it up later for seek/ff/reverse.
  bool AppendIndexEntry(FileId file, int64_t media_ts, int64_t byte_offset);
  std::optional<int64_t> LookupIndex(FileId file, int64_t media_ts) const;
  // Reads with continuous-media priority at the disks.
  void ReadRealtime(FileId file, int64_t offset, int64_t len, ReadCallback callback);
  // Measured delivery quality of this volume's continuous-media reads.
  // Play-out paths record per-chunk lateness here; the QoS monitor's
  // windowed reads of it close the disk-pressure feedback loop.
  StreamQualityRecorder& stream_quality() { return stream_quality_; }
  const StreamQualityRecorder& stream_quality() const { return stream_quality_; }

  // --- cleaning ---
  // The Pegasus garbage-file cleaner: sorts the garbage file by segment,
  // cleans exactly the dirty segments, truncates the processed entries.
  // Client operations may continue while it runs (marker protocol).
  void Clean(CleanCallback callback);
  // Sprite-LFS-style baseline: examines every live segment's summary to
  // find cleanable ones. Cost scales with store size (the ablation of E10).
  void CleanFullScan(CleanCallback callback);

  // Rebuilds a replaced disk: every live segment's chunk on `disk_index` is
  // recomputed from the surviving disks and written back. Reports the number
  // of segments rebuilt. The disk must be Repair()ed/ReplaceBlank()ed first.
  void RebuildDisk(int disk_index, std::function<void(bool ok, int64_t segments)> callback);

  // --- failure injection (E12) ---
  // Loses all volatile state (open segments, pending requests).
  void Crash();
  // Reloads metadata from the last checkpoint image.
  void Recover(std::function<void(bool ok)> callback);
  // Power failure hits client and server together. With a UPS the server
  // flushes its buffers and halts cleanly; without, volatile state is lost.
  void PowerFailure(bool has_ups, std::function<void()> halted);

  // --- introspection ---
  int64_t garbage_bytes() const { return meta_.garbage_bytes(); }
  int64_t garbage_entries() const { return meta_.garbage_entries(); }
  int64_t free_segments() const { return meta_.free_segments(); }
  int64_t total_segments() const { return meta_.num_segments(); }
  int64_t buffered_bytes() const;
  int64_t segments_written() const { return segments_written_; }
  int64_t blocks_accepted() const { return blocks_accepted_; }
  int64_t blocks_written_to_disk() const { return blocks_flushed_; }
  int64_t blocks_died_in_buffer() const { return blocks_died_in_buffer_; }
  const LogMetadata& metadata() const { return meta_; }

 private:
  // One unsynced block: buffered, or in a segment write still in flight.
  struct OpenBlock {
    FileId file;
    int64_t block;
    std::vector<uint8_t> data;
    sim::TimeNs buffered_at;
  };
  // The delayed-write buffer per data class. Blocks wait out the write-back
  // window here (dying quietly if overwritten or deleted) and are packed
  // into segments when flushed.
  struct OpenSegment {
    std::vector<OpenBlock> blocks;
    int64_t bytes = 0;
    sim::EventId flush_timer;
    bool flush_scheduled = false;
  };

  // One write from its issue until its callback reports.
  struct PendingWrite {
    FileId file = -1;
    int64_t offset = 0;
    std::vector<uint8_t> data;
    WriteCallback callback;
    uint64_t epoch = 0;  // the epoch it was issued in
    bool due = false;    // its commit event has run
    int reads_pending = 0;
    // Read-modify-write disk copies by block; left empty if the read failed.
    std::map<int64_t, std::vector<uint8_t>> disk_copies = {};
  };
  // One segment write from its issue until a checkpoint covers it.
  struct Flush {
    std::vector<OpenBlock> blocks;
    bool on_disk = false;  // written: reads go to the disk copy
  };
  // A clean or a disk rebuild in progress, held by its pending continuation.
  struct CleanRun;
  struct RebuildRun;

  OpenSegment& open_for(FileType type) {
    return type == FileType::kContinuous ? open_continuous_ : open_normal_;
  }
  // Finds a buffered copy of (file, block), or nullptr.
  OpenBlock* FindOpenBlock(FileId file, int64_t block);
  // The newest unsynced copy of (file, block): the buffered one, else the
  // latest in flight; nullptr when its newest bytes are on disk (or nowhere).
  const OpenBlock* FindUnsynced(FileId file, int64_t block);
  // Commits writes from the head of writes_, in issue order, until the head
  // is not due yet or waits on its read-modify-write disk reads: no write
  // commits before every write issued ahead of it has reported.
  void CommitWrites();
  // Issues the disk reads `w` still needs: one per block it covers in part
  // whose newest bytes are on disk alone. Returns whether any are out.
  bool ReadForModify(PendingWrite& w, const Pnode& node);
  // Appends one whole block to the write buffer; flushes the oldest blocks
  // on memory pressure and arms the write-back timer.
  void BufferBlock(FileType type, FileId file, int64_t block, std::vector<uint8_t> data);
  void ScheduleFlushTimer(FileType type);
  // Flushes blocks of `type`: all of them, or only those older than the
  // write-back window (aged_only).
  void FlushOpen(FileType type, std::function<void()> done, bool aged_only = false);
  // Packs `blocks` into as many segments as needed and writes them.
  void PackAndWrite(FileType type, std::vector<OpenBlock> blocks, std::function<void()> done);
  // Writes one segment's worth of blocks (<= segment_size / block_size).
  void WriteSegmentOf(FileType type, std::vector<OpenBlock> blocks, std::function<void()> done);
  void WriteCheckpoint(std::function<void()> done);
  void StartCheckpoint();
  void MaybeFinishSync();
  void DoRead(FileId file, int64_t offset, int64_t len, bool realtime, ReadCallback callback);
  // Core of both cleaners: relocates the live data out of the run's next
  // victim and frees it, then continues with the one after.
  void CleanNext(std::shared_ptr<CleanRun> run);
  void RebuildNext(std::shared_ptr<RebuildRun> run);

  sim::Simulator* sim_;
  PfsConfig config_;
  std::unique_ptr<StripeStore> store_;
  LogMetadata meta_;
  OpenSegment open_normal_;
  OpenSegment open_continuous_;
  // Writes not yet reported, in issue order. A deque: a record stays in
  // place while its commit event and disk reads point at it.
  std::deque<PendingWrite> writes_;
  // The segment writes not yet covered by a checkpoint, in flush order;
  // block i of an entry sits at offset i * block_size of its segment.
  std::list<Flush> in_flight_;
  DurableCallback durable_cb_;
  // The checkpoint image as most recently written to disk; survives Crash().
  std::vector<uint8_t> durable_meta_image_;
  bool crashed_ = false;
  // Bumped by Crash(): completions from a previous epoch are ignored.
  uint64_t epoch_ = 1;
  int64_t reserved_bps_ = 0;
  StreamQualityRecorder stream_quality_;
  std::map<FileId, int64_t> stream_reservations_;
  std::map<FileId, PressureCallback> stream_pressure_callbacks_;
  std::vector<std::function<void()>> sync_waiters_;
  bool checkpoint_in_flight_ = false;
  bool checkpoint_dirty_ = false;
  std::vector<std::function<void()>> checkpoint_waiters_;

  int64_t segments_written_ = 0;
  int64_t blocks_accepted_ = 0;
  int64_t blocks_flushed_ = 0;
  int64_t blocks_died_in_buffer_ = 0;
};

}  // namespace pegasus::pfs

#endif  // PEGASUS_SRC_PFS_SERVER_H_
