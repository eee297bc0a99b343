// Striped segment store with parity (§5).
//
// "The log is segmented in megabyte segments. Each segment is striped
// across four disks. A fifth disk is used as a parity disk and allows
// recovery from disk errors." A segment write issues one chunk per data
// disk plus the XOR parity chunk, all in parallel — the source of the
// 4 × 5 MB/s = 20 MB/s aggregate the paper quotes. Reads reconstruct
// through parity when a single data disk has failed.
#ifndef PEGASUS_SRC_PFS_STRIPE_H_
#define PEGASUS_SRC_PFS_STRIPE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/pfs/disk.h"
#include "src/sim/event_queue.h"

namespace pegasus::pfs {

class StripeStore {
 public:
  using ReadCallback = std::function<void(bool ok, std::vector<uint8_t> data)>;
  using WriteCallback = std::function<void(bool ok)>;

  // Creates `num_data_disks` + 1 disks. `segment_size` must divide evenly by
  // `num_data_disks`.
  StripeStore(sim::Simulator* sim, int num_data_disks, int64_t segment_size,
              DiskGeometry geometry);

  int64_t segment_size() const { return segment_size_; }
  int num_data_disks() const { return static_cast<int>(disks_.size()) - 1; }
  // Segments that fit on the disks.
  int64_t capacity_segments() const;

  // Writes a whole segment (padded to segment_size); chunks + parity land on
  // all disks in parallel. ok only if every chunk write succeeded.
  void WriteSegment(int64_t segment, std::vector<uint8_t> data, WriteCallback callback);

  // Reads a whole segment. Tolerates one failed data disk by parity
  // reconstruction (and simply skips the parity disk if that one failed).
  void ReadSegment(int64_t segment, ReadCallback callback);

  // Reads `len` bytes at `offset` within `segment`, touching only the disks
  // whose chunks intersect the range (with reconstruction if one is down).
  // `realtime` marks continuous-media priority.
  void ReadRange(int64_t segment, int64_t offset, int64_t len, bool realtime,
                 ReadCallback callback);

  SimDisk* disk(int i) { return disks_[static_cast<size_t>(i)].get(); }
  int failed_disk_count() const;

  // Recomputes the chunk of `segment` belonging to disk `d` from the XOR of
  // every other disk in the parity group and writes it to `d` — the rebuild
  // step after a drive replacement. Works for data disks and for the parity
  // disk alike.
  void RebuildChunk(int d, int64_t segment, WriteCallback callback);

  // Aggregate statistics across all disks.
  int64_t total_bytes_written() const;
  int64_t total_bytes_read() const;
  sim::DurationNs total_seek_time() const;
  sim::DurationNs total_transfer_time() const;
  int64_t reconstructed_reads() const { return reconstructed_reads_; }

 private:
  // Reads a chunk range from data disk `d`, reconstructing from the other
  // disks + parity if `d` has failed.
  void ReadChunkRange(int d, int64_t disk_offset, int64_t len, bool realtime,
                      ReadCallback callback);

  sim::Simulator* sim_;
  int64_t segment_size_;
  int64_t chunk_size_;
  std::vector<std::unique_ptr<SimDisk>> disks_;  // data disks + parity last
  int64_t reconstructed_reads_ = 0;
};

}  // namespace pegasus::pfs

#endif  // PEGASUS_SRC_PFS_STRIPE_H_
