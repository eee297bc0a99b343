// Simulated disk with a mechanical timing model.
//
// The paper's storage arithmetic (§5) rests on disk mechanics: "the speeds
// of modern disks are such that the overhead of seeks between reading and
// writing whole segments is less than ten per cent, so that a transfer rate
// of at least five megabytes per second per disk is possible". The model
// charges seek (distance-dependent), rotational latency (half a rotation)
// and transfer time, and serves one request at a time from a two-level
// queue: continuous-media ("realtime") requests bypass queued ordinary ones,
// which is how the Pegasus storage service protects stream deadlines.
#ifndef PEGASUS_SRC_PFS_DISK_H_
#define PEGASUS_SRC_PFS_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace pegasus::pfs {

// Seek and rotation times are constants of SimDisk::PositioningTime.
struct DiskGeometry {
  int64_t capacity_bytes = 2LL << 30;  // 2 GB, generous for 1994
  // Sustained media rate; the paper's disks do ≥ 5 MB/s.
  static constexpr int64_t transfer_bytes_per_sec = 5 * 1024 * 1024;
};

class SimDisk {
 public:
  using ReadCallback = std::function<void(bool ok, std::vector<uint8_t> data)>;
  using WriteCallback = std::function<void(bool ok)>;

  SimDisk(sim::Simulator* sim, std::string name, DiskGeometry geometry);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  const std::string& name() const { return name_; }
  const DiskGeometry& geometry() const { return geometry_; }

  // Queues a read of `len` bytes at `offset`. Unwritten ranges read as zero.
  // `realtime` requests jump ahead of queued non-realtime ones.
  void Read(int64_t offset, int64_t len, bool realtime, ReadCallback callback);
  // Queues a write. The data is durable once the callback reports ok.
  void Write(int64_t offset, std::vector<uint8_t> data, bool realtime, WriteCallback callback);

  // Failure injection (E12): a failed disk errors every queued and future
  // request until repaired. Repair keeps the stored bytes (a transient
  // controller failure); ReplaceBlank also clears them (a swapped drive).
  void Fail();
  void Repair();
  void ReplaceBlank();
  bool failed() const { return failed_; }

  // --- statistics ---
  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  int64_t bytes_read() const { return bytes_read_; }
  int64_t bytes_written() const { return bytes_written_; }
  sim::DurationNs busy_time() const { return busy_time_; }
  sim::DurationNs seek_time() const { return seek_time_; }
  sim::DurationNs transfer_time() const { return transfer_time_; }

 private:
  struct Request {
    bool is_write;
    int64_t offset;
    int64_t len;
    std::vector<uint8_t> data;
    ReadCallback read_cb;
    WriteCallback write_cb;
  };

  void Enqueue(Request req, bool realtime);
  void StartNext();
  void Complete(Request req);
  sim::DurationNs PositioningTime(int64_t offset) const;
  // Direct store access used by Complete.
  void StoreWrite(int64_t offset, const std::vector<uint8_t>& data);
  std::vector<uint8_t> StoreRead(int64_t offset, int64_t len) const;

  sim::Simulator* sim_;
  std::string name_;
  DiskGeometry geometry_;
  // Sparse content map: extent start offset -> bytes. Extents never overlap;
  // writes split/merge as needed.
  std::map<int64_t, std::vector<uint8_t>> extents_;
  std::deque<Request> rt_queue_;
  std::deque<Request> queue_;
  bool busy_ = false;
  bool failed_ = false;
  int64_t head_pos_ = 0;

  int64_t reads_ = 0;
  int64_t writes_ = 0;
  int64_t bytes_read_ = 0;
  int64_t bytes_written_ = 0;
  sim::DurationNs busy_time_ = 0;
  sim::DurationNs seek_time_ = 0;
  sim::DurationNs transfer_time_ = 0;
};

}  // namespace pegasus::pfs

#endif  // PEGASUS_SRC_PFS_DISK_H_
