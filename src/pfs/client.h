// The client-side file-server agent (§5).
//
// "When an application makes a write operation, the client agent sends the
// data to the server and keeps a copy of the data in its buffers. When the
// server receives the data, it acknowledges this to the client agent which,
// in turn, unblocks the application. The data is now safe under single-point
// failures." The copy is released only when the server reports the range
// durable; if the server crashes first, the agent resends after recovery
// (or would direct it at an alternative server). If the *client* crashes,
// the server already has the data and completes the write.
//
// The agent also hosts the client half of the normal-file service stack: an
// LRU block cache. Continuous-media files deliberately bypass it — "caching
// video and audio is usually not a good idea" (§5).
#ifndef PEGASUS_SRC_PFS_CLIENT_H_
#define PEGASUS_SRC_PFS_CLIENT_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "src/pfs/server.h"
#include "src/sim/event_queue.h"

namespace pegasus::pfs {

// LRU cache of (file, block) -> bytes, used for ordinary files only.
class BlockCache {
 public:
  explicit BlockCache(int64_t capacity_bytes);

  bool Get(FileId file, int64_t block, std::vector<uint8_t>* out);
  void Put(FileId file, int64_t block, std::vector<uint8_t> data);
  void InvalidateFile(FileId file);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t size_bytes() const { return size_; }
  int64_t evictions() const { return evictions_; }

 private:
  struct Key {
    FileId file;
    int64_t block;
    bool operator<(const Key& o) const {
      if (file != o.file) {
        return file < o.file;
      }
      return block < o.block;
    }
  };
  using LruList = std::list<Key>;
  struct Entry {
    std::vector<uint8_t> data;
    LruList::iterator lru_it;
  };

  void EvictIfNeeded();

  int64_t capacity_;
  int64_t size_ = 0;
  std::map<Key, Entry> entries_;
  LruList lru_;  // front = most recent
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

class ClientAgent {
 public:
  using WriteCallback = std::function<void(bool ok)>;
  using ReadCallback = std::function<void(bool ok, std::vector<uint8_t> data)>;

  // Messages to and from the server take a fixed one-way latency and the
  // block cache has a fixed size (constants of client.cc).
  ClientAgent(sim::Simulator* sim, PegasusFileServer* server);

  // Blocks the application until the server acknowledges receipt — NOT until
  // the data is on disk; the retained copy makes that safe.
  void Write(FileId file, int64_t offset, std::vector<uint8_t> data, WriteCallback callback);
  // Reads through the cache for ordinary files; continuous files bypass it.
  void Read(FileId file, int64_t offset, int64_t len, ReadCallback callback);

  // --- failure handling (E12) ---
  // Called when the agent learns the server recovered from a crash: resends
  // every acknowledged-but-not-durable write.
  void ResendUnacknowledged(std::function<void()> done);
  // Simulates a client-machine crash: the agent forgets everything. Data the
  // server already acknowledged is the server's responsibility now.
  void ClientCrash();

  int64_t retained_bytes() const;
  int64_t unflushed_writes() const { return static_cast<int64_t>(retained_.size()); }
  int64_t resends() const { return resends_; }
  BlockCache& cache() { return cache_; }

 private:
  struct Retained {
    FileId file;
    int64_t offset;
    std::vector<uint8_t> data;
    bool acked = false;
    // Bytes of this record covered by durable notifications so far; the
    // record is released when every byte has been covered.
    int64_t durable_bytes = 0;
  };

  void OnDurable(FileId file, int64_t offset, int64_t length);

  sim::Simulator* sim_;
  PegasusFileServer* server_;
  BlockCache cache_;
  std::map<uint64_t, Retained> retained_;
  uint64_t next_write_id_ = 1;
  int64_t resends_ = 0;
};

}  // namespace pegasus::pfs

#endif  // PEGASUS_SRC_PFS_CLIENT_H_
