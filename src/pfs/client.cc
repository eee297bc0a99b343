#include "src/pfs/client.h"

#include <algorithm>
#include <cstring>

namespace pegasus::pfs {

// --- BlockCache ---

BlockCache::BlockCache(int64_t capacity_bytes) : capacity_(capacity_bytes) {}

bool BlockCache::Get(FileId file, int64_t block, std::vector<uint8_t>* out) {
  auto it = entries_.find(Key{file, block});
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.erase(it->second.lru_it);
  lru_.push_front(it->first);
  it->second.lru_it = lru_.begin();
  *out = it->second.data;
  return true;
}

void BlockCache::Put(FileId file, int64_t block, std::vector<uint8_t> data) {
  const Key key{file, block};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    size_ -= static_cast<int64_t>(it->second.data.size());
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  size_ += static_cast<int64_t>(data.size());
  lru_.push_front(key);
  entries_[key] = Entry{std::move(data), lru_.begin()};
  EvictIfNeeded();
}

void BlockCache::EvictIfNeeded() {
  while (size_ > capacity_ && !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    size_ -= static_cast<int64_t>(it->second.data.size());
    entries_.erase(it);
    ++evictions_;
  }
}

void BlockCache::InvalidateFile(FileId file) {
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if (it->first.file == file) {
      size_ -= static_cast<int64_t>(it->second.data.size());
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- ClientAgent ---

namespace {

// One-way client<->server message latency (the core module replaces this
// with a real ATM path in integration scenarios).
constexpr sim::DurationNs kNetworkDelay = sim::Microseconds(200);
constexpr int64_t kCacheBytes = 4 << 20;

}  // namespace

ClientAgent::ClientAgent(sim::Simulator* sim, PegasusFileServer* server)
    : sim_(sim), server_(server), cache_(kCacheBytes) {
  server_->SetDurableCallback([this](FileId file, int64_t offset, int64_t length) {
    OnDurable(file, offset, length);
  });
}

int64_t ClientAgent::retained_bytes() const {
  int64_t total = 0;
  for (const auto& [id, r] : retained_) {
    (void)id;
    total += static_cast<int64_t>(r.data.size());
  }
  return total;
}

void ClientAgent::Write(FileId file, int64_t offset, std::vector<uint8_t> data,
                        WriteCallback callback) {
  // Keep the safety copy first, then ship the data.
  const uint64_t id = next_write_id_++;
  Retained r;
  r.file = file;
  r.offset = offset;
  r.data = data;
  retained_[id] = std::move(r);

  // Update the cache write-through so later reads see fresh data.
  const int64_t bs = server_->config().block_size;
  if (server_->FileTypeOf(file) == FileType::kNormal && offset % bs == 0 &&
      static_cast<int64_t>(data.size()) % bs == 0) {
    for (int64_t i = 0; i * bs < static_cast<int64_t>(data.size()); ++i) {
      std::vector<uint8_t> block(data.begin() + i * bs, data.begin() + (i + 1) * bs);
      cache_.Put(file, offset / bs + i, std::move(block));
    }
  }

  sim_->ScheduleAfter(kNetworkDelay, [this, id, file, offset, data = std::move(data),
                                      callback = std::move(callback)]() mutable {
    server_->Write(file, offset, std::move(data),
                   [this, id, callback = std::move(callback)](bool accepted) {
                     // The ack travels back over the network, then the
                     // application unblocks.
                     sim_->ScheduleAfter(kNetworkDelay,
                                         [this, id, accepted, callback]() {
                                           auto it = retained_.find(id);
                                           if (it != retained_.end()) {
                                             if (accepted) {
                                               it->second.acked = true;
                                             } else {
                                               retained_.erase(it);
                                             }
                                           }
                                           callback(accepted);
                                         });
                   });
  });
}

void ClientAgent::OnDurable(FileId file, int64_t offset, int64_t length) {
  // Durable notifications arrive block by block; a retained copy is released
  // once notifications have covered all of its bytes.
  auto it = retained_.begin();
  while (it != retained_.end()) {
    Retained& r = it->second;
    if (r.file == file) {
      const int64_t r_end = r.offset + static_cast<int64_t>(r.data.size());
      const int64_t overlap = std::min(r_end, offset + length) - std::max(r.offset, offset);
      if (overlap > 0) {
        r.durable_bytes += overlap;
        if (r.durable_bytes >= static_cast<int64_t>(r.data.size())) {
          it = retained_.erase(it);
          continue;
        }
      }
    }
    ++it;
  }
}

void ClientAgent::Read(FileId file, int64_t offset, int64_t len, ReadCallback callback) {
  const bool cacheable = server_->FileTypeOf(file) == FileType::kNormal;
  const int64_t bs = server_->config().block_size;
  // Cache fast path: whole range in cache, block aligned.
  if (cacheable) {
    bool all_cached = true;
    std::vector<uint8_t> out(static_cast<size_t>(len), 0);
    for (int64_t block = offset / bs; block * bs < offset + len && all_cached; ++block) {
      std::vector<uint8_t> data;
      if (!cache_.Get(file, block, &data)) {
        all_cached = false;
        break;
      }
      const int64_t b_start = block * bs;
      const int64_t copy_start = std::max(offset, b_start);
      const int64_t copy_end = std::min(offset + len, b_start + bs);
      if (copy_end > copy_start && static_cast<int64_t>(data.size()) >= copy_end - b_start) {
        std::memcpy(out.data() + (copy_start - offset), data.data() + (copy_start - b_start),
                    static_cast<size_t>(copy_end - copy_start));
      }
    }
    if (all_cached) {
      sim_->ScheduleAfter(0, [out = std::move(out), callback = std::move(callback)]() mutable {
        callback(true, std::move(out));
      });
      return;
    }
  }
  // Miss (or uncacheable): fetch from the server, then populate the cache.
  sim_->ScheduleAfter(kNetworkDelay, [this, file, offset, len, cacheable,
                                      callback = std::move(callback)]() {
    server_->Read(file, offset, len,
                  [this, file, offset, len, cacheable, callback](bool ok,
                                                                 std::vector<uint8_t> data) {
                    if (ok && cacheable) {
                      const int64_t bs2 = server_->config().block_size;
                      if (offset % bs2 == 0) {
                        for (int64_t i = 0; (i + 1) * bs2 <= len; ++i) {
                          std::vector<uint8_t> block(data.begin() + i * bs2,
                                                     data.begin() + (i + 1) * bs2);
                          cache_.Put(file, offset / bs2 + i, std::move(block));
                        }
                      }
                    }
                    sim_->ScheduleAfter(kNetworkDelay,
                                        [ok, data = std::move(data), callback]() mutable {
                                          callback(ok, std::move(data));
                                        });
                  });
  });
}

void ClientAgent::ResendUnacknowledged(std::function<void()> done) {
  std::vector<uint64_t> ids;
  for (const auto& [id, r] : retained_) {
    (void)r;
    ids.push_back(id);
  }
  if (ids.empty()) {
    sim_->ScheduleAfter(0, std::move(done));
    return;
  }
  auto pending = std::make_shared<size_t>(ids.size());
  auto finish = std::make_shared<std::function<void()>>(std::move(done));
  for (uint64_t id : ids) {
    auto it = retained_.find(id);
    if (it == retained_.end()) {
      if (--*pending == 0) {
        (*finish)();
      }
      continue;
    }
    ++resends_;
    const Retained& r = it->second;
    sim_->ScheduleAfter(kNetworkDelay,
                        [this, file = r.file, offset = r.offset, data = r.data, pending,
                         finish]() mutable {
                          server_->Write(file, offset, std::move(data), [pending, finish](bool) {
                            if (--*pending == 0) {
                              (*finish)();
                            }
                          });
                        });
  }
}

void ClientAgent::ClientCrash() { retained_.clear(); }

}  // namespace pegasus::pfs
