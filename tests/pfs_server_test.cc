// Tests for the Pegasus file-server core layer, cleaner, failure model,
// client agent and continuous-media streams (§5).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "src/pfs/client.h"
#include "src/pfs/server.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"

namespace pegasus::pfs {
namespace {

using sim::Milliseconds;
using sim::Seconds;

PfsConfig TestConfig() {
  PfsConfig cfg;
  cfg.segment_size = 64 << 10;
  cfg.block_size = 8 << 10;
  cfg.geometry.capacity_bytes = 64 << 20;
  cfg.write_back_delay = Seconds(30);
  return cfg;
}

std::vector<uint8_t> Pattern(int64_t len, uint8_t seed) {
  std::vector<uint8_t> v(static_cast<size_t>(len));
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return v;
}

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() : server_(&sim_, TestConfig()) {}

  // Convenience synchronous wrappers (they pump the simulator).
  bool WriteSync(FileId f, int64_t off, std::vector<uint8_t> data) {
    bool result = false;
    bool done = false;
    server_.Write(f, off, std::move(data), [&](bool ok) {
      result = ok;
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return result;
  }

  std::pair<bool, std::vector<uint8_t>> ReadSync(FileId f, int64_t off, int64_t len) {
    std::pair<bool, std::vector<uint8_t>> out{false, {}};
    bool done = false;
    server_.Read(f, off, len, [&](bool ok, std::vector<uint8_t> data) {
      out = {ok, std::move(data)};
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return out;
  }

  void SyncAll() {
    bool done = false;
    server_.Sync([&]() { done = true; });
    sim_.RunUntilPredicate([&]() { return done; });
  }

  void CheckpointSync() {
    bool done = false;
    server_.Checkpoint([&]() { done = true; });
    sim_.RunUntilPredicate([&]() { return done; });
  }

  CleanStats CleanSync(bool full_scan = false) {
    CleanStats stats;
    bool done = false;
    auto cb = [&](CleanStats s) {
      stats = s;
      done = true;
    };
    if (full_scan) {
      server_.CleanFullScan(cb);
    } else {
      server_.Clean(cb);
    }
    sim_.RunUntilPredicate([&]() { return done; });
    return stats;
  }

  sim::Simulator sim_;
  PegasusFileServer server_;
};

TEST_F(ServerFixture, WriteReadRoundTripFromBuffer) {
  FileId f = server_.CreateFile(FileType::kNormal);
  auto data = Pattern(10000, 7);
  EXPECT_TRUE(WriteSync(f, 0, data));
  EXPECT_EQ(server_.FileSize(f), 10000);
  auto [ok, got] = ReadSync(f, 0, 10000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, data);
  // Nothing has touched the disk yet: the data is in the open segment.
  EXPECT_EQ(server_.segments_written(), 0);
  EXPECT_GT(server_.buffered_bytes(), 0);
}

TEST_F(ServerFixture, WriteReadRoundTripFromDisk) {
  FileId f = server_.CreateFile(FileType::kNormal);
  auto data = Pattern(20000, 3);
  EXPECT_TRUE(WriteSync(f, 0, data));
  SyncAll();
  EXPECT_EQ(server_.buffered_bytes(), 0);
  EXPECT_GE(server_.segments_written(), 1);
  auto [ok, got] = ReadSync(f, 0, 20000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(ServerFixture, UnalignedWritesAndReads) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 5000, Pattern(1000, 1)));
  SyncAll();
  // Read-modify-write against the on-disk block.
  EXPECT_TRUE(WriteSync(f, 5500, Pattern(100, 9)));
  auto [ok, got] = ReadSync(f, 4990, 1020);
  EXPECT_TRUE(ok);
  // Hole before 5000 reads zero.
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[9], 0);
  EXPECT_EQ(got[10], Pattern(1000, 1)[0]);
  // Overwritten region.
  EXPECT_EQ(got[510], Pattern(100, 9)[0]);
  // Tail of the original write survives the RMW (got[610] is file offset
  // 5600, i.e. index 600 of the pattern written at 5000).
  EXPECT_EQ(got[610], Pattern(1000, 1)[600]);
}

// Two writes into one block issued in the same event: each commit overlays
// onto the block as buffered when it commits, so the second keeps the
// first's bytes instead of restoring the block as it was at issue.
TEST_F(ServerFixture, SameEventWritesIntoOneBlockBothSurvive) {
  FileId f = server_.CreateFile(FileType::kNormal);
  int acked = 0;
  server_.Write(f, 0, std::vector<uint8_t>(100, 0xAA), [&](bool ok) { acked += ok ? 1 : 0; });
  server_.Write(f, 100, std::vector<uint8_t>(100, 0xBB), [&](bool ok) { acked += ok ? 1 : 0; });
  sim_.Run();
  EXPECT_EQ(acked, 2);
  EXPECT_EQ(server_.blocks_accepted(), 2);
  EXPECT_EQ(server_.blocks_died_in_buffer(), 1);
  auto [ok, got] = ReadSync(f, 0, 200);
  EXPECT_TRUE(ok);
  std::vector<uint8_t> expected(100, 0xAA);
  expected.insert(expected.end(), 100, 0xBB);
  EXPECT_EQ(got, expected);
}

// Sync moves the buffered blocks into a segment write; until that write
// completes they are read from memory, not as the holes the disk still has.
// Once it completes they are read from disk, even before the checkpoint
// that names them is written.
TEST_F(ServerFixture, BlocksStayReadableWhileTheirSegmentIsInFlight) {
  FileId f = server_.CreateFile(FileType::kNormal);
  const std::vector<uint8_t> data = Pattern(20000, 3);
  EXPECT_TRUE(WriteSync(f, 0, data));
  bool synced = false;
  server_.Sync([&]() { synced = true; });
  EXPECT_EQ(server_.buffered_bytes(), 0);
  auto [ok, got] = ReadSync(f, 0, 20000);
  EXPECT_EQ(server_.segments_written(), 0);  // served while the write was in flight
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, data);
  sim_.RunUntilPredicate([&]() { return server_.segments_written() == 1; });
  const sim::TimeNs asked = sim_.now();
  auto [ok2, got2] = ReadSync(f, 0, 20000);
  EXPECT_GT(sim_.now(), asked);  // a disk read
  EXPECT_TRUE(ok2);
  EXPECT_EQ(got2, data);
  sim_.RunUntilPredicate([&]() { return synced; });
}

// A partial write onto a block whose segment write is in flight starts from
// the in-flight bytes, not from zeros.
TEST_F(ServerFixture, PartialWriteOntoAnInFlightBlockKeepsItsBytes) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));
  bool synced = false;
  server_.Sync([&]() { synced = true; });
  EXPECT_TRUE(WriteSync(f, 0, std::vector<uint8_t>(100, 0xAA)));
  EXPECT_FALSE(synced);
  sim_.RunUntilPredicate([&]() { return synced; });
  SyncAll();
  std::vector<uint8_t> expected = Pattern(8192, 1);
  std::fill(expected.begin(), expected.begin() + 100, 0xAA);
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, expected);
}

// A partial write onto a durable block waits on its read-modify-write disk
// read; a full-block write issued after it in the same event commits after
// it, so the block reads as the later write throughout.
TEST_F(ServerFixture, WritesCommitInIssueOrderPastAReadModifyWrite) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, std::vector<uint8_t>(8192, 0x11)));
  SyncAll();
  std::vector<int> reported;
  server_.Write(f, 0, std::vector<uint8_t>(100, 0xAA), [&](bool ok) {
    EXPECT_TRUE(ok);
    reported.push_back(0);
  });
  server_.Write(f, 0, std::vector<uint8_t>(8192, 0xBB), [&](bool ok) {
    EXPECT_TRUE(ok);
    reported.push_back(1);
  });
  sim_.Run();
  EXPECT_EQ(reported, (std::vector<int>{0, 1}));
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, std::vector<uint8_t>(8192, 0xBB));
}

// Writes queued behind a read-modify-write when the server crashes each
// report once, false, in issue order; the queue then serves new writes.
TEST_F(ServerFixture, CrashBehindAReadModifyWriteReportsEveryWriteInOrder) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(2 * 8192, 1)));
  SyncAll();
  std::vector<std::pair<int, bool>> reported;
  for (int i = 0; i < 3; ++i) {
    server_.Write(f, i % 2 * 8192 + 10 * i, std::vector<uint8_t>(100, 0xAA),
                  [&, i](bool ok) { reported.emplace_back(i, ok); });
  }
  sim_.RunUntil(sim_.now() + sim::Microseconds(1));  // commit events run; disk reads do not
  EXPECT_TRUE(reported.empty());
  server_.Crash();
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.Run();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(reported, (std::vector<std::pair<int, bool>>{{0, false}, {1, false}, {2, false}}));
  EXPECT_TRUE(WriteSync(f, 0, std::vector<uint8_t>(100, 0xCC)));
  auto [ok, got] = ReadSync(f, 0, 200);
  EXPECT_TRUE(ok);
  std::vector<uint8_t> expected(100, 0xCC);
  const std::vector<uint8_t> durable = Pattern(200, 1);
  expected.insert(expected.end(), durable.begin() + 100, durable.end());
  EXPECT_EQ(got, expected);
}

// Differential check against a flat byte array: each write lands in the
// array when its callback reports true, and each read must return the array
// as it stood when the read was issued. Writes mix same-event, partial and
// overlapping ranges over durable, buffered and in-flight blocks, with Sync
// and Clean running underneath.
TEST_F(ServerFixture, ReadsMatchAFlatArrayUnderMixedWritesSyncsAndCleans) {
  constexpr int64_t kBlock = 8192;
  constexpr int64_t kSpan = 12 * kBlock;
  FileId f = server_.CreateFile(FileType::kNormal);
  std::vector<uint8_t> model = Pattern(kSpan, 5);
  EXPECT_TRUE(WriteSync(f, 0, model));
  SyncAll();

  sim::Rng rng(20260419);
  int issued = 0;
  int reported = 0;
  int reads = 0;
  int mismatches = 0;
  int pending_cleans = 0;
  auto write = [&]() {
    const int64_t offset = rng.UniformInt(0, kSpan - 1);
    const int64_t len = std::min(kSpan - offset, rng.UniformInt(1, 2 * kBlock));
    std::vector<uint8_t> data = Pattern(len, static_cast<uint8_t>(rng.UniformInt(0, 255)));
    ++issued;
    server_.Write(f, offset, data, [&, offset, data](bool ok) {
      EXPECT_TRUE(ok);
      ++reported;
      std::copy(data.begin(), data.end(), model.begin() + offset);
    });
  };
  for (int step = 0; step < 400; ++step) {
    const int64_t action = rng.UniformInt(0, 9);
    if (action <= 4) {
      for (int64_t n = rng.UniformInt(1, 3); n > 0; --n) {
        write();  // same event
      }
    } else if (action <= 6) {
      const int64_t offset = rng.UniformInt(0, kSpan - 1);
      const int64_t len = rng.UniformInt(1, kSpan - offset);
      std::vector<uint8_t> expected(model.begin() + offset, model.begin() + offset + len);
      server_.Read(f, offset, len,
                   [&, offset, expected](bool ok, std::vector<uint8_t> got) {
                     EXPECT_TRUE(ok);
                     ++reads;
                     if (got != expected) {
                       ++mismatches;
                       ADD_FAILURE() << "read at " << offset << " of " << expected.size()
                                     << " bytes differs at t=" << sim_.now();
                     }
                   });
    } else if (action == 7) {
      server_.Sync([]() {});
    } else if (action == 8 && pending_cleans == 0) {
      ++pending_cleans;
      server_.Clean([&](CleanStats) { --pending_cleans; });
    } else {
      sim_.RunUntil(sim_.now() + rng.UniformInt(0, 3) * Milliseconds(5));
    }
  }
  sim_.RunUntilPredicate([&]() { return reported == issued && pending_cleans == 0; });
  SyncAll();
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(reads, 50);
  auto [ok, got] = ReadSync(f, 0, kSpan);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, model);
}

TEST_F(ServerFixture, HolesReadAsZeros) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 100 * 8192, Pattern(8192, 2)));
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, std::vector<uint8_t>(8192, 0));
}

TEST_F(ServerFixture, MemoryPressureFlushesOldestBlocks) {
  // A small write buffer: the oldest segment's worth spills early even
  // though the write-back window has not elapsed.
  PfsConfig cfg = TestConfig();
  cfg.max_buffered_bytes = 64 << 10;  // one segment of buffer
  PegasusFileServer server(&sim_, cfg);
  FileId f = server.CreateFile(FileType::kNormal);
  bool done = false;
  server.Write(f, 0, Pattern(16 * 8192, 4), [&](bool) { done = true; });
  sim_.RunUntilPredicate([&]() { return done; });
  sim_.RunUntil(sim_.now() + Seconds(1));
  EXPECT_GE(server.segments_written(), 1);
  // The young blocks are still buffered, awaiting the 30 s window.
  EXPECT_GT(server.buffered_bytes(), 0);
  EXPECT_LE(server.buffered_bytes(), cfg.max_buffered_bytes);
}

TEST_F(ServerFixture, DelayedWriteTimerFlushes) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(100, 5)));
  EXPECT_EQ(server_.segments_written(), 0);
  sim_.RunUntil(sim_.now() + Seconds(31));
  EXPECT_EQ(server_.segments_written(), 1);
  EXPECT_EQ(server_.buffered_bytes(), 0);
}

TEST_F(ServerFixture, OverwriteBeforeFlushSavesDiskWrites) {
  FileId f = server_.CreateFile(FileType::kNormal);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, static_cast<uint8_t>(i))));
  }
  SyncAll();
  // Ten writes of the same block produced one disk block and no garbage:
  // nine died in memory — the delayed-write benefit of §5.
  EXPECT_EQ(server_.blocks_written_to_disk(), 1);
  EXPECT_EQ(server_.blocks_died_in_buffer(), 9);
  EXPECT_EQ(server_.garbage_bytes(), 0);
}

TEST_F(ServerFixture, OverwriteAfterFlushCreatesGarbage) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));
  SyncAll();
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 2)));
  SyncAll();
  EXPECT_EQ(server_.garbage_entries(), 1);
  EXPECT_EQ(server_.garbage_bytes(), 8192);
  // The fresh copy wins.
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 2));
}

TEST_F(ServerFixture, DeleteCreatesGarbageAndRemovesFile) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(3 * 8192, 1)));
  SyncAll();
  EXPECT_TRUE(server_.Delete(f));
  EXPECT_EQ(server_.garbage_entries(), 3);
  EXPECT_FALSE(server_.FileTypeOf(f).has_value());
  auto [ok, got] = ReadSync(f, 0, 100);
  EXPECT_FALSE(ok);
}

TEST_F(ServerFixture, CleanerReclaimsDeletedSegments) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(16 * 8192, 1)));  // two full segments
  SyncAll();
  const int64_t free_before = server_.free_segments();
  server_.Delete(f);
  CleanStats stats = CleanSync();
  EXPECT_EQ(stats.entries_processed, 16);
  EXPECT_EQ(stats.segments_cleaned, 2);
  EXPECT_EQ(stats.live_bytes_copied, 0);  // fully dead: freed without copying
  EXPECT_EQ(server_.free_segments(), free_before + 2);
  EXPECT_EQ(server_.garbage_entries(), 0);  // garbage file truncated
}

TEST_F(ServerFixture, CleanerRelocatesLiveData) {
  FileId dead = server_.CreateFile(FileType::kNormal);
  FileId live = server_.CreateFile(FileType::kNormal);
  // Interleave blocks of the two files so segments hold a mix.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(WriteSync(dead, i * 8192, Pattern(8192, 0xD0)));
    EXPECT_TRUE(WriteSync(live, i * 8192, Pattern(8192, static_cast<uint8_t>(i))));
  }
  SyncAll();
  server_.Delete(dead);
  CleanStats stats = CleanSync();
  EXPECT_GT(stats.live_bytes_copied, 0);
  EXPECT_GT(stats.bytes_reclaimed, 0);
  // The live file still reads back intact after relocation.
  for (int i = 0; i < 8; ++i) {
    auto [ok, got] = ReadSync(live, i * 8192, 8192);
    EXPECT_TRUE(ok);
    EXPECT_EQ(got, Pattern(8192, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(server_.garbage_entries(), 0);
}

TEST_F(ServerFixture, CleanerCostIndependentOfStoreSize) {
  // The paper's scaling claim: the garbage-file cleaner touches only dirty
  // segments, while the full-scan baseline examines every segment.
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8 * 8192, 1)));
  SyncAll();
  server_.Delete(f);
  CleanStats garbage_file = CleanSync();
  EXPECT_EQ(garbage_file.segments_examined, 1);

  FileId g = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(g, 0, Pattern(8 * 8192, 2)));
  SyncAll();
  server_.Delete(g);
  CleanStats full = CleanSync(/*full_scan=*/true);
  // 64 MiB store at 16 KiB chunks = 4096 segments, all examined.
  EXPECT_EQ(full.segments_examined, server_.total_segments());
  EXPECT_GT(full.segments_examined, 1000);
}

TEST_F(ServerFixture, ConcurrentWritesDuringCleanSurvive) {
  FileId dead = server_.CreateFile(FileType::kNormal);
  FileId live = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(dead, 0, Pattern(8 * 8192, 1)));
  EXPECT_TRUE(WriteSync(live, 0, Pattern(8 * 8192, 2)));
  SyncAll();
  server_.Delete(dead);
  bool clean_done = false;
  server_.Clean([&](CleanStats) { clean_done = true; });
  // New work arrives while the cleaner runs.
  bool write_done = false;
  server_.Write(live, 8 * 8192, Pattern(8192, 3), [&](bool) { write_done = true; });
  sim_.RunUntilPredicate([&]() { return clean_done && write_done; });
  SyncAll();
  auto [ok, got] = ReadSync(live, 8 * 8192, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 3));
  // Garbage created during the clean (none here) would stay after marker; at
  // minimum the pre-clean garbage is gone.
  EXPECT_EQ(server_.garbage_bytes(), 0);
}

// A clean moves only the blocks that still live in its victim. Here block 0
// is rewritten and synced while the victim's live blocks are being copied,
// and that sync finishes before the copy does: the newer copy must stay the
// block's, and the stale copy is garbage a later clean reclaims.
TEST_F(ServerFixture, CleanKeepsABlockRewrittenWhileItCopies) {
  const int64_t free_at_start = server_.free_segments();
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, std::vector<uint8_t>(2 * 8192, 0x11)));
  SyncAll();
  // The rewrite leaves the first segment half dead: the clean's victim.
  EXPECT_TRUE(WriteSync(f, 8192, std::vector<uint8_t>(8192, 0x22)));
  SyncAll();
  bool clean_done = false;
  server_.Clean([&](CleanStats) { clean_done = true; });
  EXPECT_TRUE(WriteSync(f, 0, std::vector<uint8_t>(8192, 0x33)));
  bool sync_done = false;
  server_.Sync([&]() { sync_done = true; });
  sim_.RunUntilPredicate([&]() { return clean_done && sync_done; });

  auto [ok, got] = ReadSync(f, 0, 2 * 8192);
  EXPECT_TRUE(ok);
  std::vector<uint8_t> want(8192, 0x33);
  want.insert(want.end(), 8192, 0x22);
  EXPECT_EQ(got, want);
  // Only the two segments holding block 0's and block 1's newest copies
  // stay in use once the stale copy is cleaned.
  CleanSync();
  EXPECT_EQ(server_.free_segments(), free_at_start - 2);
  EXPECT_EQ(server_.garbage_entries(), 0);
}

TEST_F(ServerFixture, CrashLosesBufferedDataKeepsDurable) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));
  SyncAll();  // durable + checkpointed
  EXPECT_TRUE(WriteSync(f, 2 * 8192, Pattern(8192, 3)));
  server_.Sync([]() {});  // its segment write is still in flight at the crash
  EXPECT_TRUE(WriteSync(f, 8192, Pattern(8192, 2)));  // only buffered
  server_.Crash();
  EXPECT_TRUE(server_.crashed());
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok1, got1] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok1);
  EXPECT_EQ(got1, Pattern(8192, 1));  // durable data survived
  auto [ok2, got2] = ReadSync(f, 8192, 16384);
  EXPECT_TRUE(ok2);
  EXPECT_EQ(got2, std::vector<uint8_t>(16384, 0));  // buffered and in-flight data lost
}

TEST_F(ServerFixture, PowerFailureWithUpsFlushesBuffers) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 7)));
  bool halted = false;
  server_.PowerFailure(/*has_ups=*/true, [&]() { halted = true; });
  sim_.RunUntilPredicate([&]() { return halted; });
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 7));  // the UPS window saved the buffer
}

TEST_F(ServerFixture, PowerFailureWithoutUpsLosesBuffers) {
  FileId f = server_.CreateFile(FileType::kNormal);
  CheckpointSync();  // the file's existence is durable, its data is not
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 7)));
  bool halted = false;
  server_.PowerFailure(/*has_ups=*/false, [&]() { halted = true; });
  sim_.RunUntilPredicate([&]() { return halted; });
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, std::vector<uint8_t>(8192, 0));  // buffered data is gone
}

TEST_F(ServerFixture, StreamReservationAdmissionControl) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  // Budget: 4 disks * 5 MiB/s * 0.8 = 16.78 MB/s.
  EXPECT_TRUE(server_.ReserveStream(f, 10'000'000));
  FileId g = server_.CreateFile(FileType::kContinuous);
  EXPECT_FALSE(server_.ReserveStream(g, 10'000'000));
  server_.ReleaseStream(f);
  EXPECT_TRUE(server_.ReserveStream(g, 10'000'000));
}

TEST_F(ServerFixture, IndexLookupFindsNearestEntry) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  EXPECT_TRUE(server_.AppendIndexEntry(f, Seconds(0), 0));
  EXPECT_TRUE(server_.AppendIndexEntry(f, Seconds(1), 100000));
  EXPECT_TRUE(server_.AppendIndexEntry(f, Seconds(2), 200000));
  EXPECT_EQ(server_.LookupIndex(f, Seconds(1)), 100000);
  EXPECT_EQ(server_.LookupIndex(f, Seconds(1) + Milliseconds(500)), 100000);
  EXPECT_EQ(server_.LookupIndex(f, Seconds(5)), 200000);
  EXPECT_FALSE(server_.LookupIndex(f, -1).has_value());
  EXPECT_FALSE(server_.LookupIndex(9999, 0).has_value());
}

TEST_F(ServerFixture, RealtimeReadsFromAnIndexedOffsetArriveByTheirDueTime) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  const std::vector<uint8_t> video = Pattern(512 << 10, 1);
  EXPECT_TRUE(WriteSync(f, 0, video));
  SyncAll();
  // "Frame" index: 25 fps, 16 KiB per frame; seek to the frame at 400 ms.
  constexpr int64_t kFrameBytes = 16 << 10;
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(server_.AppendIndexEntry(f, i * Milliseconds(40), i * kFrameBytes));
  }
  const std::optional<int64_t> offset = server_.LookupIndex(f, Milliseconds(400));
  ASSERT_TRUE(offset.has_value());
  ASSERT_EQ(*offset, 10 * kFrameBytes);
  // Play the rest out one 64 KiB chunk per 40 ms, each due one period after
  // it is asked for.
  constexpr int64_t kChunkBytes = 64 << 10;
  const int64_t size = static_cast<int64_t>(video.size());
  int chunks = 0;
  for (int64_t pos = *offset; pos < size; pos += kChunkBytes) {
    const int64_t len = std::min(kChunkBytes, size - pos);
    const sim::TimeNs due = sim_.now() + Milliseconds(40);
    server_.ReadRealtime(f, pos, len, [&, pos, len, due](bool ok, std::vector<uint8_t> data) {
      EXPECT_TRUE(ok);
      EXPECT_LE(sim_.now(), due) << "chunk at " << pos;
      EXPECT_EQ(data, std::vector<uint8_t>(video.begin() + pos, video.begin() + pos + len));
      ++chunks;
    });
    sim_.RunUntil(due);
  }
  EXPECT_EQ(chunks, 6);  // (512 - 160) KiB in 64 KiB chunks
}

class ClientFixture : public ServerFixture {
 protected:
  ClientFixture() : agent_(&sim_, &server_) {}

  bool AgentWrite(FileId f, int64_t off, std::vector<uint8_t> data) {
    bool result = false;
    bool done = false;
    agent_.Write(f, off, std::move(data), [&](bool ok) {
      result = ok;
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return result;
  }

  std::pair<bool, std::vector<uint8_t>> AgentRead(FileId f, int64_t off, int64_t len) {
    std::pair<bool, std::vector<uint8_t>> out{false, {}};
    bool done = false;
    agent_.Read(f, off, len, [&](bool ok, std::vector<uint8_t> data) {
      out = {ok, std::move(data)};
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return out;
  }

  ClientAgent agent_;
};

TEST_F(ClientFixture, WriteAcksBeforeDurable) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 1)));
  // Acked but not flushed: the agent still holds the safety copy.
  EXPECT_EQ(agent_.unflushed_writes(), 1);
  EXPECT_EQ(server_.segments_written(), 0);
  SyncAll();
  sim_.RunUntil(sim_.now() + Milliseconds(10));
  // Durable notification released the copy.
  EXPECT_EQ(agent_.unflushed_writes(), 0);
}

TEST_F(ClientFixture, ServerCrashThenResendPreservesData) {
  FileId f = server_.CreateFile(FileType::kNormal);
  CheckpointSync();  // file creation reaches the checkpoint
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 5)));
  server_.Crash();
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  // The write was lost with the server's volatile buffer...
  auto [ok0, got0] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok0);
  EXPECT_EQ(got0, std::vector<uint8_t>(8192, 0));
  // ...but the agent's copy survives the single-point failure.
  bool resent = false;
  agent_.ResendUnacknowledged([&]() { resent = true; });
  sim_.RunUntilPredicate([&]() { return resent; });
  EXPECT_GT(agent_.resends(), 0);
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 5));
}

// A crash while the checkpoint naming a flushed segment is being written:
// recovery reads the older image, so the segment's blocks never became
// durable and the agent must still hold its copy to resend.
TEST_F(ClientFixture, CrashDuringACheckpointKeepsTheAgentsCopy) {
  FileId f = server_.CreateFile(FileType::kNormal);
  CheckpointSync();  // file creation reaches the checkpoint
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 5)));
  server_.Sync([]() {});
  sim_.RunUntilPredicate([&]() { return server_.segments_written() == 1; });
  server_.Crash();  // the checkpoint naming the segment is still on its way
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok0, got0] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok0);
  EXPECT_EQ(got0, std::vector<uint8_t>(8192, 0));
  bool resent = false;
  agent_.ResendUnacknowledged([&]() { resent = true; });
  sim_.RunUntilPredicate([&]() { return resent; });
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 5));
}

TEST_F(ClientFixture, ClientCrashServerCompletesWrite) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 6)));
  // The client machine dies; the server already has the data and completes
  // the write on its own.
  agent_.ClientCrash();
  EXPECT_EQ(agent_.unflushed_writes(), 0);
  SyncAll();
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 6));
}

TEST_F(ClientFixture, CacheServesRepeatedReads) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(4 * 8192, 3)));
  SyncAll();
  auto first = AgentRead(f, 0, 4 * 8192);
  EXPECT_TRUE(first.first);
  const int64_t misses_after_first = agent_.cache().misses();
  const sim::TimeNs t0 = sim_.now();
  auto second = AgentRead(f, 0, 4 * 8192);
  EXPECT_TRUE(second.first);
  EXPECT_EQ(second.second, first.second);
  EXPECT_EQ(agent_.cache().misses(), misses_after_first);  // pure cache hit
  EXPECT_GT(agent_.cache().hits(), 0);
  // And it was instantaneous: no network, no disk.
  EXPECT_EQ(sim_.now(), t0);
}

TEST_F(ClientFixture, ContinuousFilesBypassCache) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(4 * 8192, 3)));
  SyncAll();
  AgentRead(f, 0, 4 * 8192);
  AgentRead(f, 0, 4 * 8192);
  EXPECT_EQ(agent_.cache().hits(), 0);  // §5: caching video is counterproductive
  EXPECT_EQ(agent_.cache().size_bytes(), 0);
}

TEST(BlockCacheTest, LruEvictionOrder) {
  BlockCache cache(3 * 100);
  cache.Put(1, 0, std::vector<uint8_t>(100, 1));
  cache.Put(1, 1, std::vector<uint8_t>(100, 2));
  cache.Put(1, 2, std::vector<uint8_t>(100, 3));
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache.Get(1, 0, &out));  // touch block 0: block 1 is now LRU
  cache.Put(1, 3, std::vector<uint8_t>(100, 4));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Get(1, 1, &out));  // evicted
  EXPECT_TRUE(cache.Get(1, 0, &out));
  EXPECT_TRUE(cache.Get(1, 3, &out));
}

TEST(BlockCacheTest, InvalidateFileRemovesAllItsBlocks) {
  BlockCache cache(1000);
  cache.Put(1, 0, std::vector<uint8_t>(100, 1));
  cache.Put(2, 0, std::vector<uint8_t>(100, 2));
  cache.InvalidateFile(1);
  std::vector<uint8_t> out;
  EXPECT_FALSE(cache.Get(1, 0, &out));
  EXPECT_TRUE(cache.Get(2, 0, &out));
}

}  // namespace
}  // namespace pegasus::pfs
