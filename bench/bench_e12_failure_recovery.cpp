// E12 — No data loss under single-point failures (§5).
//
// "The data is now safe under single-point failures: when the server
// crashes, the client agent ... waits for the crashed server to come back
// up; when the client machine crashes, the server will complete the write
// operation." Plus RAID parity for disk failures and the UPS story for
// power failures.
#include "bench/bench_util.h"
#include "src/pfs/client.h"
#include "src/pfs/server.h"

using namespace pegasus;
using sim::Seconds;

namespace {

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<pfs::PegasusFileServer> server;
  std::unique_ptr<pfs::ClientAgent> agent;
  pfs::FileId file = -1;

  Rig() {
    pfs::PfsConfig cfg;
    cfg.segment_size = 64 << 10;
    cfg.block_size = 8 << 10;
    cfg.geometry.capacity_bytes = 64 << 20;
    cfg.write_back_delay = Seconds(30);
    server = std::make_unique<pfs::PegasusFileServer>(&sim, cfg);
    agent = std::make_unique<pfs::ClientAgent>(&sim, server.get());
    file = server->CreateFile(pfs::FileType::kNormal);
    bool ck = false;
    server->Checkpoint([&]() { ck = true; });
    sim.RunUntilPredicate([&]() { return ck; });
  }

  bool WriteViaAgent(const std::vector<uint8_t>& data) {
    bool ok = false;
    bool done = false;
    agent->Write(file, 0, data, [&](bool k) {
      ok = k;
      done = true;
    });
    sim.RunUntilPredicate([&]() { return done; });
    return ok;
  }

  std::vector<uint8_t> ReadBack(int64_t len) {
    std::vector<uint8_t> out;
    bool done = false;
    server->Read(file, 0, len, [&](bool ok, std::vector<uint8_t> data) {
      if (ok) {
        out = std::move(data);
      }
      done = true;
    });
    sim.RunUntilPredicate([&]() { return done; });
    return out;
  }
};

std::vector<uint8_t> Payload() { return std::vector<uint8_t>(8192, 0x5A); }

}  // namespace

int main() {
  bench::PrintHeader("E12", "failure injection: single-point failures lose no data",
                     "client crash, server crash, single disk failure and UPS-backed power "
                     "failure all preserve acknowledged data; only the designed-for "
                     "exceptions (no UPS, double failure) lose it");

  sim::Table table({"scenario", "mechanism", "data intact", "expected"});
  bool all_as_expected = true;
  auto check = [&](bool got, bool expected) {
    all_as_expected = all_as_expected && (got == expected);
  };

  {  // 1. server crash before flush; agent resends after recovery
    Rig rig;
    rig.WriteViaAgent(Payload());
    rig.server->Crash();
    bool rec = false;
    rig.server->Recover([&](bool) { rec = true; });
    rig.sim.RunUntilPredicate([&]() { return rec; });
    bool resent = false;
    rig.agent->ResendUnacknowledged([&]() { resent = true; });
    rig.sim.RunUntilPredicate([&]() { return resent; });
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, true);
    table.AddRow({"server crash (unflushed write)", "client-agent copy + resend",
                  ok ? "yes" : "NO", "yes"});
  }
  {  // 2. client crash after ack; server completes the write
    Rig rig;
    rig.WriteViaAgent(Payload());
    rig.agent->ClientCrash();
    bool synced = false;
    rig.server->Sync([&]() { synced = true; });
    rig.sim.RunUntilPredicate([&]() { return synced; });
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, true);
    table.AddRow({"client crash (acked write)", "server buffer completes it",
                  ok ? "yes" : "NO", "yes"});
  }
  {  // 3. single disk failure; parity reconstructs
    Rig rig;
    rig.WriteViaAgent(Payload());
    bool synced = false;
    rig.server->Sync([&]() { synced = true; });
    rig.sim.RunUntilPredicate([&]() { return synced; });
    // Fail the disk that actually holds the data's chunk.
    rig.server->store().disk(0)->Fail();
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, true);
    table.AddRow({"one data disk fails", "RAID parity reconstruction", ok ? "yes" : "NO",
                  "yes"});
    std::printf("  (parity reconstructions performed: %lld)\n",
                static_cast<long long>(rig.server->store().reconstructed_reads()));
  }
  {  // 4. double disk failure: beyond the design point
    Rig rig;
    rig.WriteViaAgent(Payload());
    bool synced = false;
    rig.server->Sync([&]() { synced = true; });
    rig.sim.RunUntilPredicate([&]() { return synced; });
    rig.server->store().disk(0)->Fail();
    rig.server->store().disk(1)->Fail();
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, false);
    table.AddRow({"two disks fail", "(single parity cannot cover)", ok ? "yes" : "no",
                  "no"});
  }
  {  // 4b. disk replaced and rebuilt: redundancy is restored
    Rig rig;
    rig.WriteViaAgent(Payload());
    bool synced = false;
    rig.server->Sync([&]() { synced = true; });
    rig.sim.RunUntilPredicate([&]() { return synced; });
    rig.server->store().disk(0)->Fail();
    rig.server->store().disk(0)->ReplaceBlank();
    bool rebuilt = false;
    rig.server->RebuildDisk(0, [&](bool, int64_t) { rebuilt = true; });
    rig.sim.RunUntilPredicate([&]() { return rebuilt; });
    // After the rebuild, a *different* disk can fail and data still reads.
    rig.server->store().disk(1)->Fail();
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, true);
    table.AddRow({"disk replaced + rebuilt, 2nd fails", "XOR rebuild onto new drive",
                  ok ? "yes" : "NO", "yes"});
  }
  {  // 5. power failure with UPS: buffers flushed before halt
    Rig rig;
    rig.WriteViaAgent(Payload());
    bool halted = false;
    rig.server->PowerFailure(true, [&]() { halted = true; });
    rig.sim.RunUntilPredicate([&]() { return halted; });
    bool rec = false;
    rig.server->Recover([&](bool) { rec = true; });
    rig.sim.RunUntilPredicate([&]() { return rec; });
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, true);
    table.AddRow({"power failure, UPS", "flush volatile buffers, halt", ok ? "yes" : "NO",
                  "yes"});
  }
  {  // 6. power failure without UPS: both copies die together
    Rig rig;
    rig.WriteViaAgent(Payload());
    bool halted = false;
    rig.server->PowerFailure(false, [&]() { halted = true; });
    rig.sim.RunUntilPredicate([&]() { return halted; });
    rig.agent->ClientCrash();  // the client machine lost power too
    bool rec = false;
    rig.server->Recover([&](bool) { rec = true; });
    rig.sim.RunUntilPredicate([&]() { return rec; });
    bool ok = rig.ReadBack(8192) == Payload();
    check(ok, false);
    table.AddRow({"power failure, no UPS", "(client+server fail together)",
                  ok ? "yes" : "no", "no"});
  }

  bench::PrintTable("acknowledged-but-unsynced write of 8 KiB, then the failure", table);
  bench::PrintVerdict(all_as_expected,
                      "every single-point failure preserves the data; only the documented "
                      "non-goals (double failure, unprotected power loss) lose it — "
                      "matching §5's reliability argument exactly");
  return 0;
}
