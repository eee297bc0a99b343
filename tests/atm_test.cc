// Unit tests for the ATM substrate: cells, AAL5, links, switches, signalling.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "src/atm/aal5.h"
#include "src/atm/cell.h"
#include "src/atm/crc32.h"
#include "src/atm/network.h"
#include "src/atm/transport.h"
#include "src/atm/wire.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"

namespace pegasus::atm {
namespace {

TEST(Crc32Test, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesWhole) {
  std::vector<uint8_t> data(257);
  std::iota(data.begin(), data.end(), 0);
  const uint32_t whole = Crc32(data.data(), data.size());
  // CRC-32 with seed chaining: crc(a||b) == crc(b, seed=crc(a)).
  const uint32_t part = Crc32(data.data() + 100, data.size() - 100, Crc32(data.data(), 100));
  EXPECT_EQ(whole, part);
}

TEST(Aal5Test, SingleCellRoundTrip) {
  std::vector<uint8_t> sdu{1, 2, 3, 4};
  auto cells = Aal5Segment(42, sdu);
  ASSERT_EQ(cells.size(), 1u);  // 4 + 8 trailer fits in 48
  EXPECT_TRUE(cells[0].end_of_frame);
  EXPECT_EQ(cells[0].vci, 42u);

  Aal5Reassembler r;
  auto out = r.Push(cells[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sdu);
  EXPECT_EQ(r.frames_ok(), 1u);
}

TEST(Aal5Test, MultiCellRoundTrip) {
  std::vector<uint8_t> sdu(1000);
  std::iota(sdu.begin(), sdu.end(), 0);
  auto cells = Aal5Segment(7, sdu);
  // 1000 + 8 = 1008 -> 21 cells exactly.
  ASSERT_EQ(cells.size(), 21u);
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    EXPECT_FALSE(cells[i].end_of_frame);
  }
  EXPECT_TRUE(cells.back().end_of_frame);

  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cells) {
    out = r.Push(c);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sdu);
}

TEST(Aal5Test, EmptySduRoundTrip) {
  auto cells = Aal5Segment(1, {});
  ASSERT_EQ(cells.size(), 1u);
  Aal5Reassembler r;
  auto out = r.Push(cells[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Aal5Test, CorruptPayloadFailsCrc) {
  std::vector<uint8_t> sdu(100, 0xAB);
  auto cells = Aal5Segment(9, sdu);
  cells[0].payload[5] ^= 0x01;
  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cells) {
    out = r.Push(c);
  }
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(r.crc_errors(), 1u);
  EXPECT_EQ(r.frames_ok(), 0u);
}

TEST(Aal5Test, LostEndOfFrameResynchronises) {
  std::vector<uint8_t> a(100, 1);
  std::vector<uint8_t> b(100, 2);
  auto ca = Aal5Segment(3, a);
  auto cb = Aal5Segment(3, b);
  Aal5Reassembler r;
  // Drop the last cell of frame a: its cells merge into frame b and the
  // combined PDU must fail CRC, after which the next frame succeeds.
  for (size_t i = 0; i + 1 < ca.size(); ++i) {
    r.Push(ca[i]);
  }
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cb) {
    out = r.Push(c);
  }
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(r.crc_errors(), 1u);
  // A fresh frame now reassembles fine.
  auto cc = Aal5Segment(3, b);
  for (const Cell& c : cc) {
    out = r.Push(c);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, b);
}

TEST(Aal5Test, OversizeSduRejected) {
  std::vector<uint8_t> sdu(kAal5MaxSduSize + 1);
  EXPECT_TRUE(Aal5Segment(1, sdu).empty());
}

TEST(Aal5Test, MaxSizeSduRoundTrip) {
  std::vector<uint8_t> sdu(kAal5MaxSduSize, 0x5C);
  auto cells = Aal5Segment(1, sdu);
  ASSERT_FALSE(cells.empty());
  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cells) {
    out = r.Push(c);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), kAal5MaxSduSize);
}

TEST(Aal5Test, SequenceNumbersAdvance) {
  std::vector<uint8_t> sdu(200);
  auto cells = Aal5Segment(1, sdu, 0, 100);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].seq, 100 + i);
  }
}

class CollectorSink : public CellSink {
 public:
  void DeliverBurst(const Cell* burst, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      cells.push_back(burst[i]);
      times.push_back(sim_ != nullptr ? sim_->now() : 0);
    }
  }
  void set_sim(sim::Simulator* s) { sim_ = s; }
  std::vector<Cell> cells;
  std::vector<sim::TimeNs> times;

 private:
  sim::Simulator* sim_ = nullptr;
};

TEST(LinkTest, SerialisationAndPropagationDelay) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, sim::Microseconds(10));
  CollectorSink sink;
  sink.set_sim(&sim);
  link.set_sink(&sink);
  Cell c;
  c.vci = 5;
  EXPECT_TRUE(link.SendCell(c));
  sim.Run();
  ASSERT_EQ(sink.cells.size(), 1u);
  // 53 bytes at 100 Mb/s = 4.24us serialisation + 10us propagation.
  EXPECT_EQ(sink.times[0], 4240 + 10'000);
}

// Back-to-back cells serialise at link rate and ride a cell train: the
// first cell is delivered when its serialisation completes, the coalesced
// remainder arrives together when the train's LAST cell clears the
// transmitter — the same instant the last cell arrived on the per-cell
// path, so frame completion times are unchanged.
TEST(LinkTest, BackToBackCellsCoalesceIntoTrain) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0);
  CollectorSink sink;
  sink.set_sim(&sim);
  link.set_sink(&sink);
  for (int i = 0; i < 3; ++i) {
    Cell c;
    c.seq = static_cast<uint64_t>(i);
    link.SendCell(c);
  }
  sim.Run();
  ASSERT_EQ(sink.cells.size(), 3u);
  EXPECT_EQ(sink.times[0], 4240);
  EXPECT_EQ(sink.times[1], 3 * 4240);
  EXPECT_EQ(sink.times[2], 3 * 4240);
  // Order preserved, and the train spent exactly its serialisation time on
  // the wire.
  EXPECT_EQ(sink.cells[0].seq, 0u);
  EXPECT_EQ(sink.cells[2].seq, 2u);
  EXPECT_EQ(link.busy_time(), 3 * 4240);
  EXPECT_EQ(link.queued_cells(), 0u);
}

TEST(LinkTest, QueueLimitDropsExcess) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0, /*queue_limit=*/4);
  CollectorSink sink;
  link.set_sink(&sink);
  for (int i = 0; i < 10; ++i) {
    link.SendCell(Cell{});
  }
  EXPECT_EQ(link.cells_dropped(), 6u);
  sim.Run();
  EXPECT_EQ(sink.cells.size(), 4u);
}

// The limit counts a cell that is partly serialised as queued: 4 cells sent
// at t=0 on a 100 Mb/s link (4,240 ns a cell) leave 3.5 cells queued at
// t=2,120, exactly 3 at t=4,240, and just over 3 a nanosecond later.
TEST(LinkTest, QueueLimitCountsAPartlySerialisedCell) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0, /*queue_limit=*/4);
  CollectorSink sink;
  link.set_sink(&sink);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(link.SendCell(Cell{}));
  }
  std::vector<bool> accepted;
  for (sim::TimeNs at : {2120, 4240, 4241}) {
    sim.ScheduleAt(at, [&]() { accepted.push_back(link.SendCell(Cell{})); });
  }
  sim.Run();
  EXPECT_EQ(accepted, (std::vector<bool>{false, true, false}));
  EXPECT_EQ(link.cells_dropped(), 2u);
  EXPECT_EQ(sink.cells.size(), 5u);
}

// Pins the tail-drop contract: a full queue drops the ARRIVING cell no
// matter its loss-priority bit — a queued low-priority cell is never evicted
// to admit a high-priority arrival — and each drop lands in the counter of
// the dropped cell's own class.
TEST(LinkTest, FullQueueTailDropsRegardlessOfPriority) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0, /*queue_limit=*/4);
  CollectorSink sink;
  link.set_sink(&sink);
  // Fill the queue with low-priority cells...
  for (int i = 0; i < 4; ++i) {
    Cell c;
    c.low_priority = true;
    c.seq = static_cast<uint64_t>(i);
    EXPECT_TRUE(link.SendCell(c));
  }
  // ...then offer a high-priority cell: tail-dropped, not admitted by
  // evicting a queued low-priority cell.
  Cell high;
  high.low_priority = false;
  high.seq = 100;
  EXPECT_FALSE(link.SendCell(high));
  EXPECT_EQ(link.cells_dropped_high(), 1u);
  EXPECT_EQ(link.cells_dropped_low(), 0u);
  Cell low;
  low.low_priority = true;
  EXPECT_FALSE(link.SendCell(low));
  EXPECT_EQ(link.cells_dropped_low(), 1u);
  EXPECT_EQ(link.cells_dropped(), 2u);

  sim.Run();
  // Every queued low-priority cell survived and was delivered in order.
  ASSERT_EQ(sink.cells.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sink.cells[i].low_priority);
    EXPECT_EQ(sink.cells[i].seq, static_cast<uint64_t>(i));
  }
  // The snapshot mirrors the split counters and queue bounds.
  const Link::StatsSnapshot stats = link.Stats();
  EXPECT_EQ(stats.cells_sent, 4u);
  EXPECT_EQ(stats.cells_dropped_high, 1u);
  EXPECT_EQ(stats.cells_dropped_low, 1u);
  EXPECT_EQ(stats.queue_limit, 4u);
  EXPECT_EQ(stats.queued_cells, 0u);
}

TEST(LinkTest, UtilizationTracksBusyFraction) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0);
  CollectorSink sink;
  link.set_sink(&sink);
  link.SendCell(Cell{});
  sim.RunUntil(sim::Microseconds(8));  // busy 4.24us of 8.48us
  EXPECT_NEAR(link.utilization(), 0.53, 0.02);
}

TEST(SwitchTest, RoutesAndRelabels) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, sim::Microseconds(1));
  Link out(&sim, "out", 100'000'000, 0);
  CollectorSink sink;
  sink.set_sim(&sim);
  out.set_sink(&sink);
  sw.AttachOutput(2, &out);
  EXPECT_TRUE(sw.AddRoute(0, 40, 2, 77));
  Cell c;
  c.vci = 40;
  sw.input(0)->DeliverBurst(&c, 1);
  sim.Run();
  ASSERT_EQ(sink.cells.size(), 1u);
  EXPECT_EQ(sink.cells[0].vci, 77u);
  EXPECT_EQ(sw.cells_switched(), 1u);
}

TEST(SwitchTest, UnroutedCellsDropped) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4);
  Cell c;
  c.vci = 99;
  sw.input(1)->DeliverBurst(&c, 1);
  sim.Run();
  EXPECT_EQ(sw.cells_unroutable(), 1u);
  EXPECT_EQ(sw.cells_switched(), 0u);
}

TEST(SwitchTest, DuplicateRouteRejected) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4);
  EXPECT_TRUE(sw.AddRoute(0, 40, 1, 41));
  EXPECT_FALSE(sw.AddRoute(0, 40, 2, 42));
  EXPECT_TRUE(sw.RemoveRoute(0, 40));
  EXPECT_FALSE(sw.RemoveRoute(0, 40));
  EXPECT_TRUE(sw.AddRoute(0, 40, 2, 42));
}

TEST(SwitchTest, VciAllocationSkipsUsed) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 2);
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData);
  sw.AddRoute(0, kVciFirstData, 1, 50);
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 1);
  // Other port unaffected.
  EXPECT_EQ(sw.AllocateVci(1), kVciFirstData);
}

// The next-free hint must not change the allocator's observable behaviour:
// a removed route's VCI becomes allocatable again, repeated AllocateVci
// without AddRoute stays idempotent, and churny open/close cycles keep
// handing out the lowest free VCI.
TEST(SwitchTest, VciAllocationReusesRemovedRoutes) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 2);
  for (Vci v = kVciFirstData; v < kVciFirstData + 8; ++v) {
    EXPECT_EQ(sw.AllocateVci(0), v);
    EXPECT_TRUE(sw.AddRoute(0, v, 1, v + 100));
  }
  // AllocateVci without AddRoute is idempotent (the hint must not burn it).
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 8);
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 8);
  // Freeing a VCI in the middle makes it the next allocation again.
  EXPECT_TRUE(sw.RemoveRoute(0, kVciFirstData + 3));
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 3);
  EXPECT_TRUE(sw.AddRoute(0, kVciFirstData + 3, 1, 203));
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 8);
  // Churn: open/close at the same VCI never walks past the live run.
  for (int i = 0; i < 1000; ++i) {
    const Vci v = sw.AllocateVci(0);
    EXPECT_EQ(v, kVciFirstData + 8);
    EXPECT_TRUE(sw.AddRoute(0, v, 1, 300));
    EXPECT_TRUE(sw.RemoveRoute(0, v));
  }
}

// An endpoint terminating many VCs hands out the smallest free incoming VCI:
// a released VCI is reused first, then allocation resumes past the live run.
TEST(EndpointTest, IncomingVciReuseOrder) {
  sim::Simulator sim;
  Endpoint ep(&sim, "store");
  constexpr Vci kHeld = 300;
  for (Vci v = kVciFirstData; v < kVciFirstData + kHeld; ++v) {
    EXPECT_EQ(ep.AllocateIncomingVci(), v);
  }
  ep.ReleaseIncomingVci(kVciFirstData + kHeld / 2);
  EXPECT_EQ(ep.AllocateIncomingVci(), kVciFirstData + kHeld / 2);
  EXPECT_EQ(ep.AllocateIncomingVci(), kVciFirstData + kHeld);
  // Two gaps fill lowest first, the first data VCI included.
  ep.ReleaseIncomingVci(kVciFirstData + 7);
  ep.ReleaseIncomingVci(kVciFirstData);
  EXPECT_EQ(ep.AllocateIncomingVci(), kVciFirstData);
  EXPECT_EQ(ep.AllocateIncomingVci(), kVciFirstData + 7);
  EXPECT_EQ(ep.AllocateIncomingVci(), kVciFirstData + kHeld + 1);
}

// An endpoint hands each delivered train to its one handler in one call, a
// lone cell and a multi-cell train alike. Installing a handler replaces the
// previous owner outright: once a tap takes over an endpoint that carried a
// MessageTransport, later trains reach the tap only.
TEST(EndpointTest, HandsEachTrainToItsHandlerInOneCall) {
  sim::Simulator sim;
  Endpoint ep(&sim, "nic");
  std::vector<size_t> calls;
  auto tap = [&calls](const Cell*, size_t count) { calls.push_back(count); };
  ep.set_cell_handler(tap);
  const std::vector<Cell> frame = Aal5Segment(kVciFirstData, std::vector<uint8_t>(200, 7));
  ASSERT_GT(frame.size(), 1u);
  ep.DeliverBurst(frame.data(), 1);
  ep.DeliverBurst(frame.data(), frame.size());
  EXPECT_EQ(calls, (std::vector<size_t>{1, frame.size()}));
  EXPECT_EQ(ep.cells_received(), 1 + frame.size());

  MessageTransport transport(&ep);
  ep.DeliverBurst(frame.data(), frame.size());
  EXPECT_EQ(transport.messages_received(), 1u);

  calls.clear();
  ep.set_cell_handler(tap);
  ep.DeliverBurst(frame.data(), frame.size());
  ep.DeliverBurst(&frame.back(), 1);
  EXPECT_EQ(calls, (std::vector<size_t>{frame.size(), 1}));
  EXPECT_EQ(transport.messages_received(), 1u);
}

// A multi-target entry replicates a burst once per BRANCH, relabelling per
// branch, and counts every copy switched.
TEST(SwitchTest, MultiTargetEntryReplicatesPerBranch) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, 0);
  Link out1(&sim, "o1", 100'000'000, 0);
  Link out2(&sim, "o2", 100'000'000, 0);
  CollectorSink sink1;
  CollectorSink sink2;
  out1.set_sink(&sink1);
  out2.set_sink(&sink2);
  sw.AttachOutput(1, &out1);
  sw.AttachOutput(2, &out2);
  EXPECT_TRUE(sw.AddRoute(0, 40, 1, 70));
  EXPECT_EQ(sw.RouteTargetCount(0, 40), 1);
  EXPECT_TRUE(sw.AddRouteTarget(0, 40, 2, 80));
  EXPECT_EQ(sw.RouteTargetCount(0, 40), 2);
  // A branch to an already-subscribed port is rejected (one copy per port).
  EXPECT_FALSE(sw.AddRouteTarget(0, 40, 1, 99));
  EXPECT_FALSE(sw.AddRouteTarget(0, 40, 2, 99));
  // Grafting onto a nonexistent entry fails.
  EXPECT_FALSE(sw.AddRouteTarget(0, 41, 2, 99));

  std::vector<Cell> burst(3);
  for (size_t i = 0; i < burst.size(); ++i) {
    burst[i].vci = 40;
    burst[i].seq = i;
  }
  sw.input(0)->DeliverBurst(burst.data(), burst.size());
  sim.Run();
  ASSERT_EQ(sink1.cells.size(), 3u);
  ASSERT_EQ(sink2.cells.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink1.cells[i].vci, 70u);
    EXPECT_EQ(sink1.cells[i].seq, i);
    EXPECT_EQ(sink2.cells[i].vci, 80u);
    EXPECT_EQ(sink2.cells[i].seq, i);
  }
  EXPECT_EQ(sw.cells_switched(), 6u);  // 3 cells x 2 branches
}

// Regression (multi-target entries vs the allocation hint): pruning ONE
// branch of a multicast entry must not hand its VCI out again — the entry
// still routes cells for the remaining branches. Only removing the LAST
// branch frees the VCI.
TEST(SwitchTest, PrunedBranchDoesNotFreeVciStillRoutingElsewhere) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, 0);
  const Vci v = sw.AllocateVci(0);
  EXPECT_TRUE(sw.AddRoute(0, v, 1, 70));
  EXPECT_TRUE(sw.AddRouteTarget(0, v, 2, 80));
  EXPECT_TRUE(sw.AddRouteTarget(0, v, 3, 90));

  // Prune the middle branch: entry stays live, VCI stays allocated.
  EXPECT_TRUE(sw.RemoveRouteTarget(0, v, 2));
  EXPECT_EQ(sw.RouteTargetCount(0, v), 2);
  EXPECT_TRUE(sw.HasRoute(0, v));
  EXPECT_NE(sw.AllocateVci(0), v);

  // Prune the PRIMARY branch: the next-oldest branch takes over, the VCI
  // still must not be reallocated.
  EXPECT_TRUE(sw.RemoveRouteTarget(0, v, 1));
  EXPECT_EQ(sw.RouteTargetCount(0, v), 1);
  EXPECT_NE(sw.AllocateVci(0), v);

  // Removing a branch twice fails; unknown ports fail.
  EXPECT_FALSE(sw.RemoveRouteTarget(0, v, 1));
  EXPECT_FALSE(sw.RemoveRouteTarget(0, v, 2));

  // The last branch retires the entry and only then frees the VCI.
  EXPECT_TRUE(sw.RemoveRouteTarget(0, v, 3));
  EXPECT_FALSE(sw.HasRoute(0, v));
  EXPECT_EQ(sw.AllocateVci(0), v);
}

// The reference the VCI allocators must agree with: the lowest data VCI
// not in `held`.
Vci LowestFreeIn(const std::set<Vci>& held) {
  Vci vci = kVciFirstData;
  for (auto it = held.lower_bound(vci); it != held.end() && *it == vci; ++it) {
    ++vci;
  }
  return vci;
}

template <typename T>
T PickFrom(const std::set<T>& values, sim::Rng& rng) {
  auto it = values.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1));
  return *it;
}

// A switch input port's and an endpoint's VCI allocation, checked against
// a std::set of held VCIs under seeded churn: every allocation is the
// lowest free data VCI. Covered along the way: the 64th and 65th data VCI
// (a word boundary of the bitmap), explicit entries below kVciFirstData
// and far above the live range, releases of VCIs that are not held, and
// multicast entries whose VCI stays held until their last branch goes.
TEST(VciAllocationTest, SwitchAndEndpointMatchLowestFreeReferenceUnderChurn) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4);
  Endpoint ep(&sim, "ep");
  std::set<Vci> sw_held;                 // data VCIs with an entry on port 0
  std::map<Vci, std::set<int>> branches;  // each entry's output ports
  std::set<Vci> ep_held;
  auto open_on_switch = [&]() {
    const Vci v = sw.AllocateVci(0);
    EXPECT_EQ(v, LowestFreeIn(sw_held));
    EXPECT_EQ(sw.AllocateVci(0), v);  // idempotent until AddRoute
    EXPECT_TRUE(sw.AddRoute(0, v, 1, v));
    sw_held.insert(v);
    branches[v] = {1};
    return v;
  };
  auto open_on_endpoint = [&]() {
    const Vci v = ep.AllocateIncomingVci();
    EXPECT_EQ(v, LowestFreeIn(ep_held));
    ep_held.insert(v);
    return v;
  };

  // The first 130 data VCIs fill two words and start a third.
  for (Vci i = 0; i < 130; ++i) {
    EXPECT_EQ(open_on_switch(), kVciFirstData + i);
    EXPECT_EQ(open_on_endpoint(), kVciFirstData + i);
  }
  // Free the 64th and 65th data VCI, one on each side of the boundary: the
  // lower comes back first, then the upper, then allocation resumes at 130.
  for (Vci v : {kVciFirstData + 64, kVciFirstData + 63}) {
    EXPECT_TRUE(sw.RemoveRoute(0, v));
    sw_held.erase(v);
    branches.erase(v);
    ep.ReleaseIncomingVci(v);
    ep_held.erase(v);
  }
  for (Vci v : {kVciFirstData + 63, kVciFirstData + 64, kVciFirstData + 130}) {
    EXPECT_EQ(open_on_switch(), v);
    EXPECT_EQ(open_on_endpoint(), v);
  }

  // Explicit entries below kVciFirstData and far above the live range: they
  // route, are never handed out, and leave the lowest free VCI where it was.
  constexpr Vci kFar = 4000;
  const Vci next = LowestFreeIn(sw_held);
  EXPECT_TRUE(sw.AddRoute(0, 5, 1, 5));
  EXPECT_TRUE(sw.AddRoute(0, kFar, 1, kFar));
  EXPECT_TRUE(sw.HasRoute(0, 5));
  EXPECT_TRUE(sw.HasRoute(0, kFar));
  sw_held.insert(kFar);
  EXPECT_EQ(sw.AllocateVci(0), next);

  // Releasing what is not held changes nothing.
  EXPECT_FALSE(sw.RemoveRoute(0, 7));
  EXPECT_FALSE(sw.RemoveRoute(0, 3999));
  EXPECT_FALSE(sw.RemoveRouteTarget(0, 3999, 1));
  EXPECT_EQ(sw.AllocateVci(0), next);
  const Vci ep_next = LowestFreeIn(ep_held);
  for (Vci v : {Vci{5}, Vci{3999}, Vci{100'000}}) {
    ep.ReleaseIncomingVci(v);
  }
  EXPECT_EQ(open_on_endpoint(), ep_next);

  // The churn leaves the two explicit entries alone.
  auto pick_churned = [&](sim::Rng& r) {
    Vci v;
    do {
      v = PickFrom(sw_held, r);
    } while (v == kFar);
    return v;
  };

  // Seeded churn on both. Each step opens, closes, grafts or prunes on the
  // switch, and allocates or releases (held or not) on the endpoint; the
  // live counts hover at a few hundred, so the lowest free VCI keeps
  // crossing word boundaries.
  sim::Rng rng(16);
  for (int step = 0; step < 20'000; ++step) {
    SCOPED_TRACE(step);
    const int64_t op = rng.UniformInt(0, 9);
    if (sw_held.size() < 3 || rng.UniformInt(0, 399) >= static_cast<int64_t>(sw_held.size())) {
      open_on_switch();
    } else if (op < 5) {
      const Vci v = pick_churned(rng);
      ASSERT_TRUE(sw.RemoveRoute(0, v));
      sw_held.erase(v);
      branches.erase(v);
    } else if (op < 7) {
      // Graft a branch to a port the entry does not use yet.
      const Vci v = pick_churned(rng);
      std::set<int>& ports = branches[v];
      if (ports.size() < 3) {
        int port = 1;
        while (ports.count(port) != 0) {
          ++port;
        }
        ASSERT_TRUE(sw.AddRouteTarget(0, v, port, v));
        ports.insert(port);
      }
    } else if (op < 9) {
      // Prune one branch; the VCI is freed only with the last.
      const Vci v = pick_churned(rng);
      std::set<int>& ports = branches[v];
      const int port = PickFrom(ports, rng);
      ASSERT_TRUE(sw.RemoveRouteTarget(0, v, port));
      ports.erase(port);
      EXPECT_EQ(sw.HasRoute(0, v), !ports.empty());
      EXPECT_EQ(sw.RouteTargetCount(0, v), static_cast<int>(ports.size()));
      if (ports.empty()) {
        sw_held.erase(v);
        branches.erase(v);
      }
    } else {
      // A VCI with no entry: removing it fails and frees nothing.
      Vci v = kVciFirstData + static_cast<Vci>(rng.UniformInt(0, 500));
      while (sw_held.count(v) != 0) {
        ++v;
      }
      ASSERT_FALSE(sw.RemoveRoute(0, v));
    }
    ASSERT_EQ(sw.AllocateVci(0), LowestFreeIn(sw_held));

    if (ep_held.empty() || rng.UniformInt(0, 399) >= static_cast<int64_t>(ep_held.size())) {
      open_on_endpoint();
    } else {
      const Vci v = op < 8 ? PickFrom(ep_held, rng)
                           : kVciFirstData + static_cast<Vci>(rng.UniformInt(0, 500));
      ep.ReleaseIncomingVci(v);
      ep_held.erase(v);
    }
    const Vci want = LowestFreeIn(ep_held);
    ASSERT_EQ(open_on_endpoint(), want);
    ep.ReleaseIncomingVci(want);
    ep_held.erase(want);
  }

  // The explicit entries outlived the churn, and removing them frees only
  // what was held.
  EXPECT_TRUE(sw.HasRoute(0, 5));
  EXPECT_TRUE(sw.RemoveRoute(0, 5));
  EXPECT_EQ(sw.AllocateVci(0), LowestFreeIn(sw_held));
  EXPECT_TRUE(sw.RemoveRoute(0, kFar));
  sw_held.erase(kFar);
  EXPECT_EQ(sw.AllocateVci(0), LowestFreeIn(sw_held));
  // The other ports never saw an entry.
  EXPECT_EQ(sw.AllocateVci(1), kVciFirstData);
}

// A unicast run gathered across VCIs must stop at a multicast entry: the
// replicated cells would otherwise be folded into the unicast train.
TEST(SwitchTest, UnicastRunStopsAtMulticastEntry) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, 0);
  Link out1(&sim, "o1", 100'000'000, 0);
  Link out2(&sim, "o2", 100'000'000, 0);
  CollectorSink sink1;
  CollectorSink sink2;
  out1.set_sink(&sink1);
  out2.set_sink(&sink2);
  sw.AttachOutput(1, &out1);
  sw.AttachOutput(2, &out2);
  EXPECT_TRUE(sw.AddRoute(0, 40, 1, 70));       // unicast -> port 1
  EXPECT_TRUE(sw.AddRoute(0, 41, 1, 71));       // multicast -> ports 1+2
  EXPECT_TRUE(sw.AddRouteTarget(0, 41, 2, 81));

  std::vector<Cell> burst(4);
  burst[0].vci = 40;
  burst[1].vci = 41;
  burst[2].vci = 41;
  burst[3].vci = 40;
  sw.input(0)->DeliverBurst(burst.data(), burst.size());
  sim.Run();
  // Port 1: 2 unicast + 2 replicated; port 2: 2 replicated.
  ASSERT_EQ(sink1.cells.size(), 4u);
  EXPECT_EQ(sink1.cells[0].vci, 70u);
  EXPECT_EQ(sink1.cells[1].vci, 71u);
  EXPECT_EQ(sink1.cells[2].vci, 71u);
  EXPECT_EQ(sink1.cells[3].vci, 70u);
  ASSERT_EQ(sink2.cells.size(), 2u);
  EXPECT_EQ(sink2.cells[0].vci, 81u);
  EXPECT_EQ(sw.cells_switched(), 6u);
}

// Records each DeliverBurst call whole: when it came and what it carried.
class TrainSink : public CellSink {
 public:
  explicit TrainSink(sim::Simulator* sim) : sim_(sim) {}
  void DeliverBurst(const Cell* burst, size_t count) override {
    trains.push_back(std::vector<Cell>(burst, burst + count));
    times.push_back(sim_->now());
  }
  std::vector<std::vector<Cell>> trains;
  std::vector<sim::TimeNs> times;

 private:
  sim::Simulator* sim_;
};

// A long link keeps about 58 frame trains on the wire at once behind the
// cuts still being made, while more frames keep its transmitter busy. Each
// frame is cut when its end-of-frame cell clears the transmitter, and must
// reach the sink as one DeliverBurst exactly one propagation delay later,
// its cells in order.
TEST(LinkTest, InFlightTrainsArriveIntactBehindLaterCuts) {
  sim::Simulator sim;
  const sim::DurationNs prop = sim::Microseconds(800);
  Link link(&sim, "long", 155'000'000, prop);
  TrainSink sink(&sim);
  link.set_sink(&sink);
  constexpr int kFrameCells = 5;
  uint64_t next_seq = 0;
  auto send_frames = [&](int frames) {
    for (int f = 0; f < frames; ++f) {
      for (int c = 0; c < kFrameCells; ++c) {
        Cell cell;
        cell.seq = next_seq++;
        cell.end_of_frame = c == kFrameCells - 1;
        ASSERT_TRUE(link.SendCell(cell));
      }
    }
  };
  // 20 frames now, then 8 more every 100 us: 109 us of work per period, so
  // the transmitter never idles.
  send_frames(20);
  for (int k = 1; k <= 30; ++k) {
    sim.ScheduleAt(k * sim::Microseconds(100), [&]() { send_frames(8); });
  }
  sim.Run();
  const size_t frames = 20 + 30 * 8;
  EXPECT_EQ(link.cells_dropped(), 0u);
  // The first cell finds the transmitter idle and is cut alone. From then
  // on each train is the rest of a frame, cut when its end-of-frame cell
  // clears the transmitter: (last + 1) cells of serialisation from t = 0.
  std::vector<size_t> last_cells = {0};
  for (size_t f = 0; f < frames; ++f) {
    last_cells.push_back((f + 1) * kFrameCells - 1);
  }
  ASSERT_EQ(sink.trains.size(), last_cells.size());
  uint64_t seq = 0;
  for (size_t t = 0; t < last_cells.size(); ++t) {
    const std::vector<Cell>& train = sink.trains[t];
    ASSERT_EQ(train.size(), last_cells[t] + 1 - seq) << "train " << t;
    for (const Cell& cell : train) {
      EXPECT_EQ(cell.seq, seq++) << "train " << t;
    }
    const sim::TimeNs cut = static_cast<sim::TimeNs>(last_cells[t] + 1) * link.cell_time();
    EXPECT_EQ(sink.times[t], cut + prop) << "train " << t;
  }
}

// Trains reach a switch on two input ports at one instant and split into
// runs: a two-branch multicast entry and unicast runs, two of them sharing
// an output link. Each output link must take its runs in the order the
// fabric took them, whatever the fabric delay.
TEST(SwitchTest, FabricRunsLeaveInEntryOrder) {
  for (const sim::DurationNs fabric : {sim::Microseconds(1), sim::DurationNs{0}}) {
    SCOPED_TRACE(fabric);
    sim::Simulator sim;
    Switch sw(&sim, "sw", 4, fabric);
    Link out1(&sim, "o1", 622'000'000, 0);
    Link out2(&sim, "o2", 622'000'000, 0);
    CollectorSink sink1;
    CollectorSink sink2;
    sink1.set_sim(&sim);
    out1.set_sink(&sink1);
    out2.set_sink(&sink2);
    sw.AttachOutput(1, &out1);
    sw.AttachOutput(2, &out2);
    ASSERT_TRUE(sw.AddRoute(0, 40, 1, 70));  // multicast -> ports 1 and 2
    ASSERT_TRUE(sw.AddRouteTarget(0, 40, 2, 80));
    ASSERT_TRUE(sw.AddRoute(0, 41, 1, 71));  // unicast -> port 1
    ASSERT_TRUE(sw.AddRoute(3, 50, 2, 90));  // unicast -> port 2
    ASSERT_TRUE(sw.AddRoute(3, 51, 1, 91));  // unicast -> port 1
    auto train = [](std::vector<Vci> vcis, uint64_t first_seq) {
      std::vector<Cell> cells(vcis.size());
      for (size_t i = 0; i < cells.size(); ++i) {
        cells[i].vci = vcis[i];
        cells[i].seq = first_seq + i;
      }
      return cells;
    };
    const std::vector<Cell> a = train({40, 40, 41, 41, 40}, 0);
    const std::vector<Cell> b = train({50, 51, 51, 50}, 10);
    const sim::TimeNs t0 = sim::Microseconds(5);
    sim.ScheduleAt(t0, [&]() { sw.input(0)->DeliverBurst(a.data(), a.size()); });
    sim.ScheduleAt(t0, [&]() { sw.input(3)->DeliverBurst(b.data(), b.size()); });
    sim.Run();
    // Runs in fabric order: a's {40,40} to both branches, {41,41}, {40} to
    // both branches; then b's {50}, {51,51}, {50}.
    using Labels = std::vector<std::pair<Vci, uint64_t>>;
    auto labels = [](const std::vector<Cell>& cells) {
      Labels out;
      for (const Cell& c : cells) {
        out.emplace_back(c.vci, c.seq);
      }
      return out;
    };
    EXPECT_EQ(labels(sink1.cells),
              (Labels{{70, 0}, {70, 1}, {71, 2}, {71, 3}, {70, 4}, {91, 11}, {91, 12}}));
    EXPECT_EQ(labels(sink2.cells), (Labels{{80, 0}, {80, 1}, {80, 4}, {90, 10}, {90, 13}}));
    EXPECT_EQ(sw.cells_switched(), 12u);
    // The first run left the fabric one fabric delay after it entered.
    ASSERT_FALSE(sink1.times.empty());
    EXPECT_EQ(sink1.times.front(), t0 + fabric + out1.cell_time());
  }
}

class NetworkFixture : public ::testing::Test {
 protected:
  // The fabric every test starts from: a and b on sw1, c on sw2, one trunk.
  // Built again into a fresh network, it gets the same link ids.
  struct Fabric {
    explicit Fabric(Network& net) : sw1(net.AddSwitch("sw1", 8)), sw2(net.AddSwitch("sw2", 8)) {
      net.ConnectSwitches(sw1, 7, sw2, 7, 155'000'000);
      a = net.AddEndpoint("a", sw1, 0, 155'000'000);
      b = net.AddEndpoint("b", sw1, 1, 155'000'000);
      c = net.AddEndpoint("c", sw2, 0, 155'000'000);
    }
    Switch* sw1;
    Switch* sw2;
    Endpoint* a = nullptr;
    Endpoint* b = nullptr;
    Endpoint* c = nullptr;
  };

  NetworkFixture() : net_(&sim_) {
    const Fabric fabric(net_);
    sw1_ = fabric.sw1;
    sw2_ = fabric.sw2;
    a_ = fabric.a;
    b_ = fabric.b;
    c_ = fabric.c;
  }

  // Every query and mutation on `id` must find no VC; `endpoints` are the
  // leaves to ask about.
  void ExpectNoVc(VcId id, const std::vector<Endpoint*>& endpoints) {
    EXPECT_EQ(net_.GetVc(id), nullptr);
    EXPECT_EQ(net_.VcLinks(id), nullptr);
    EXPECT_EQ(net_.LeafCount(id), 0);
    for (Endpoint* ep : endpoints) {
      EXPECT_FALSE(net_.LeafVci(id, ep).has_value()) << ep->name();
      EXPECT_FALSE(net_.AddLeaf(id, ep).has_value()) << ep->name();
      EXPECT_FALSE(net_.RemoveLeaf(id, ep)) << ep->name();
    }
    EXPECT_FALSE(net_.UpdateVcQos(id, QosSpec{1'000'000}));
    EXPECT_FALSE(net_.CloseVc(id));
  }

  sim::Simulator sim_;
  Network net_;
  Switch* sw1_;
  Switch* sw2_;
  Endpoint* a_;
  Endpoint* b_;
  Endpoint* c_;
};

TEST_F(NetworkFixture, SameSwitchVc) {
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(vc->hop_count, 1);

  std::vector<uint8_t> received;
  MessageTransport bt(b_);
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t> msg, sim::TimeNs) { received = msg; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1, 2, 3});
  sim_.Run();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(NetworkFixture, CrossSwitchVc) {
  auto vc = net_.OpenVc(a_, c_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(vc->hop_count, 2);

  int got = 0;
  MessageTransport ct(c_);
  ct.SetHandler(vc->destination_vci,
                [&](Vci, std::vector<uint8_t> msg, sim::TimeNs) { got = static_cast<int>(msg[0]); });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {99});
  sim_.Run();
  EXPECT_EQ(got, 99);
}

TEST_F(NetworkFixture, TwoVcsDoNotInterfere) {
  auto vc1 = net_.OpenVc(a_, c_);
  auto vc2 = net_.OpenVc(b_, c_);
  ASSERT_TRUE(vc1.has_value());
  ASSERT_TRUE(vc2.has_value());
  EXPECT_NE(vc1->destination_vci, vc2->destination_vci);

  std::map<Vci, int> counts;
  MessageTransport ct(c_);
  ct.SetDefaultHandler([&](Vci vci, std::vector<uint8_t>, sim::TimeNs) { ++counts[vci]; });
  MessageTransport at(a_);
  MessageTransport bt(b_);
  at.Send(vc1->source_vci, {1});
  bt.Send(vc2->source_vci, {2});
  sim_.Run();
  EXPECT_EQ(counts[vc1->destination_vci], 1);
  EXPECT_EQ(counts[vc2->destination_vci], 1);
}

TEST_F(NetworkFixture, CloseVcStopsDelivery) {
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_TRUE(net_.CloseVc(vc->id));
  EXPECT_FALSE(net_.CloseVc(vc->id));

  MessageTransport bt(b_);
  int got = 0;
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1});
  sim_.Run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(sw1_->cells_unroutable(), 1u);
}

TEST_F(NetworkFixture, AdmissionControlRejectsOvercommit) {
  QosSpec q;
  q.peak_bps = 100'000'000;
  auto vc1 = net_.OpenVc(a_, c_, q);
  ASSERT_TRUE(vc1.has_value());
  // Second 100 Mb/s reservation cannot fit on the 155 Mb/s inter-switch link.
  auto vc2 = net_.OpenVc(b_, c_, q);
  EXPECT_FALSE(vc2.has_value());
  EXPECT_EQ(net_.admission_rejections(), 1);
  // Best-effort still fine.
  auto vc3 = net_.OpenVc(b_, c_);
  EXPECT_TRUE(vc3.has_value());
  // Releasing the first reservation frees the capacity.
  net_.CloseVc(vc1->id);
  auto vc4 = net_.OpenVc(b_, c_, q);
  EXPECT_TRUE(vc4.has_value());
}

TEST_F(NetworkFixture, DuplexOpensDataAndControl) {
  auto pair = net_.OpenDuplex(a_, c_, QosSpec{10'000'000}, QosSpec{});
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first.source, a_);
  EXPECT_EQ(pair->second.source, c_);
}

TEST_F(NetworkFixture, PacedFrameArrivesAtPacedRate) {
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  MessageTransport bt(b_);
  sim::TimeNs done_at = 0;
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { done_at = sim_.now(); });
  // 4800 bytes => 101 cells; paced at 10 Mb/s the last cell leaves around
  // 100 * 42.4us ≈ 4.24ms.
  a_->SendFrame(vc->source_vci, std::vector<uint8_t>(4800), 10'000'000);
  sim_.Run();
  EXPECT_GT(done_at, sim::Milliseconds(4));
  EXPECT_LT(done_at, sim::Milliseconds(5));
}

// Regression: SignalCongestion snapshots its notification set before
// invoking handlers, and a handler may close a SIBLING VC on the same link
// mid-signal. The closed VC's handler must not fire afterwards — it would
// observe a congestion report for a circuit that no longer exists.
TEST_F(NetworkFixture, CongestionHandlerClosingSiblingVcSuppressesItsCallback) {
  auto vc1 = net_.OpenVc(a_, c_);
  auto vc2 = net_.OpenVc(b_, c_);
  ASSERT_TRUE(vc1.has_value());
  ASSERT_TRUE(vc2.has_value());
  // Both traverse the inter-switch link.
  auto edge_links = net_.VcLinks(vc1->id);
  ASSERT_NE(edge_links, nullptr);
  const Link* shared = (*edge_links)[1];
  ASSERT_NE(std::find(net_.VcLinks(vc2->id)->begin(), net_.VcLinks(vc2->id)->end(), shared),
            net_.VcLinks(vc2->id)->end());

  int first_fired = 0;
  int second_fired = 0;
  net_.SetCongestionHandler(vc1->id, [&](VcId, const Link*, double) {
    ++first_fired;
    net_.CloseVc(vc2->id);  // renegotiation closing a sibling mid-signal
  });
  net_.SetCongestionHandler(vc2->id, [&](VcId, const Link*, double) { ++second_fired; });

  // Only the surviving VC is notified, and the return value counts it alone.
  EXPECT_EQ(net_.SignalCongestion(shared, 0.5), 1);
  EXPECT_EQ(first_fired, 1);
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(net_.GetVc(vc2->id), nullptr);

  // A handler dropping its OWN registration mid-signal is equally safe.
  net_.SetCongestionHandler(vc1->id, [&](VcId id, const Link*, double) {
    ++first_fired;
    net_.ClearCongestionHandler(id);
  });
  EXPECT_EQ(net_.SignalCongestion(shared, 0.25), 1);
  EXPECT_EQ(first_fired, 2);
  EXPECT_EQ(net_.SignalCongestion(shared, 0.25), 0);  // nothing registered
  EXPECT_EQ(first_fired, 2);
}

// A graft can bring an OLD VC onto a link that younger VCs already cross.
// Congestion on that link still reaches the handlers in ascending VcId (open
// order), not in the order the VCs reached the link or set their handlers.
TEST_F(NetworkFixture, CongestionReachesGraftedOlderVcInIdOrder) {
  auto old_vc = net_.OpenVc(a_, b_);  // sw1 only
  auto young1 = net_.OpenVc(b_, c_);
  auto young2 = net_.OpenVc(a_, c_);
  ASSERT_TRUE(old_vc.has_value());
  ASSERT_TRUE(young1.has_value());
  ASSERT_TRUE(young2.has_value());
  ASSERT_LT(old_vc->id, young1->id);
  ASSERT_LT(young1->id, young2->id);
  const Link* trunk = (*net_.VcLinks(young1->id))[1];
  EXPECT_EQ(trunk->name(), "sw1->sw2");
  const std::vector<Link*>& old_links = *net_.VcLinks(old_vc->id);
  ASSERT_EQ(std::count(old_links.begin(), old_links.end(), trunk), 0);

  std::vector<VcId> order;
  for (VcId id : {young2->id, young1->id, old_vc->id}) {
    net_.SetCongestionHandler(id, [&order](VcId vc, const Link*, double) { order.push_back(vc); });
  }
  EXPECT_EQ(net_.SignalCongestion(trunk, 0.5), 2);
  EXPECT_EQ(order, (std::vector<VcId>{young1->id, young2->id}));

  // Grafting c onto the old VC brings it onto the trunk after both.
  ASSERT_TRUE(net_.AddLeaf(old_vc->id, c_).has_value());
  order.clear();
  EXPECT_EQ(net_.SignalCongestion(trunk, 0.5), 3);
  EXPECT_EQ(order, (std::vector<VcId>{old_vc->id, young1->id, young2->id}));

  // Pruning it back takes it off the trunk again.
  ASSERT_TRUE(net_.RemoveLeaf(old_vc->id, c_));
  order.clear();
  EXPECT_EQ(net_.SignalCongestion(trunk, 0.0), 2);
  EXPECT_EQ(order, (std::vector<VcId>{young1->id, young2->id}));
}

TEST_F(NetworkFixture, MulticastVcDeliversToEveryLeafOnce) {
  auto vc = net_.OpenVc(a_, {b_, c_}, QosSpec{10'000'000});
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(net_.LeafCount(vc->id), 2);
  ASSERT_TRUE(net_.LeafVci(vc->id, b_).has_value());
  ASSERT_TRUE(net_.LeafVci(vc->id, c_).has_value());
  EXPECT_EQ(*net_.LeafVci(vc->id, b_), vc->destination_vci);

  int got_b = 0;
  int got_c = 0;
  MessageTransport bt(b_);
  MessageTransport ct(c_);
  bt.SetHandler(*net_.LeafVci(vc->id, b_),
                [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  ct.SetHandler(*net_.LeafVci(vc->id, c_),
                [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_c; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {42});
  sim_.Run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
}

TEST_F(NetworkFixture, MulticastChargesSharedEdgesOnce) {
  // Both leaves hang off sw2: the inter-switch trunk is a shared tree edge
  // and must carry ONE stream's reservation, not one per leaf.
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  const QosSpec q{30'000'000};
  auto vc = net_.OpenVc(a_, {c_, d}, q);
  ASSERT_TRUE(vc.has_value());
  const Link* trunk = nullptr;
  for (const auto& l : net_.links()) {
    if (l->name() == "sw1->sw2") {
      trunk = l.get();
    }
  }
  ASSERT_NE(trunk, nullptr);
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  // Grafting a third leaf behind the same trunk admits only the graft path.
  Endpoint* e = net_.AddEndpoint("e", sw2_, 2, 155'000'000);
  auto leaf_vci = net_.AddLeaf(vc->id, e);
  ASSERT_TRUE(leaf_vci.has_value());
  EXPECT_EQ(net_.LeafCount(vc->id), 3);
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  // Pruning a leaf keeps shared edges; the trunk drops only when the last
  // downstream leaf goes (which is CloseVc's job for the final one).
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, d));
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, c_));
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  // Removing the LAST leaf is refused; CloseVc releases everything.
  EXPECT_FALSE(net_.RemoveLeaf(vc->id, e));
  EXPECT_TRUE(net_.CloseVc(vc->id));
  EXPECT_EQ(net_.ReservedBps(trunk), 0);
  for (const auto& l : net_.links()) {
    EXPECT_EQ(net_.ReservedBps(l.get()), 0) << l->name();
  }
}

TEST_F(NetworkFixture, MulticastPruneStopsDeliveryToThatLeafOnly) {
  auto vc = net_.OpenVc(a_, {b_, c_});
  ASSERT_TRUE(vc.has_value());
  int got_b = 0;
  int got_c = 0;
  MessageTransport bt(b_);
  MessageTransport ct(c_);
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  ct.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_c; });
  ASSERT_TRUE(net_.RemoveLeaf(vc->id, b_));
  EXPECT_FALSE(net_.LeafVci(vc->id, b_).has_value());
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1});
  sim_.Run();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_c, 1);
  // Re-grafting works and delivery resumes.
  ASSERT_TRUE(net_.AddLeaf(vc->id, b_).has_value());
  at.Send(vc->source_vci, {2});
  sim_.Run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 2);
}

TEST_F(NetworkFixture, MulticastRejectsBadSinkSets) {
  EXPECT_FALSE(net_.OpenVc(a_, std::vector<Endpoint*>{}).has_value());
  EXPECT_FALSE(net_.OpenVc(a_, {b_, b_}).has_value());      // dup
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_FALSE(net_.AddLeaf(vc->id, b_).has_value());                // dup leaf
  EXPECT_FALSE(net_.AddLeaf(vc->id + 999, c_).has_value());          // bad id
  EXPECT_FALSE(net_.RemoveLeaf(vc->id, c_));                         // not a leaf
  EXPECT_FALSE(net_.RemoveLeaf(vc->id, b_));                         // the last leaf
}

// A point-to-point VC is the one-leaf tree: a graft onto OpenVc(a, b)
// reserves only the edges it adds, and pruning it back leaves the VC as it
// was, still delivering to b.
TEST_F(NetworkFixture, GraftOntoPointToPointVcAndPruneBack) {
  const QosSpec q{20'000'000};
  auto vc = net_.OpenVc(a_, b_, q);
  ASSERT_TRUE(vc.has_value());
  const std::vector<Link*> original = *net_.VcLinks(vc->id);
  auto expect_one_reservation_per_edge = [&]() {
    const std::vector<Link*>& tree = *net_.VcLinks(vc->id);
    for (const auto& l : net_.links()) {
      const bool on_tree = std::count(tree.begin(), tree.end(), l.get()) > 0;
      EXPECT_LE(std::count(tree.begin(), tree.end(), l.get()), 1) << l->name();
      EXPECT_EQ(net_.ReservedBps(l.get()), on_tree ? q.peak_bps : 0) << l->name();
    }
  };

  ASSERT_TRUE(net_.AddLeaf(vc->id, c_).has_value());
  // a's uplink is shared; the trunk and c's downlink are new.
  EXPECT_EQ(net_.VcLinks(vc->id)->size(), original.size() + 2);
  EXPECT_EQ(net_.GetVc(vc->id)->hop_count, 2);
  expect_one_reservation_per_edge();

  int got_b = 0;
  int got_c = 0;
  MessageTransport bt(b_);
  MessageTransport ct(c_);
  bt.SetHandler(vc->destination_vci, [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  ct.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_c; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1});
  sim_.Run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);

  ASSERT_TRUE(net_.RemoveLeaf(vc->id, c_));
  EXPECT_EQ(*net_.VcLinks(vc->id), original);
  EXPECT_EQ(net_.GetVc(vc->id)->hop_count, 1);
  EXPECT_EQ(net_.GetVc(vc->id)->destination_vci, vc->destination_vci);
  expect_one_reservation_per_edge();
  at.Send(vc->source_vci, {2});
  sim_.Run();
  EXPECT_EQ(got_b, 2);
  EXPECT_EQ(got_c, 1);

  ASSERT_TRUE(net_.CloseVc(vc->id));
  for (const auto& l : net_.links()) {
    EXPECT_EQ(net_.ReservedBps(l.get()), 0) << l->name();
  }
}

// A leaf may be the source itself: the tree loops back through its switch
// (the same-host control duplex of a stream relies on it).
TEST_F(NetworkFixture, LoopbackLeafDelivers) {
  auto vc = net_.OpenVc(a_, {b_, a_}, QosSpec{10'000'000});
  ASSERT_TRUE(vc.has_value());
  auto loop_vci = net_.LeafVci(vc->id, a_);
  ASSERT_TRUE(loop_vci.has_value());
  EXPECT_EQ(net_.GetVc(vc->id)->hop_count, 1);

  int got_a = 0;
  int got_b = 0;
  MessageTransport at(a_);
  MessageTransport bt(b_);
  at.SetHandler(*loop_vci, [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_a; });
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  at.Send(vc->source_vci, {7});
  sim_.Run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 1);

  // a's uplink and downlink each carry the stream once.
  for (const auto& l : net_.links()) {
    const bool on_tree = l->name() == "a->sw1" || l->name() == "sw1->a" || l->name() == "sw1->b";
    EXPECT_EQ(net_.ReservedBps(l.get()), on_tree ? 10'000'000 : 0) << l->name();
  }
  ASSERT_TRUE(net_.RemoveLeaf(vc->id, a_));
  EXPECT_FALSE(net_.LeafVci(vc->id, a_).has_value());
  ASSERT_TRUE(net_.CloseVc(vc->id));
  for (const auto& l : net_.links()) {
    EXPECT_EQ(net_.ReservedBps(l.get()), 0) << l->name();
  }
}

TEST_F(NetworkFixture, MulticastQosUpdateScalesWholeTreeOnce) {
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  auto vc = net_.OpenVc(a_, {c_, d}, QosSpec{20'000'000});
  ASSERT_TRUE(vc.has_value());
  const Link* trunk = nullptr;
  for (const auto& l : net_.links()) {
    if (l->name() == "sw1->sw2") {
      trunk = l.get();
    }
  }
  ASSERT_NE(trunk, nullptr);
  ASSERT_TRUE(net_.UpdateVcQos(vc->id, QosSpec{40'000'000}));
  EXPECT_EQ(net_.ReservedBps(trunk), 40'000'000);
  ASSERT_TRUE(net_.UpdateVcQos(vc->id, QosSpec{5'000'000}));
  EXPECT_EQ(net_.ReservedBps(trunk), 5'000'000);
  net_.CloseVc(vc->id);
  EXPECT_EQ(net_.ReservedBps(trunk), 0);
}

// A VC as seen from outside, by value, so that VCs of two networks built
// alike compare: its tree links by id, its VCIs, rate and leaves.
struct VcShape {
  std::vector<int> links;
  Vci source_vci = kVciUnassigned;
  Vci destination_vci = kVciUnassigned;
  int hop_count = 0;
  int64_t peak_bps = 0;
  int leaf_count = 0;
  std::vector<std::optional<Vci>> leaf_vcis;  // per endpoint asked about

  bool operator==(const VcShape& o) const {
    return links == o.links && source_vci == o.source_vci &&
           destination_vci == o.destination_vci && hop_count == o.hop_count &&
           peak_bps == o.peak_bps && leaf_count == o.leaf_count && leaf_vcis == o.leaf_vcis;
  }
};

VcShape ShapeOf(const Network& net, VcId id, const std::vector<const Endpoint*>& endpoints) {
  VcShape shape;
  const VcDescriptor* desc = net.GetVc(id);
  const std::vector<Link*>* links = net.VcLinks(id);
  if (desc == nullptr || links == nullptr) {
    return shape;
  }
  for (const Link* l : *links) {
    shape.links.push_back(l->id());
  }
  shape.source_vci = desc->source_vci;
  shape.destination_vci = desc->destination_vci;
  shape.hop_count = desc->hop_count;
  shape.peak_bps = desc->qos.peak_bps;
  shape.leaf_count = net.LeafCount(id);
  for (const Endpoint* ep : endpoints) {
    shape.leaf_vcis.push_back(net.LeafVci(id, ep));
  }
  return shape;
}

// Closing a VC keeps its record for the next open. The closed id must then
// resolve to nothing anywhere, its congestion handler must be gone with it,
// and the VC built in the record must be the one a fresh network builds.
TEST_F(NetworkFixture, ClosedVcIdFindsNothingOnceItsRecordIsReused) {
  auto old_vc = net_.OpenVc(a_, c_, QosSpec{10'000'000});
  ASSERT_TRUE(old_vc.has_value());
  int old_fired = 0;
  net_.SetCongestionHandler(old_vc->id,
                            [&old_fired](VcId, const Link*, double) { ++old_fired; });
  ASSERT_TRUE(net_.CloseVc(old_vc->id));
  // The one spare record takes this open.
  auto vc = net_.OpenVc(b_, c_, QosSpec{20'000'000});
  ASSERT_TRUE(vc.has_value());
  ASSERT_NE(vc->id, old_vc->id);

  ExpectNoVc(old_vc->id, {a_, b_, c_});
  int stale_fired = 0;
  net_.SetCongestionHandler(old_vc->id,
                            [&stale_fired](VcId, const Link*, double) { ++stale_fired; });
  int live_fired = 0;
  net_.SetCongestionHandler(vc->id, [&live_fired](VcId, const Link*, double) { ++live_fired; });
  const Link* trunk = (*net_.VcLinks(vc->id))[1];
  ASSERT_EQ(trunk->name(), "sw1->sw2");  // the old VC crossed it too
  EXPECT_EQ(net_.SignalCongestion(trunk, 0.5), 1);
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(stale_fired, 0);
  EXPECT_EQ(live_fired, 1);
  EXPECT_EQ(net_.ReservedBps(trunk), 20'000'000);
  EXPECT_EQ(net_.open_vc_count(), 1);

  sim::Simulator fresh_sim;
  Network fresh(&fresh_sim);
  const Fabric f(fresh);
  auto want = fresh.OpenVc(f.b, f.c, QosSpec{20'000'000});
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(ShapeOf(net_, vc->id, {a_, b_, c_}), ShapeOf(fresh, want->id, {f.a, f.b, f.c}));
}

// The same when a unicast VC takes the record of a closed multicast tree:
// nothing of the tree's nodes, leaves or links survives into it.
TEST_F(NetworkFixture, UnicastVcInAClosedTreesRecordKeepsNoneOfTheTree) {
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  auto tree = net_.OpenVc(a_, {b_, c_, d}, QosSpec{10'000'000});
  ASSERT_TRUE(tree.has_value());
  int tree_fired = 0;
  net_.SetCongestionHandler(tree->id,
                            [&tree_fired](VcId, const Link*, double) { ++tree_fired; });
  ASSERT_TRUE(net_.CloseVc(tree->id));
  auto vc = net_.OpenVc(a_, c_, QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());

  ExpectNoVc(tree->id, {a_, b_, c_, d});
  EXPECT_EQ(net_.LeafCount(vc->id), 1);
  EXPECT_FALSE(net_.LeafVci(vc->id, b_).has_value());
  EXPECT_FALSE(net_.LeafVci(vc->id, d).has_value());
  int live_fired = 0;
  net_.SetCongestionHandler(vc->id, [&live_fired](VcId, const Link*, double) { ++live_fired; });
  const Link* trunk = (*net_.VcLinks(vc->id))[1];
  ASSERT_EQ(trunk->name(), "sw1->sw2");
  EXPECT_EQ(net_.SignalCongestion(trunk, 0.5), 1);
  EXPECT_EQ(tree_fired, 0);
  EXPECT_EQ(live_fired, 1);
  int64_t reserved = 0;
  for (const auto& l : net_.links()) {
    reserved += net_.ReservedBps(l.get());
  }
  EXPECT_EQ(reserved, 3 * 5'000'000);  // uplink, trunk, downlink

  sim::Simulator fresh_sim;
  Network fresh(&fresh_sim);
  const Fabric f(fresh);
  Endpoint* fresh_d = fresh.AddEndpoint("d", f.sw2, 1, 155'000'000);
  auto want = fresh.OpenVc(f.a, f.c, QosSpec{5'000'000});
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(ShapeOf(net_, vc->id, {a_, b_, c_, d}),
            ShapeOf(fresh, want->id, {f.a, f.b, f.c, fresh_d}));
}

TEST(WireTest, RoundTrip) {
  WireWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789ABCDE);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutString("hello");
  w.PutBytes({9, 8, 7});
  WireReader r(w.data());
  EXPECT_EQ(r.GetU8(), 0x12);
  EXPECT_EQ(r.GetU16(), 0x3456);
  EXPECT_EQ(r.GetU32(), 0x789ABCDEu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(r.GetBytes(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, ShortReadSetsBad) {
  WireWriter w;
  w.PutU16(7);
  WireReader r(w.data());
  r.GetU32();
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, TruncatedStringSetsBad) {
  WireWriter w;
  w.PutU32(1000);  // claims 1000 bytes, provides none
  WireReader r(w.data());
  EXPECT_TRUE(r.GetString().empty());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace pegasus::atm
