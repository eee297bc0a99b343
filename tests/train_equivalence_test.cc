// Train-equivalence regression: the cell-train data plane must be
// stat-for-stat identical to the per-cell path it replaced. A reference
// model of the old per-cell link (explicit in-flight queue, per-cell
// tail-drop, per-priority counters, per-cell delivery times) is run side by
// side with the real Link over a flood scenario; counters, occupancy
// samples and delivered cell order must match exactly — and frame-level
// (end-of-frame cell) delivery times must be unchanged from the per-cell
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/atm/aal5.h"
#include "src/atm/cell.h"
#include "src/atm/link.h"
#include "src/atm/switch.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace pegasus::atm {
namespace {

// The pre-train per-cell link accounting, reimplemented standalone AND
// independently: the queue is an explicit list of in-flight completion
// times (the old engine counted a queued_ member up on accept and down at
// each per-cell done event — occupancy at time t was "accepted cells whose
// serialisation completes after t"). No busy-horizon arithmetic is shared
// with the Link under test, so a formula bug there cannot hide here.
class PerCellReference {
 public:
  PerCellReference(int64_t bps, sim::DurationNs prop, size_t queue_limit)
      : cell_time_(sim::TransmissionTime(kCellSize, bps)),
        prop_(prop),
        queue_limit_(queue_limit) {}

  // Offers a cell at `now`; mirrors the old per-cell Link::SendCell.
  bool Offer(const Cell& cell, sim::TimeNs now) {
    if (QueuedAt(now) >= queue_limit_) {
      ++(cell.low_priority ? dropped_low_ : dropped_high_);
      return false;
    }
    const sim::TimeNs start = std::max(now, tx_free_at_);
    tx_free_at_ = start + cell_time_;
    busy_time_ += cell_time_;
    ++sent_;
    in_flight_done_.push_back(tx_free_at_);
    delivered_.push_back({cell.seq, tx_free_at_ + prop_});
    return true;
  }

  // Counts the in-flight completion times after `now` — the decrement-at-
  // done-event bookkeeping of the per-cell engine, replayed lazily.
  size_t QueuedAt(sim::TimeNs now) const {
    while (!in_flight_done_.empty() && in_flight_done_.front() <= now) {
      in_flight_done_.pop_front();
    }
    return in_flight_done_.size();
  }

  struct Delivery {
    uint64_t seq;
    sim::TimeNs at;
  };
  const std::vector<Delivery>& delivered() const { return delivered_; }
  uint64_t sent() const { return sent_; }
  uint64_t dropped_high() const { return dropped_high_; }
  uint64_t dropped_low() const { return dropped_low_; }
  sim::DurationNs busy_time() const { return busy_time_; }

 private:
  sim::DurationNs cell_time_;
  sim::DurationNs prop_;
  size_t queue_limit_;
  sim::TimeNs tx_free_at_ = 0;
  uint64_t sent_ = 0;
  uint64_t dropped_high_ = 0;
  uint64_t dropped_low_ = 0;
  sim::DurationNs busy_time_ = 0;
  mutable std::deque<sim::TimeNs> in_flight_done_;
  std::vector<Delivery> delivered_;
};

class RecordingSink : public CellSink {
 public:
  explicit RecordingSink(sim::Simulator* sim) : sim_(sim) {}
  void DeliverBurst(const Cell* cells, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      cells_.push_back({cells[i], sim_->now()});
    }
  }
  struct Arrival {
    Cell cell;
    sim::TimeNs at;
  };
  const std::vector<Arrival>& cells() const { return cells_; }

 private:
  sim::Simulator* sim_;
  std::vector<Arrival> cells_;
};

// Floods a 10 Mb/s link far past its queue limit with mixed-priority
// bursts, sampling occupancy at fixed ticks; every counter and sample must
// match the per-cell reference exactly.
TEST(TrainEquivalence, FloodedLinkStatsMatchPerCellPath) {
  sim::Simulator sim;
  const int64_t kBps = 10'000'000;
  const sim::DurationNs kProp = sim::Microseconds(3);
  const size_t kLimit = 64;
  Link link(&sim, "l", kBps, kProp, kLimit);
  RecordingSink sink(&sim);
  link.set_sink(&sink);
  PerCellReference ref(kBps, kProp, kLimit);

  sim::Rng rng(7);
  uint64_t seq = 0;
  // 200 bursts of 1..80 cells at 0.5 ms spacing: alternating overload
  // (queue fills, tail-drops in both classes) and partial drain.
  for (int burst = 0; burst < 200; ++burst) {
    const sim::TimeNs at = burst * sim::Microseconds(500);
    const int n = static_cast<int>(rng.UniformInt(1, 80));
    sim.ScheduleAt(at, [&link, &ref, &rng, &sim, &seq, n]() {
      for (int i = 0; i < n; ++i) {
        Cell c;
        c.vci = 42;
        c.low_priority = rng.Bernoulli(0.5);
        c.seq = seq++;
        const bool accepted = link.SendCell(c);
        const bool ref_accepted = ref.Offer(c, sim.now());
        ASSERT_EQ(accepted, ref_accepted) << "admission diverged at seq " << c.seq;
      }
    });
  }
  // Occupancy sampled between bursts must match the reference formula.
  std::vector<std::pair<size_t, size_t>> occupancy;  // (link, reference)
  for (int tick = 0; tick < 400; ++tick) {
    const sim::TimeNs at = tick * sim::Microseconds(250) + sim::Microseconds(13);
    sim.ScheduleAt(at, [&link, &ref, &sim, &occupancy]() {
      occupancy.push_back({link.queued_cells(), ref.QueuedAt(sim.now())});
    });
  }
  sim.Run();

  EXPECT_EQ(link.cells_sent(), ref.sent());
  EXPECT_EQ(link.cells_dropped_high(), ref.dropped_high());
  EXPECT_EQ(link.cells_dropped_low(), ref.dropped_low());
  EXPECT_GT(link.cells_dropped(), 0u);  // the flood really overflowed
  EXPECT_EQ(link.busy_time(), ref.busy_time());
  for (const auto& [got, want] : occupancy) {
    EXPECT_EQ(got, want);
  }
  // Every accepted cell arrived, in order, and no later than the per-cell
  // path would have delivered the train's tail (batching may defer a cell
  // to its train's end, never past the last cell of its train).
  ASSERT_EQ(sink.cells().size(), ref.delivered().size());
  for (size_t i = 0; i < sink.cells().size(); ++i) {
    EXPECT_EQ(sink.cells()[i].cell.seq, ref.delivered()[i].seq);
    EXPECT_GE(sink.cells()[i].at, ref.delivered()[i].at);
  }
  // The snapshot agrees with the getters.
  const Link::StatsSnapshot stats = link.Stats();
  EXPECT_EQ(stats.cells_sent, ref.sent());
  EXPECT_EQ(stats.cells_dropped_high, ref.dropped_high());
  EXPECT_EQ(stats.cells_dropped_low, ref.dropped_low());
  EXPECT_EQ(stats.queued_cells, 0u);
}

// Frame-level timing invariant: a whole AAL5 frame sent back-to-back
// completes the link at exactly the per-cell path's last-cell time — the
// train only moves INTERIOR cell deliveries, never the end-of-frame cell.
TEST(TrainEquivalence, EndOfFrameTimingUnchanged) {
  sim::Simulator sim;
  const int64_t kBps = 100'000'000;
  const sim::DurationNs kProp = sim::Microseconds(10);
  Link link(&sim, "l", kBps, kProp, 1024);
  RecordingSink sink(&sim);
  link.set_sink(&sink);

  std::vector<uint8_t> sdu(1000);
  auto cells = Aal5Segment(7, sdu, 0, 0);
  ASSERT_EQ(cells.size(), 21u);
  for (const Cell& c : cells) {
    ASSERT_TRUE(link.SendCell(c));
  }
  sim.Run();

  ASSERT_EQ(sink.cells().size(), 21u);
  EXPECT_TRUE(sink.cells().back().cell.end_of_frame);
  // Per-cell path: cell i completes at (i+1) * cell_time; + propagation.
  const sim::DurationNs cell_time = link.cell_time();
  EXPECT_EQ(sink.cells().back().at, 21 * cell_time + kProp);
  // Reassembly succeeds on the train exactly as on per-cell arrivals.
  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const auto& a : sink.cells()) {
    out = r.Push(a.cell);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sdu);
}

// A switch in the middle must preserve the same equivalences: per-cell
// switched/unroutable counters and egress-side stats match a per-cell
// reference fed by the same arrivals.
TEST(TrainEquivalence, SwitchForwardingKeepsPerCellCounters) {
  sim::Simulator sim;
  Link ingress(&sim, "in", 50'000'000, sim::Microseconds(1), 2048);
  Link egress(&sim, "out", 10'000'000, sim::Microseconds(1), 32);
  Switch sw(&sim, "sw", 4, sim::Microseconds(1));
  ingress.set_sink(sw.input(0));
  sw.AttachOutput(1, &egress);
  sw.AddRoute(0, 40, 1, 77);
  sw.AddRoute(0, 41, 1, 78);
  RecordingSink sink(&sim);
  egress.set_sink(&sink);

  sim::Rng rng(11);
  uint64_t seq = 0;
  uint64_t unroutable_offered = 0;
  for (int burst = 0; burst < 60; ++burst) {
    const sim::TimeNs at = burst * sim::Microseconds(400);
    const int n = static_cast<int>(rng.UniformInt(4, 40));
    sim.ScheduleAt(at, [&, n]() {
      for (int i = 0; i < n; ++i) {
        Cell c;
        // Mixed VCIs within a burst exercise the relabel run-splitting; an
        // occasional unroutable VCI must be counted and skipped mid-train.
        const int64_t pick = rng.UniformInt(0, 19);
        c.vci = pick == 0 ? 99u : (pick % 2 == 0 ? 40u : 41u);
        c.low_priority = rng.Bernoulli(0.5);
        c.seq = seq++;
        if (c.vci == 99u) {
          ++unroutable_offered;
        }
        ingress.SendCell(c);
      }
    });
  }
  sim.Run();

  // Nothing was dropped on the fat ingress, so every cell reached the
  // fabric; the counters must account for every single one.
  EXPECT_EQ(ingress.cells_dropped(), 0u);
  EXPECT_EQ(sw.cells_unroutable(), unroutable_offered);
  EXPECT_EQ(sw.cells_switched(), ingress.cells_sent() - unroutable_offered);
  // Egress conservation: switched == delivered + tail-dropped, and the
  // narrow egress really dropped some.
  EXPECT_EQ(sw.cells_switched(), egress.cells_sent() + egress.cells_dropped());
  EXPECT_GT(egress.cells_dropped(), 0u);
  EXPECT_EQ(sink.cells().size(), egress.cells_sent());
  // Relabelling held per VCI, and per-VCI cell order survived the trains.
  std::vector<uint64_t> seq77;
  std::vector<uint64_t> seq78;
  for (const auto& a : sink.cells()) {
    ASSERT_TRUE(a.cell.vci == 77u || a.cell.vci == 78u);
    (a.cell.vci == 77u ? seq77 : seq78).push_back(a.cell.seq);
  }
  EXPECT_TRUE(std::is_sorted(seq77.begin(), seq77.end()));
  EXPECT_TRUE(std::is_sorted(seq78.begin(), seq78.end()));
}

// Span-ingest reassembly: chopping a mixed-VCI cell stream into arbitrary
// delivered trains and feeding boundary-free same-VC runs through
// IngestSpan (the transport's OnBurst strategy) must recover exactly the
// SDUs — and exactly the error counters — of the per-cell Push path,
// including resynchronisation after lost end-of-frame cells.
TEST(TrainEquivalence, SpanIngestReassemblyMatchesPerCellPath) {
  sim::Rng rng(23);
  // A long interleaved stream: frames on three VCIs, some with their
  // end-of-frame cell deleted. Frames are big enough that a lost EOF plus
  // the next frame overflows the reassembly buffer: the corruption surfaces
  // as BOTH mid-frame resyncs (length errors) and bad trailers (CRC
  // errors), and the span path must reproduce each count exactly.
  std::vector<Cell> stream;
  const Vci kVcis[] = {5, 9, 13};
  for (int frame = 0; frame < 120; ++frame) {
    const Vci vci = kVcis[rng.UniformInt(0, 2)];
    std::vector<uint8_t> sdu(static_cast<size_t>(rng.UniformInt(1, 40000)));
    for (auto& b : sdu) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    auto cells = Aal5Segment(vci, sdu, 0, 0);
    if (rng.Bernoulli(0.1)) {
      cells.pop_back();  // lost end-of-frame: the tail joins the next frame
    }
    stream.insert(stream.end(), cells.begin(), cells.end());
  }

  // Per-cell reference.
  std::map<Vci, Aal5Reassembler> ref;
  std::map<Vci, std::vector<std::vector<uint8_t>>> ref_sdus;
  for (const Cell& c : stream) {
    auto sdu = ref[c.vci].Push(c);
    if (sdu.has_value()) {
      ref_sdus[c.vci].push_back(*sdu);
    }
  }

  // Span path: random train boundaries, then the transport's run-splitting
  // — maximal boundary-free same-VC runs bulk-ingested, end-of-frame cells
  // pushed individually.
  std::map<Vci, Aal5Reassembler> span;
  std::map<Vci, std::vector<std::vector<uint8_t>>> span_sdus;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t train =
        std::min(stream.size() - pos, static_cast<size_t>(rng.UniformInt(1, 128)));
    const Cell* cells = stream.data() + pos;
    size_t i = 0;
    while (i < train) {
      const Vci vci = cells[i].vci;
      size_t j = i;
      while (j < train && cells[j].vci == vci && !cells[j].end_of_frame) {
        ++j;
      }
      if (j > i) {
        span[vci].IngestSpan(cells + i, j - i);
      }
      if (j < train && cells[j].vci == vci) {
        auto sdu = span[vci].Push(cells[j]);
        ++j;
        if (sdu.has_value()) {
          span_sdus[vci].push_back(*sdu);
        }
      }
      i = j;
    }
    pos += train;
  }

  // The span path must match the reference cell-for-cell: same SDUs, same
  // resync/CRC accounting.
  for (const Vci vci : kVcis) {
    EXPECT_EQ(span_sdus[vci], ref_sdus[vci]);
    EXPECT_EQ(span[vci].length_errors(), ref[vci].length_errors());
    EXPECT_EQ(span[vci].crc_errors(), ref[vci].crc_errors());
    EXPECT_EQ(span[vci].frames_ok(), ref[vci].frames_ok());
    EXPECT_GT(span[vci].frames_ok(), 0u);
  }
  // The lost end-of-frame cells really exercised both failure modes.
  uint64_t total_length_errors = 0;
  uint64_t total_crc_errors = 0;
  for (const Vci vci : kVcis) {
    total_length_errors += span[vci].length_errors();
    total_crc_errors += span[vci].crc_errors();
  }
  EXPECT_GT(total_length_errors, 0u);
  EXPECT_GT(total_crc_errors, 0u);
}

}  // namespace
}  // namespace pegasus::atm
