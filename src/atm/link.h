// Point-to-point ATM link model.
//
// A Link is unidirectional: cells handed to SendCell are serialised at the
// link rate, experience the propagation delay, and are delivered to the
// attached sink. The link keeps a bounded transmit queue and TAIL-DROPS:
// a cell arriving to a full queue is dropped regardless of its cell-loss
// priority bit (priority-aware discard would be a switch policy; the link
// itself is a dumb pipe). Drops are counted per priority class so an
// observer can weight the loss of reserved-class cells above best-effort
// ones when deriving congestion severity.
//
// Cell trains: back-to-back cells queued while the transmitter is busy are
// coalesced into a train and handed to the sink as ONE DeliverBurst — one
// scheduled event per train instead of two per cell. Every train, a lone
// cell included, reaches the sink through that one call, and delivery is
// always a scheduled event: a zero propagation delay is scheduled at the
// cut instant like any other delay. A train is CUT at
// serialisation completion: the event fires when the next end-of-frame cell
// (or the kMaxTrainCells-th cell of a raw stream) clears the transmitter,
// groups whatever has serialised by then, and the wire then adds pure
// propagation delay on top. A frame's completion instant — the latency
// media code can observe — is identical to the per-cell path; only interior
// cells move (to their frame's end). Cutting at serialisation completion
// rather than completion-plus-propagation matters for determinism: a shard
// boundary link's event cannot wait out the propagation delay (that delay
// IS its conservative lookahead), so the cut must never depend on cells
// sent during the propagation window. Admission (per-cell tail-drop), the
// split drop counters, cells_sent, busy_time and the queue-occupancy view
// are bit-identical to the per-cell path.
//
// A cut train stays in the link's buffer until it arrives, and the sink
// reads it there; no cell is copied on the way. A shard boundary link
// (src/sim/shard.h) differs only in who schedules the arrival: it posts the
// arrival time to its boundary channel, and the arrival then runs on the
// sink's shard.
#ifndef PEGASUS_SRC_ATM_LINK_H_
#define PEGASUS_SRC_ATM_LINK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/atm/cell.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard.h"
#include "src/sim/time.h"

namespace pegasus::atm {

// Anything that can accept cells: a switch input port, a device, a NIC.
class CellSink {
 public:
  virtual ~CellSink() = default;
  // A train of `count` >= 1 back-to-back cells that completed the link
  // together, in send order. A lone cell is a train of one.
  virtual void DeliverBurst(const Cell* cells, size_t count) = 0;
};

class Link {
 public:
  // `queue_limit` is the maximum number of accepted cells not yet clear of
  // the transmitter, the one being serialised included (see queued_cells).
  Link(sim::Simulator* sim, std::string name, int64_t bits_per_second,
       sim::DurationNs propagation_delay, size_t queue_limit = 1024);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_sink(CellSink* sink) { sink_ = sink; }
  CellSink* sink() const { return sink_; }
  // The simulator serialising this link's cells: the SOURCE side's shard.
  sim::Simulator* simulator() const { return sim_; }

  // Marks this link as a shard boundary (src/sim/shard.h): the sink lives
  // on `sink_sim`, another shard of `group`. Trains are cut at
  // serialisation completion either way; a boundary link posts each
  // arrival time, `now + propagation_delay`, to its channel instead of
  // scheduling a local arrival event — identical delivery instants and
  // grouping, with the propagation delay serving as the conservative
  // lookahead window.
  void SetBoundary(sim::ShardGroup* group, sim::Simulator* sink_sim);
  bool is_boundary() const { return boundary_ != nullptr; }

  // Enqueues a cell for transmission. Returns false (and counts a drop) if
  // the transmit queue is full.
  bool SendCell(const Cell& cell);

  // Offers a whole train of cells; equivalent to calling SendCell on each
  // (admission and tail-drop stay per-cell) but schedules at most one
  // delivery event. Returns the number of cells accepted.
  size_t SendBurst(const Cell* cells, size_t count);

  const std::string& name() const { return name_; }
  // Dense id assigned by the owning Network (its index in links()); -1 when
  // the link is free-standing. Admission bookkeeping indexes flat arrays by
  // it instead of hashing the pointer.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }
  int64_t bits_per_second() const { return bps_; }
  sim::DurationNs propagation_delay() const { return prop_delay_; }
  // Serialisation time of one 53-octet cell on this link.
  sim::DurationNs cell_time() const { return cell_time_; }

  uint64_t cells_sent() const { return cells_sent_; }
  uint64_t cells_dropped() const { return cells_dropped_high_ + cells_dropped_low_; }
  // Tail-drops split by the dropped cell's loss-priority bit.
  uint64_t cells_dropped_high() const { return cells_dropped_high_; }
  uint64_t cells_dropped_low() const { return cells_dropped_low_; }
  int64_t bytes_sent() const { return static_cast<int64_t>(cells_sent_) * kCellSize; }
  // Fraction of wall-clock time the transmitter has been busy, in [0, 1].
  double utilization() const;
  // Cells accepted but not yet clear of the transmitter. The transmitter
  // drains deterministically (one cell per cell_time until tx_free_at_), so
  // occupancy is computed from the busy horizon instead of counted per
  // delivery event — same trajectory, no bookkeeping on the hot path.
  size_t queued_cells() const;
  size_t queue_limit() const { return queue_limit_; }
  // Cumulative time the transmitter has spent busy since construction.
  sim::DurationNs busy_time() const { return busy_time_; }

  // Cheap copyable snapshot of the link's cumulative counters plus the
  // instantaneous queue state — a monitor diffs two snapshots to get the
  // per-interval drop/throughput deltas and interval utilisation.
  struct StatsSnapshot {
    uint64_t cells_sent = 0;
    uint64_t cells_dropped_high = 0;
    uint64_t cells_dropped_low = 0;
    size_t queued_cells = 0;
    size_t queue_limit = 0;
    sim::DurationNs busy_time = 0;
  };
  StatsSnapshot Stats() const {
    return StatsSnapshot{cells_sent_,    cells_dropped_high_, cells_dropped_low_,
                         queued_cells(), queue_limit_,        busy_time_};
  }

 private:
  // Ceiling on how many cells one delivery event may defer when a stream
  // never marks end-of-frame (raw floods): bounds the added latency of an
  // interior cell to kMaxTrainCells serialisation times.
  static constexpr size_t kMaxTrainCells = 128;

  // Number of accepted cells whose serialisation completes after `now`.
  size_t QueuedAt(sim::TimeNs now) const;
  // Schedules the next cut: at the first uncut end-of-frame cell's
  // completion, or the kMaxTrainCells-th uncut cell's, whichever is earlier.
  void ArmDelivery();
  // The cut event: groups the cells serialised by now into a train and
  // starts it down the wire.
  void DeliverReady();
  // The arrival at `at`: hands the oldest in-flight train to the sink. A
  // boundary link's arrival runs on the sink's shard.
  void Arrive(sim::TimeNs at);
  // Drops the prefix of cells_/done_ that has reached the sink.
  void CompactDelivered();

  sim::Simulator* sim_;
  std::string name_;

  int id_ = -1;
  int64_t bps_;
  sim::DurationNs prop_delay_;
  sim::DurationNs cell_time_;
  size_t queue_limit_;
  CellSink* sink_ = nullptr;
  sim::BoundaryChannel* boundary_ = nullptr;

  // The transmitter is modelled by a "busy until" horizon rather than an
  // explicit queue: each accepted cell reserves the next cell_time_ slot.
  sim::TimeNs tx_free_at_ = 0;
  uint64_t cells_sent_ = 0;
  uint64_t cells_dropped_high_ = 0;
  uint64_t cells_dropped_low_ = 0;
  sim::DurationNs busy_time_ = 0;

  // Every accepted cell from acceptance until it reaches the sink, in send
  // order, with the instant its serialisation completes. [head_, cut_) are
  // cut trains on the wire; [cut_, end) wait for their cut. A link's cut
  // times strictly increase and its propagation delay is constant, so its
  // arrivals fire in cut order and each takes the oldest train.
  std::vector<Cell> cells_;
  std::vector<sim::TimeNs> done_;
  size_t head_ = 0;  // first cell not yet at the sink
  size_t cut_ = 0;   // first cell not yet cut
  bool delivery_pending_ = false;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_LINK_H_
