// Network endpoint: the attachment point of a device or host NIC.
//
// Cameras, displays, audio nodes, file servers and workstation NICs all
// attach to a switch port through an Endpoint. An endpoint owns nothing of
// the network; it hands cells to its uplink and receives trains of cells
// from its downlink, handing each whole train to its one registered handler
// (a device, a protocol stack, an RPC transport...).
#ifndef PEGASUS_SRC_ATM_ENDPOINT_H_
#define PEGASUS_SRC_ATM_ENDPOINT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/atm/cell.h"
#include "src/atm/link.h"
#include "src/atm/vci_allocator.h"
#include "src/sim/event_queue.h"

namespace pegasus::atm {

class Switch;

class Endpoint : public CellSink {
 public:
  // Receives each delivered train, one or more cells in arrival order, in
  // one call.
  using CellHandler = std::function<void(const Cell* cells, size_t count)>;

  Endpoint(sim::Simulator* sim, std::string name);

  const std::string& name() const { return name_; }
  // The simulator this endpoint paces and receives on. Under region
  // sharding this is the shard owning the attachment switch.
  sim::Simulator* simulator() const { return sim_; }

  // Wires this endpoint to the network (called by Network).
  void AttachUplink(Link* uplink) { uplink_ = uplink; }
  void AttachSwitch(Switch* sw, int port) {
    switch_ = sw;
    port_ = port;
  }
  Switch* attached_switch() const { return switch_; }
  int attached_port() const { return port_; }
  Link* uplink() const { return uplink_; }

  // Receives a train from the downlink and hands it to the handler.
  void DeliverBurst(const Cell* cells, size_t count) override;

  // Installs the endpoint's one consumer, replacing the previous owner: a
  // consumer that takes over the cell path (HostRelay, a raw tap) is the
  // only one that sees later trains.
  void set_cell_handler(CellHandler handler) { handler_ = std::move(handler); }

  // Sends one cell on the uplink. Returns false if the endpoint is detached
  // or the uplink queue is full.
  bool SendCell(Cell cell);

  // Convenience: AAL5-segments `sdu` and sends the cells. When `pace_bps` is
  // non-zero the cells ride a per-VC token-bucket shaper at that rate:
  // long-term each cell is budgeted one cell-slot of the paced rate, but the
  // shaper wakes once per burst window of kPaceBurstCells and emits the due
  // prefix of the train as ONE burst — one scheduled event per window
  // instead of one per cell. A cell never enters the uplink before the
  // instant the old per-cell shaper would have sent it, and the last cell of
  // a window (in particular every frame's end-of-frame cell that closes a
  // window) enters at exactly its per-cell instant. When `pace_bps` is zero
  // the frame is segmented straight into the outgoing train buffer and
  // offered to the uplink as one burst.
  void SendFrame(Vci vci, const std::vector<uint8_t>& sdu, int64_t pace_bps = 0);

  // Token-bucket depth of the paced path: the most cells one shaper wake may
  // emit back-to-back, and so the burst a paced VC can put on the wire.
  static constexpr size_t kPaceBurstCells = 32;

  // Incoming-VCI bookkeeping used by signalling: the terminating VCI of each
  // VC ending at this endpoint must be locally unique. Allocation takes the
  // lowest free VCI at or above kVciFirstData; releasing one that is not
  // held is a no-op.
  Vci AllocateIncomingVci() {
    const Vci vci = incoming_vcis_.LowestFree();
    incoming_vcis_.Hold(vci);
    return vci;
  }
  void ReleaseIncomingVci(Vci vci) { incoming_vcis_.Release(vci); }

  uint64_t cells_received() const { return cells_received_; }
  uint64_t cells_sent() const { return cells_sent_; }
  uint64_t next_seq() const { return next_seq_; }

 private:
  sim::Simulator* sim_;
  std::string name_;
  Link* uplink_ = nullptr;
  Switch* switch_ = nullptr;
  int port_ = -1;
  CellHandler handler_;
  VciAllocator incoming_vcis_;
  uint64_t cells_received_ = 0;
  uint64_t cells_sent_ = 0;
  uint64_t next_seq_ = 0;
  // Per-VC token-bucket shaper state. `horizon` is the pacing horizon: the
  // due instant of the next cell queued on that VC. `pending` holds cells
  // whose due instant is still in the future, drained a burst window at a
  // time by the armed wake event.
  struct PacedCell {
    sim::TimeNs due;
    Cell cell;
  };
  struct Pacer {
    sim::TimeNs horizon = 0;
    std::deque<PacedCell> pending;
    bool wake_armed = false;
  };
  // Emits the due prefix of `vci`'s pending cells as one burst.
  void DrainPacer(Vci vci, Pacer& pacer);
  // Schedules the next shaper wake: at the due instant of the last cell of
  // the next burst window, when that whole window is the due prefix.
  void ArmPacer(Vci vci, Pacer& pacer);

  std::map<Vci, Pacer> pacers_;
  // Reusable segmentation buffer: frames are cut straight into it and
  // offered to the uplink as one train, so SendFrame allocates nothing in
  // steady state.
  std::vector<Cell> tx_train_;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_ENDPOINT_H_
