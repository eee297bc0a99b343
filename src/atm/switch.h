// Fairisle-style ATM switch model.
//
// The paper's workstations control a local switch through which all media
// devices are connected (§2, Figure 1); the sites used the Fairisle switch in
// Cambridge and Rattlesnake in Twente. The model is an output-queued fabric:
// a cell arriving on an input port is looked up in that port's VCI table,
// relabelled, delayed by the fabric transit time, and handed to the output
// port's link. Cells with no route are counted and dropped — exactly what a
// Fairisle port controller does.
//
// The key architectural property exercised by experiments E03/F1: the
// switch's routing tables are manipulated by a *controlling workstation*
// (management software), but cells never touch that workstation's CPU.
#ifndef PEGASUS_SRC_ATM_SWITCH_H_
#define PEGASUS_SRC_ATM_SWITCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/atm/cell.h"
#include "src/atm/link.h"
#include "src/atm/vci_allocator.h"
#include "src/sim/event_queue.h"

namespace pegasus::atm {

class Switch {
 public:
  Switch(sim::Simulator* sim, std::string name, int num_ports,
         sim::DurationNs fabric_delay = sim::Microseconds(1));

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  const std::string& name() const { return name_; }
  // Dense id assigned by the owning Network in insertion order; -1 when the
  // switch is free-standing. Pathfinding tie-breaks and adjacency indexing
  // use it so route selection is independent of heap addresses.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }
  int num_ports() const { return static_cast<int>(inputs_.size()); }
  // The simulator this switch schedules its fabric transits on. Under
  // region sharding (src/sim/shard.h) this is the owning shard's clock.
  sim::Simulator* simulator() const { return sim_; }

  // The sink incoming links should deliver into for a given port.
  CellSink* input(int port);

  // Attaches the outgoing link of `port`. The switch does not own the link.
  void AttachOutput(int port, Link* link);
  Link* output(int port) const { return outputs_[static_cast<size_t>(port)]; }

  // Routing-table management — this is the interface the controlling
  // workstation's management domain uses (ATM signalling terminates there).
  // Returns false if the (in_port, in_vci) entry already exists.
  bool AddRoute(int in_port, Vci in_vci, int out_port, Vci out_vci);
  bool RemoveRoute(int in_port, Vci in_vci);
  bool HasRoute(int in_port, Vci in_vci) const;

  // --- point-to-multipoint entries ---
  // Grafts a further branch onto an existing (in_port, in_vci) entry: cells
  // arriving there are thereafter replicated to `out_port` as well, once per
  // distinct output port — the Fairisle port controller copies a cell into
  // each subscribed output FIFO, never once per downstream leaf. Returns
  // false when the entry does not exist or already branches to `out_port`.
  bool AddRouteTarget(int in_port, Vci in_vci, int out_port, Vci out_vci);
  // Prunes the branch to `out_port` alone; the entry (and its VCI) stays
  // live while other branches remain. Removing the last branch removes the
  // entry. Returns false when no such branch exists.
  bool RemoveRouteTarget(int in_port, Vci in_vci, int out_port);
  // Number of output branches of an entry (0 = no entry, 1 = unicast).
  int RouteTargetCount(int in_port, Vci in_vci) const;

  // The lowest VCI at or above kVciFirstData with no entry on the given
  // *input* port, read from the port's VciAllocator (one word of its bitmap).
  // It stays free until AddRoute takes it, so asking again first returns the
  // same VCI. Pruning one branch of a multicast entry keeps its VCI held;
  // only an entry's removal frees it.
  Vci AllocateVci(int in_port) const {
    return vcis_[static_cast<size_t>(in_port)].LowestFree();
  }

  uint64_t cells_switched() const { return cells_switched_; }
  uint64_t cells_unroutable() const { return cells_unroutable_; }

 private:
  // One output branch of a route entry; out_port < 0 marks an empty slot.
  struct RouteTarget {
    int out_port = -1;
    Vci out_vci = kVciUnassigned;
  };
  // An entry in a port's flat VCI table. Unicast entries — the overwhelming
  // majority — live entirely in `primary` (no heap, same two loads on the
  // hot path as before); multicast entries keep their further branches in
  // `extra`, in graft order, each a distinct output port.
  struct RouteEntry {
    RouteTarget primary;
    std::vector<RouteTarget> extra;
    bool empty() const { return primary.out_port < 0; }
    bool unicast() const { return extra.empty(); }
  };
  // VCIs are allocated densely from kVciFirstData (AllocateVci hands out
  // the first free one), so a flat per-port vector indexed by VCI stays
  // small; the ceiling only guards against a wild AddRoute allocating
  // gigabytes. Lookup on the cell hot path is two loads, no tree walk.
  static constexpr Vci kMaxRoutableVci = 1u << 20;

  // Adapter delivering into the fabric with the input-port tag attached.
  class InputPort : public CellSink {
   public:
    InputPort(Switch* parent, int port) : parent_(parent), port_(port) {}
    void DeliverBurst(const Cell* cells, size_t count) override {
      parent_->OnBurst(port_, cells, count);
    }

   private:
    Switch* parent_;
    int port_;
  };

  // Routes a train in one pass: consecutive cells bound for the same output
  // link are relabelled together and cross the fabric as ONE scheduled
  // event. A multicast entry's run is replicated once per branch (distinct
  // output ports by construction), still one relabel pass per branch. Per-
  // cell stats count every copy switched.
  void OnBurst(int in_port, const Cell* cells, size_t count);
  // Closes the run of `count` cells just relabelled onto the fabric: it
  // crosses to `out` as one event.
  void EnterFabric(Link* out, size_t count);
  // The fabric-transit event: hands the oldest run to its output link.
  void Cross();
  const RouteEntry* Lookup(int in_port, Vci vci) const {
    const auto& table = routes_[static_cast<size_t>(in_port)];
    if (vci >= table.size() || table[vci].empty()) {
      return nullptr;
    }
    return &table[vci];
  }

  sim::Simulator* sim_;
  std::string name_;
  int id_ = -1;
  sim::DurationNs fabric_delay_;
  std::vector<std::unique_ptr<InputPort>> inputs_;
  std::vector<Link*> outputs_;
  // Flat per-input-port VCI tables (see kMaxRoutableVci).
  std::vector<std::vector<RouteEntry>> routes_;
  // The fabric: every relabelled run still crossing, oldest first — its
  // cells back to back in fabric_cells_ from cell_head_, one record per run
  // in fabric_runs_ from run_head_. The fabric delay is constant (set only
  // in the constructor), so runs leave in the order they entered.
  struct FabricRun {
    Link* out;
    size_t count;
  };
  std::vector<Cell> fabric_cells_;
  std::vector<FabricRun> fabric_runs_;
  size_t cell_head_ = 0;
  size_t run_head_ = 0;
  // Per-input-port data VCIs that have an entry: held by AddRoute, released
  // by RemoveRoute (directly or as the last branch's prune).
  std::vector<VciAllocator> vcis_;
  uint64_t cells_switched_ = 0;
  uint64_t cells_unroutable_ = 0;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_SWITCH_H_
