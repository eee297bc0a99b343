// Network assembly and signalling.
//
// A Network owns switches, links and endpoints, and implements the control
// plane the paper calls "the normal mechanism of ATM signalling" (§2.2):
// virtual circuits are established hop-by-hop with per-link admission
// control, and the routing-table updates are exactly the operations a
// device-managing workstation performs on its local switch.
//
// Every VC is a delivery tree: a root at the source's switch, one branch
// per tree edge, one leaf per sink. A point-to-point VC is the one-leaf
// tree, so open, graft, prune, renegotiation and teardown have one shape.
//
// Admission-plane fast path: each source switch with more than one
// neighbour keeps one shortest-path tree (a depth and the edge that reached
// it per switch), built lazily by a full BFS on the first resolve from that
// source and invalidated by a topology epoch; a route is read in one walk
// back from the destination. A switch with exactly one neighbour (such as
// a workstation's local switch) keeps no tree: a BFS from it reaches that
// neighbour first and then visits every other switch in the neighbour's own
// order, so its path is that edge plus the neighbour's tree path. The
// reservation ledger is a flat vector indexed by dense link id, and one hash
// table holds every open VC's state as flat vectors. A closed VC's record —
// its table node with the vectors' capacity — is kept for the next open, so
// a steady-state open or close allocates nothing. GetVc's and VcLinks'
// pointers stay valid until CloseVc (VcLinks' also until a graft or prune)
// and must not be kept past it: afterwards they alias a recycled record,
// not freed memory. VC ids are never reused, so a closed id finds nothing.
// An endpoint's switch, port and links are read from the endpoint itself.
// Congestion fan-out scans the VC table when a link is signalled, so opens
// and closes keep no per-link state. The BFS expands neighbours in
// deterministic switch-id (insertion) order, so equal-length paths
// tie-break identically across runs, and a full BFS assigns the same
// parents as one stopped at the destination — a tree path is exactly the
// per-pair BFS path. VCIs come from each input port's and each sink's
// lowest-free VciAllocator (src/atm/vci_allocator.h).
#ifndef PEGASUS_SRC_ATM_NETWORK_H_
#define PEGASUS_SRC_ATM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "src/atm/cell.h"
#include "src/atm/endpoint.h"
#include "src/atm/link.h"
#include "src/atm/switch.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard.h"

namespace pegasus::atm {

// Quality-of-service request for a virtual circuit. `peak_bps == 0` means
// best-effort (no reservation, never rejected by admission control).
struct QosSpec {
  int64_t peak_bps = 0;
};

// Identifier of an established VC, valid until CloseVc.
using VcId = int64_t;

// Where a VC enters and leaves the network, as seen by its endpoints.
struct VcDescriptor {
  VcId id = -1;
  Endpoint* source = nullptr;
  // The first leaf (the only one of a point-to-point VC).
  Endpoint* destination = nullptr;
  // VCI the source must stamp on outgoing cells.
  Vci source_vci = kVciUnassigned;
  // VCI the first leaf observes on delivered cells (LeafVci for the rest).
  Vci destination_vci = kVciUnassigned;
  QosSpec qos;
  // Switches the tree spans.
  int hop_count = 0;
};

// A resolved src->dst route: the ordered links a VC would traverse plus the
// one-way latency floor. One ResolveRoute serves an admission pass's
// bandwidth and latency checks.
struct ResolvedRoute {
  std::vector<Link*> links;
  sim::DurationNs latency_ns = 0;
};

class Network {
 public:
  explicit Network(sim::Simulator* sim);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator* simulator() const { return sim_; }

  // --- Region sharding (src/sim/shard.h) ---
  // Opts the network into sharded construction. Must be called before any
  // sharded topology is built. Thereafter SetBuildShard directs where new
  // switches live, endpoints are always co-located with their attachment
  // switch, and a ConnectSwitches spanning two shards automatically turns
  // both directed links into boundary channels with the link propagation
  // delay as lookahead. With no shard group (the default) everything lives
  // on the control simulator and behaviour is exactly the classic one.
  void EnableSharding(sim::ShardGroup* group) { shard_group_ = group; }
  sim::ShardGroup* shard_group() const { return shard_group_; }
  // Directs subsequent AddSwitch calls onto `shard` (nullptr = the control
  // simulator). Signalling, admission and route trees stay centralised on
  // the control simulator regardless.
  void SetBuildShard(sim::Simulator* shard) { build_sim_ = shard; }
  sim::Simulator* build_simulator() const { return build_sim_ != nullptr ? build_sim_ : sim_; }

  // --- Topology construction ---
  Switch* AddSwitch(const std::string& name, int num_ports,
                    sim::DurationNs fabric_delay = sim::Microseconds(1));
  // Creates an endpoint attached to `port` of `sw` by a full-duplex link pair.
  Endpoint* AddEndpoint(const std::string& name, Switch* sw, int port, int64_t link_bps,
                        sim::DurationNs propagation = sim::Microseconds(1));
  // Wires two switches together with a full-duplex link pair.
  void ConnectSwitches(Switch* a, int port_a, Switch* b, int port_b, int64_t link_bps,
                       sim::DurationNs propagation = sim::Microseconds(5));

  // --- Signalling ---
  // Establishes a unidirectional VC from `src` to `dst`: the one-leaf tree.
  // Returns nullopt when no path exists or admission control rejects the
  // reservation. `dst` may be `src` itself (a loopback through its switch).
  std::optional<VcDescriptor> OpenVc(Endpoint* src, Endpoint* dst, QosSpec qos = {});
  // Establishes a one-to-many VC: a shared delivery tree from `src` to every
  // sink, built as the union of the sinks' paths in the source switch's route
  // tree (one parent per switch, so the union IS a tree and insertion-id
  // tie-breaks carry over). Cells the source stamps with `source_vci` are
  // replicated once per tree BRANCH at each switch; the reservation is
  // charged once per tree edge, however many leaves share it. All-or-nothing:
  // an empty list or any unattached/unreachable/duplicate sink rejects the
  // whole open.
  std::optional<VcDescriptor> OpenVc(Endpoint* src, const std::vector<Endpoint*>& sinks,
                                     QosSpec qos = {});
  // Establishes a data VC plus a reverse control VC, as every Pegasus device
  // does (§2.2). first = forward/data, second = reverse/control.
  std::optional<std::pair<VcDescriptor, VcDescriptor>> OpenDuplex(Endpoint* src, Endpoint* dst,
                                                                  QosSpec data_qos = {},
                                                                  QosSpec control_qos = {});
  bool CloseVc(VcId id);
  // The open VC's descriptor, or nullptr for an unknown or closed id. Valid
  // until CloseVc(id).
  const VcDescriptor* GetVc(VcId id) const;

  // Grafts a further leaf onto an open VC: admission is checked on (and the
  // reservation charged for) only the links the graft newly adds. Returns the
  // leaf's incoming VCI, or nullopt on reject (unknown id, duplicate leaf,
  // no path, or insufficient bandwidth on the graft path).
  std::optional<Vci> AddLeaf(VcId id, Endpoint* leaf);
  // Prunes a leaf: branches no other leaf depends on are removed bottom-up,
  // their reservations released. Refuses to remove the LAST leaf — close the
  // VC with CloseVc instead (a leafless tree would strand the source VCI).
  bool RemoveLeaf(VcId id, Endpoint* leaf);
  int LeafCount(VcId id) const;
  // The incoming VCI `leaf` observes on an open VC, nullopt when the
  // endpoint is not currently a leaf.
  std::optional<Vci> LeafVci(VcId id, const Endpoint* leaf) const;

  // --- congestion signalling ---
  // Observer for congestion on any link the VC traverses. `severity` is the
  // fraction of the link's deliverable capacity that is gone, in (0, 1]:
  // reservations riding the link can only count on (1 - severity) of their
  // rate until the condition clears (severity 0 announces the clear for
  // that link). The link is handed through so observers spanning several
  // links can track each one's condition independently.
  using CongestionCallback =
      std::function<void(VcId vc, const Link* link, double severity)>;
  // At most one handler per VC; replaced on re-set, dropped on CloseVc.
  void SetCongestionHandler(VcId id, CongestionCallback callback);
  void ClearCongestionHandler(VcId id);
  // Announces congestion on `link` (an operator/driver event: a flapping
  // port, a policer kicking in). Every open VC traversing the link that has
  // a handler is notified, in ascending VcId (open order). Returns the
  // number of VCs notified.
  int SignalCongestion(const Link* link, double severity);
  // Re-negotiates the reservation of an open VC in place — the routes stay,
  // only the admission-control books change. An increase is checked against
  // the headroom of every traversed link; on failure the old reservation
  // stays and an admission rejection is counted.
  bool UpdateVcQos(VcId id, QosSpec qos);

  // Reserved bandwidth currently admitted on `link`, in bits per second.
  int64_t ReservedBps(const Link* link) const {
    const int id = link->id();
    return (id >= 0 && static_cast<size_t>(id) < reserved_bps_.size()) ? reserved_bps_[id] : 0;
  }
  // Unreserved capacity remaining on `link`, in bits per second.
  int64_t AvailableBandwidth(const Link* link) const {
    return link->bits_per_second() - ReservedBps(link);
  }
  // Resolves the route a VC from `src` to `dst` would take: ordered links
  // plus the one-way latency floor (propagation + one cell serialisation per
  // link, queueing excluded), in one route-tree walk. nullopt when either
  // endpoint is unattached or attached to another network, or no path
  // exists.
  std::optional<ResolvedRoute> ResolveRoute(const Endpoint* src, const Endpoint* dst) const;
  // The links an established VC traverses (its reservation applies to each,
  // once per tree edge), or nullptr for an unknown id. Valid until the VC is
  // closed or its tree changes.
  const std::vector<Link*>* VcLinks(VcId id) const;

  int64_t open_vc_count() const { return static_cast<int64_t>(vcs_.size()); }
  // Admission refusals, split by cause: a reservation that did not fit
  // (bandwidth) vs an unattached endpoint or unreachable destination
  // (no_path). admission_rejections() keeps the historical all-causes total.
  int64_t admission_rejections() const { return rejections_bandwidth_ + rejections_no_path_; }
  int64_t admission_rejections_bandwidth() const { return rejections_bandwidth_; }
  int64_t admission_rejections_no_path() const { return rejections_no_path_; }

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  // One switch of a VC's tree. nodes[0] is the root: the source's switch,
  // entered on the source's attachment port.
  struct TreeNode {
    Switch* sw = nullptr;
    int in_port = -1;
    Vci in_vci = kVciUnassigned;
    int parent = -1;       // index into nodes; -1 at the root
    int parent_port = -1;  // the parent's output port feeding this switch
    Link* link = nullptr;  // parent -> this switch; null at the root
    int refs = 0;          // leaves downstream; not kept at the root
  };
  // One leaf: a branch of nodes[node] delivering to an endpoint.
  struct TreeLeaf {
    Endpoint* endpoint = nullptr;
    Vci vci = kVciUnassigned;  // incoming VCI at the endpoint
    int node = -1;
    int port = -1;             // output port on nodes[node].sw
    Link* link = nullptr;      // switch -> endpoint
  };
  struct VcState {
    VcDescriptor desc;
    // Appended in graft order, so a parent always precedes its children and
    // one graft's new switches sit together, in path order.
    std::vector<TreeNode> nodes;
    std::vector<TreeLeaf> leaves;
    // Every tree edge once, in graft order; reservation bookkeeping applies
    // desc.qos.peak_bps to each (nothing when best-effort).
    std::vector<Link*> hop_links;
    // The VC's congestion observer; empty when none is set.
    CongestionCallback on_congestion;
  };
  // One directed switch-to-switch wire: everything VC installation needs
  // for one hop, and the switch it leaves for walking a route backwards.
  struct Edge {
    int from_id = -1;
    int to_id = -1;
    int out_port = -1;  // on the `from_id` switch
    int in_port = -1;   // on `to` (the reverse wire's port)
    Switch* to = nullptr;
    Link* link = nullptr;
  };
  // A switch-to-switch route read out of a route tree, one edge per hop in
  // path order. The edges live in the adjacency, so a path is read and used
  // within one signalling call; the caller owns the vector.
  using SwitchPath = std::vector<const Edge*>;
  // Shortest-path tree rooted at one source switch, per switch id: the hop
  // count of the deterministic BFS path from the root (0 at the root, -1
  // where unreachable) and the edge that first reached the switch on it
  // (null at the root and where unreachable). `epoch` is the topology epoch
  // it was built under; 0 means never built, and a tree's edges are valid
  // only under its own epoch.
  struct RouteTree {
    uint64_t epoch = 0;
    std::vector<int> depth;
    std::vector<const Edge*> via;
  };

  // The route tree rooted at switch `root_id`, rebuilt by a full BFS when it
  // was built under another topology epoch.
  const RouteTree& TreeFrom(int root_id) const;
  // Reads the path from `from` to `to` into `out`, one edge per hop: out of
  // from's route tree, or, when `from` has exactly one neighbour, that edge
  // and then the neighbour's tree path. `from` == `to` is the empty path and
  // reads no tree. False, with `out` unspecified, when either switch is null
  // or not this network's, or `to` is unreachable.
  bool ReadPath(const Switch* from, const Switch* to, SwitchPath* out) const;
  // Registers a freshly created link: assigns its dense id and grows the
  // flat ledgers.
  Link* RegisterLink(std::unique_ptr<Link> link);
  // The one tree open behind both OpenVc calls.
  std::optional<VcDescriptor> OpenTree(Endpoint* src, Endpoint* const* sinks, size_t count,
                                       QosSpec qos);
  // Plans grafting `count` leaves onto the tree `state.desc.source` roots
  // and admits the links the graft adds: appends the new switches, links and
  // leaf records (the root and the source's uplink first, on an empty tree)
  // without installing anything. On refusal the state is restored, the
  // rejection counted and false returned.
  bool PlanGraft(VcState& state, Endpoint* const* leaves, size_t count);
  // Plans one leaf (see PlanGraft); false, with the state untouched, when
  // the source or leaf is unattached or unreachable, the leaf's port already
  // carries a branch, or its path would enter a tree switch over a second
  // edge (only possible after a topology change mid-tree-life).
  bool PlanLeaf(VcState& state, Endpoint* leaf, SwitchPath* path) const;
  // Installs a planned graft — everything past the given sizes: allocates
  // VCIs and adds route branches leaf by leaf in graft order, counts each
  // leaf on its ancestors, and charges the new links. Must not fail.
  void CommitGraft(VcState& state, size_t first_node, size_t first_leaf, size_t first_link);
  // Removes a tree edge's reservation and hop_links slot.
  void UnchargeTreeLink(VcState& state, Link* link);

  VcState* FindVc(VcId id);
  const VcState* FindVc(VcId id) const;

  // Wires `link` as a shard-boundary channel when its two sides live on
  // different shards (no-op otherwise).
  void MaybeMakeBoundary(Link* link, sim::Simulator* src, sim::Simulator* dst);

  sim::Simulator* sim_;
  sim::ShardGroup* shard_group_ = nullptr;
  sim::Simulator* build_sim_ = nullptr;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  // Adjacency indexed by switch id; each row sorted by neighbour id so BFS
  // expansion order is the insertion order of switches, not heap addresses.
  std::vector<std::vector<Edge>> adjacency_;
  // Route trees indexed by root switch id, built only for the roots
  // ReadPath reads: a one-neighbour source reads its neighbour's.
  mutable std::vector<RouteTree> route_trees_;
  // Bumped by every topology mutation; a route tree built under another
  // epoch is rebuilt before it is read.
  uint64_t topology_epoch_ = 0;
  // Every open VC. Looked up by id; the one scan (congestion fan-out) sorts
  // the ids it collects, so hash order cannot leak into behaviour.
  using VcTable = std::unordered_map<VcId, VcState>;
  VcTable vcs_;
  // Closed (or refused) VCs' records, each a table node whose vectors keep
  // their capacity; the next open is built in one. Never more records than
  // were in use at once.
  std::vector<VcTable::node_type> spare_vcs_;
  // Reserved bits/s per link, indexed by link id — AvailableBandwidth on the
  // admission walk is a load, not a map lookup.
  std::vector<int64_t> reserved_bps_;
  VcId next_vc_id_ = 1;
  int64_t rejections_bandwidth_ = 0;
  int64_t rejections_no_path_ = 0;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_NETWORK_H_
