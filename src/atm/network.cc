#include "src/atm/network.h"

#include <algorithm>
#include <cassert>

namespace pegasus::atm {

namespace {

// The link carrying cells from an attached endpoint's switch to it.
Link* Downlink(const Endpoint* ep) { return ep->attached_switch()->output(ep->attached_port()); }

}  // namespace

Network::Network(sim::Simulator* sim) : sim_(sim) {}

Network::~Network() = default;

void Network::MaybeMakeBoundary(Link* link, sim::Simulator* src, sim::Simulator* dst) {
  if (src == dst) {
    return;
  }
  // Two sides on different simulators only happens under sharded
  // construction; anything else is a wiring bug.
  assert(shard_group_ != nullptr);
  link->SetBoundary(shard_group_, dst);
}

Switch* Network::AddSwitch(const std::string& name, int num_ports, sim::DurationNs fabric_delay) {
  switches_.push_back(std::make_unique<Switch>(build_simulator(), name, num_ports, fabric_delay));
  Switch* sw = switches_.back().get();
  sw->set_id(static_cast<int>(switches_.size()) - 1);
  adjacency_.emplace_back();
  route_trees_.emplace_back();
  ++topology_epoch_;
  return sw;
}

Link* Network::RegisterLink(std::unique_ptr<Link> link) {
  link->set_id(static_cast<int>(links_.size()));
  links_.push_back(std::move(link));
  reserved_bps_.push_back(0);
  return links_.back().get();
}

Endpoint* Network::AddEndpoint(const std::string& name, Switch* sw, int port, int64_t link_bps,
                               sim::DurationNs propagation) {
  // Endpoints are co-located with their attachment switch: a host NIC, a
  // device or a storage server always lives on the shard owning its local
  // switch, so the attachment link pair is never a shard boundary.
  sim::Simulator* shard = sw->simulator();
  endpoints_.push_back(std::make_unique<Endpoint>(shard, name));
  Endpoint* ep = endpoints_.back().get();

  Link* up = RegisterLink(
      std::make_unique<Link>(shard, name + "->" + sw->name(), link_bps, propagation));
  Link* down = RegisterLink(
      std::make_unique<Link>(shard, sw->name() + "->" + name, link_bps, propagation));

  up->set_sink(sw->input(port));
  down->set_sink(ep);
  ep->AttachUplink(up);
  ep->AttachSwitch(sw, port);
  sw->AttachOutput(port, down);
  ++topology_epoch_;
  return ep;
}

void Network::ConnectSwitches(Switch* a, int port_a, Switch* b, int port_b, int64_t link_bps,
                              sim::DurationNs propagation) {
  // Each directed link serialises on its SOURCE switch's shard; when the
  // two switches live on different shards the pair becomes a boundary
  // channel with the propagation delay as its lookahead.
  Link* ab = RegisterLink(
      std::make_unique<Link>(a->simulator(), a->name() + "->" + b->name(), link_bps, propagation));
  Link* ba = RegisterLink(
      std::make_unique<Link>(b->simulator(), b->name() + "->" + a->name(), link_bps, propagation));

  ab->set_sink(b->input(port_b));
  ba->set_sink(a->input(port_a));
  MaybeMakeBoundary(ab, a->simulator(), b->simulator());
  MaybeMakeBoundary(ba, b->simulator(), a->simulator());
  a->AttachOutput(port_a, ab);
  b->AttachOutput(port_b, ba);

  auto insert_edge = [this](Switch* s, Switch* t, int out_port, int in_port, Link* l) {
    auto& row = adjacency_[static_cast<size_t>(s->id())];
    const Edge edge{s->id(), t->id(), out_port, in_port, t, l};
    auto it = std::lower_bound(row.begin(), row.end(), edge.to_id,
                               [](const Edge& e, int id) { return e.to_id < id; });
    if (it != row.end() && it->to_id == edge.to_id) {
      *it = edge;  // re-wiring two already-adjacent switches replaces the edge
    } else {
      row.insert(it, edge);
    }
  };
  insert_edge(a, b, port_a, port_b, ab);
  insert_edge(b, a, port_b, port_a, ba);
  ++topology_epoch_;
}

const Network::RouteTree& Network::TreeFrom(int root_id) const {
  RouteTree& tree = route_trees_[static_cast<size_t>(root_id)];
  if (tree.epoch == topology_epoch_) {
    return tree;
  }
  // Breadth-first over switch ids, run to completion; each adjacency row is
  // sorted by neighbour id, so equal-length paths tie-break by insertion
  // order — never by heap address. A switch's edge is fixed the moment it
  // is first reached, so stopping at any destination would have assigned
  // that destination's ancestors exactly the same edges.
  const size_t n = adjacency_.size();
  tree.epoch = topology_epoch_;
  tree.depth.assign(n, -1);
  tree.via.assign(n, nullptr);
  std::vector<int> frontier;
  frontier.reserve(n);
  tree.depth[static_cast<size_t>(root_id)] = 0;
  frontier.push_back(root_id);
  for (size_t head = 0; head < frontier.size(); ++head) {
    const int cur = frontier[head];
    for (const Edge& e : adjacency_[static_cast<size_t>(cur)]) {
      if (tree.depth[static_cast<size_t>(e.to_id)] < 0) {
        tree.depth[static_cast<size_t>(e.to_id)] = tree.depth[static_cast<size_t>(cur)] + 1;
        tree.via[static_cast<size_t>(e.to_id)] = &e;
        frontier.push_back(e.to_id);
      }
    }
  }
  return tree;
}

bool Network::ReadPath(const Switch* from, const Switch* to, SwitchPath* out) const {
  if (from == nullptr || to == nullptr) {
    return false;
  }
  const int n = static_cast<int>(switches_.size());
  const int from_id = from->id();
  const int to_id = to->id();
  if (from_id < 0 || from_id >= n || to_id < 0 || to_id >= n ||
      switches_[static_cast<size_t>(from_id)].get() != from ||
      switches_[static_cast<size_t>(to_id)].get() != to) {
    return false;
  }
  if (from_id == to_id) {
    out->clear();
    return true;
  }
  // A switch with one neighbour keeps no tree of its own: its BFS reaches
  // that neighbour first and then every other switch in the order the
  // neighbour's BFS does, so its path is the one edge followed by the
  // neighbour's tree path (which never comes back through `from`).
  const std::vector<Edge>& row = adjacency_[static_cast<size_t>(from_id)];
  const Edge* first = row.size() == 1 ? &row.front() : nullptr;
  const RouteTree& tree = TreeFrom(first != nullptr ? first->to_id : from_id);
  const int depth = tree.depth[static_cast<size_t>(to_id)];
  if (depth < 0) {
    return false;
  }
  // One walk dst -> tree root, filling the hops from the back so they come
  // out in src -> dst order.
  const size_t lead = first != nullptr ? 1 : 0;
  out->resize(lead + static_cast<size_t>(depth));
  int s = to_id;
  for (size_t d = out->size(); d > lead; --d) {
    const Edge* hop = tree.via[static_cast<size_t>(s)];
    (*out)[d - 1] = hop;
    s = hop->from_id;
  }
  if (first != nullptr) {
    (*out)[0] = first;
  }
  return true;
}

std::optional<ResolvedRoute> Network::ResolveRoute(const Endpoint* src,
                                                   const Endpoint* dst) const {
  // Read into reused scratch: it holds nothing between calls.
  thread_local SwitchPath path;
  if (src == nullptr || dst == nullptr ||
      !ReadPath(src->attached_switch(), dst->attached_switch(), &path)) {
    return std::nullopt;
  }
  ResolvedRoute route;
  route.links.reserve(path.size() + 2);
  route.links.push_back(src->uplink());
  for (const Edge* hop : path) {
    route.links.push_back(hop->link);
  }
  route.links.push_back(Downlink(dst));
  for (const Link* l : route.links) {
    route.latency_ns += l->propagation_delay() + l->cell_time();
  }
  return route;
}

Network::VcState* Network::FindVc(VcId id) {
  auto it = vcs_.find(id);
  return it == vcs_.end() ? nullptr : &it->second;
}

const Network::VcState* Network::FindVc(VcId id) const {
  auto it = vcs_.find(id);
  return it == vcs_.end() ? nullptr : &it->second;
}

const std::vector<Link*>* Network::VcLinks(VcId id) const {
  const VcState* state = FindVc(id);
  return state == nullptr ? nullptr : &state->hop_links;
}

std::optional<VcDescriptor> Network::OpenVc(Endpoint* src, Endpoint* dst, QosSpec qos) {
  return OpenTree(src, &dst, 1, qos);
}

std::optional<VcDescriptor> Network::OpenVc(Endpoint* src, const std::vector<Endpoint*>& sinks,
                                            QosSpec qos) {
  return OpenTree(src, sinks.data(), sinks.size(), qos);
}

std::optional<VcDescriptor> Network::OpenTree(Endpoint* src, Endpoint* const* sinks,
                                              size_t count, QosSpec qos) {
  if (count == 0) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  // The open is built in a spare record, else a new one: the table makes the
  // node under next_vc_id_, which no open VC holds, and hands it straight
  // back.
  VcTable::node_type record;
  if (spare_vcs_.empty()) {
    record = vcs_.extract(vcs_.try_emplace(next_vc_id_).first);
  } else {
    record = std::move(spare_vcs_.back());
    spare_vcs_.pop_back();
  }
  VcState& state = record.mapped();
  state.desc = VcDescriptor{};
  state.desc.source = src;
  state.desc.qos = qos;
  state.nodes.clear();
  state.leaves.clear();
  state.hop_links.clear();
  // Dry pass first: an unattached source, any bad sink or a full link
  // rejects the whole open before a single route is touched.
  if (!PlanGraft(state, sinks, count)) {
    spare_vcs_.push_back(std::move(record));
    return std::nullopt;
  }
  state.desc.id = next_vc_id_++;
  TreeNode& root = state.nodes.front();
  root.in_vci = root.sw->AllocateVci(root.in_port);
  state.desc.source_vci = root.in_vci;
  CommitGraft(state, 1, 0, 0);
  state.desc.destination = state.leaves.front().endpoint;
  state.desc.destination_vci = state.leaves.front().vci;
  record.key() = state.desc.id;
  return vcs_.insert(std::move(record)).position->second.desc;
}

bool Network::PlanGraft(VcState& state, Endpoint* const* leaves, size_t count) {
  const size_t nodes = state.nodes.size();
  const size_t leaf_count = state.leaves.size();
  const size_t links = state.hop_links.size();
  auto refuse = [&](int64_t* counter) {
    state.nodes.resize(nodes);
    state.leaves.resize(leaf_count);
    state.hop_links.resize(links);
    ++*counter;
    return false;
  };
  thread_local SwitchPath path;  // reused scratch, as in ResolveRoute
  for (size_t i = 0; i < count; ++i) {
    if (!PlanLeaf(state, leaves[i], &path)) {
      return refuse(&rejections_no_path_);
    }
  }
  // Each tree edge carries ONE copy of the stream, so only the links this
  // graft adds face admission; everything upstream is already reserved.
  const int64_t bps = state.desc.qos.peak_bps;
  if (bps > 0) {
    for (size_t i = links; i < state.hop_links.size(); ++i) {
      const Link* l = state.hop_links[i];
      if (ReservedBps(l) + bps > l->bits_per_second()) {
        return refuse(&rejections_bandwidth_);
      }
    }
  }
  return true;
}

bool Network::PlanLeaf(VcState& state, Endpoint* leaf, SwitchPath* path) const {
  const Endpoint* source = state.desc.source;
  if (source == nullptr || leaf == nullptr ||
      !ReadPath(source->attached_switch(), leaf->attached_switch(), path)) {
    return false;
  }
  auto find_node = [&state](const Switch* sw) {
    for (size_t n = 0; n < state.nodes.size(); ++n) {
      if (state.nodes[n].sw == sw) {
        return static_cast<int>(n);
      }
    }
    return -1;
  };
  // Follow the tree while the path agrees with it; every switch past that
  // point must be new, or it would gain a second incoming edge.
  const SwitchPath& hops = *path;
  int cur = 0;
  size_t shared = 0;
  for (; shared < hops.size(); ++shared) {
    const int next = find_node(hops[shared]->to);
    if (next < 0) {
      break;
    }
    if (state.nodes[static_cast<size_t>(next)].parent != cur ||
        state.nodes[static_cast<size_t>(next)].parent_port != hops[shared]->out_port) {
      return false;
    }
    cur = next;
  }
  for (size_t h = shared; h < hops.size(); ++h) {
    if (find_node(hops[h]->to) >= 0) {
      return false;
    }
  }
  const int leaf_port = leaf->attached_port();
  for (const TreeLeaf& other : state.leaves) {
    if (other.node == cur && other.port == leaf_port) {
      return false;
    }
  }
  if (state.nodes.empty()) {
    // The first leaf roots the tree at the source's switch, sized once.
    state.nodes.reserve(1 + hops.size());
    state.hop_links.reserve(2 + hops.size());
    TreeNode root;
    root.sw = source->attached_switch();
    root.in_port = source->attached_port();
    state.nodes.push_back(root);
    state.hop_links.push_back(source->uplink());
  }
  for (size_t h = shared; h < hops.size(); ++h) {
    TreeNode node;
    node.sw = hops[h]->to;
    node.in_port = hops[h]->in_port;
    node.parent = cur;
    node.parent_port = hops[h]->out_port;
    node.link = hops[h]->link;
    state.nodes.push_back(node);
    state.hop_links.push_back(hops[h]->link);
    cur = static_cast<int>(state.nodes.size()) - 1;
  }
  Link* down = Downlink(leaf);
  state.leaves.push_back(TreeLeaf{leaf, kVciUnassigned, cur, leaf_port, down});
  state.hop_links.push_back(down);
  return true;
}

void Network::CommitGraft(VcState& state, size_t first_node, size_t first_leaf,
                          size_t first_link) {
  // A route entry gains its first branch with AddRoute, later ones with
  // AddRouteTarget; branch order is graft order, which is the replication
  // order at every switch.
  auto add_branch = [](const TreeNode& from, int out_port, Vci out_vci) {
    if (!from.sw->AddRoute(from.in_port, from.in_vci, out_port, out_vci)) {
      from.sw->AddRouteTarget(from.in_port, from.in_vci, out_port, out_vci);
    }
  };
  size_t next = first_node;
  for (size_t k = first_leaf; k < state.leaves.size(); ++k) {
    TreeLeaf& leaf = state.leaves[k];
    // This leaf's new switches, if any, end at its own node.
    for (; next <= static_cast<size_t>(leaf.node); ++next) {
      TreeNode& node = state.nodes[next];
      // The VCI on the inbound link is whatever is free on that input port.
      node.in_vci = node.sw->AllocateVci(node.in_port);
      add_branch(state.nodes[static_cast<size_t>(node.parent)], node.parent_port, node.in_vci);
    }
    leaf.vci = leaf.endpoint->AllocateIncomingVci();
    add_branch(state.nodes[static_cast<size_t>(leaf.node)], leaf.port, leaf.vci);
    for (int n = leaf.node; n > 0; n = state.nodes[static_cast<size_t>(n)].parent) {
      ++state.nodes[static_cast<size_t>(n)].refs;
    }
  }
  if (state.desc.qos.peak_bps > 0) {
    for (size_t i = first_link; i < state.hop_links.size(); ++i) {
      reserved_bps_[static_cast<size_t>(state.hop_links[i]->id())] += state.desc.qos.peak_bps;
    }
  }
  state.desc.hop_count = static_cast<int>(state.nodes.size());
}

std::optional<std::pair<VcDescriptor, VcDescriptor>> Network::OpenDuplex(Endpoint* src,
                                                                         Endpoint* dst,
                                                                         QosSpec data_qos,
                                                                         QosSpec control_qos) {
  auto data = OpenVc(src, dst, data_qos);
  if (!data.has_value()) {
    return std::nullopt;
  }
  auto control = OpenVc(dst, src, control_qos);
  if (!control.has_value()) {
    CloseVc(data->id);
    return std::nullopt;
  }
  return std::make_pair(*data, *control);
}

bool Network::CloseVc(VcId id) {
  auto it = vcs_.find(id);
  if (it == vcs_.end()) {
    return false;
  }
  VcState& state = it->second;
  // Every tree switch has one entry; RemoveRoute drops all its branches.
  for (const TreeNode& node : state.nodes) {
    node.sw->RemoveRoute(node.in_port, node.in_vci);
  }
  for (const TreeLeaf& leaf : state.leaves) {
    leaf.endpoint->ReleaseIncomingVci(leaf.vci);
  }
  if (state.desc.qos.peak_bps > 0) {
    for (Link* l : state.hop_links) {
      reserved_bps_[static_cast<size_t>(l->id())] -= state.desc.qos.peak_bps;
    }
  }
  // The record waits for the next open; its handler, and whatever that
  // captures, goes with the VC.
  state.on_congestion = nullptr;
  spare_vcs_.push_back(vcs_.extract(it));
  return true;
}

void Network::UnchargeTreeLink(VcState& state, Link* link) {
  if (state.desc.qos.peak_bps > 0) {
    reserved_bps_[static_cast<size_t>(link->id())] -= state.desc.qos.peak_bps;
  }
  auto lpos = std::find(state.hop_links.begin(), state.hop_links.end(), link);
  if (lpos != state.hop_links.end()) {
    state.hop_links.erase(lpos);
  }
}

std::optional<Vci> Network::AddLeaf(VcId id, Endpoint* leaf) {
  VcState* state = FindVc(id);
  if (state == nullptr || LeafVci(id, leaf).has_value()) {
    return std::nullopt;
  }
  const size_t nodes = state->nodes.size();
  const size_t leaves = state->leaves.size();
  const size_t links = state->hop_links.size();
  if (!PlanGraft(*state, &leaf, 1)) {
    return std::nullopt;
  }
  CommitGraft(*state, nodes, leaves, links);
  return state->leaves.back().vci;
}

bool Network::RemoveLeaf(VcId id, Endpoint* leaf) {
  VcState* found = FindVc(id);
  if (found == nullptr || found->leaves.size() <= 1) {
    return false;  // the last leaf comes off via CloseVc
  }
  VcState& state = *found;
  auto leaf_it = std::find_if(state.leaves.begin(), state.leaves.end(),
                              [leaf](const TreeLeaf& l) { return l.endpoint == leaf; });
  if (leaf_it == state.leaves.end()) {
    return false;
  }
  const TreeLeaf gone = *leaf_it;
  state.leaves.erase(leaf_it);
  const TreeNode& at = state.nodes[static_cast<size_t>(gone.node)];
  at.sw->RemoveRouteTarget(at.in_port, at.in_vci, gone.port);
  UnchargeTreeLink(state, gone.link);
  gone.endpoint->ReleaseIncomingVci(gone.vci);
  for (int n = gone.node; n > 0; n = state.nodes[static_cast<size_t>(n)].parent) {
    --state.nodes[static_cast<size_t>(n)].refs;
  }
  // Prune bottom-up: a switch no leaf depends on any more loses its branch;
  // upstream branches survive while any other leaf still rides them.
  for (int n = gone.node; n > 0 && state.nodes[static_cast<size_t>(n)].refs == 0;) {
    const TreeNode dead = state.nodes[static_cast<size_t>(n)];
    const TreeNode& parent = state.nodes[static_cast<size_t>(dead.parent)];
    parent.sw->RemoveRouteTarget(parent.in_port, parent.in_vci, dead.parent_port);
    UnchargeTreeLink(state, dead.link);
    // Parents precede children, so only indices above n shift.
    state.nodes.erase(state.nodes.begin() + n);
    for (TreeNode& node : state.nodes) {
      node.parent -= node.parent > n ? 1 : 0;
    }
    for (TreeLeaf& l : state.leaves) {
      l.node -= l.node > n ? 1 : 0;
    }
    n = dead.parent;
  }
  state.desc.destination = state.leaves.front().endpoint;
  state.desc.destination_vci = state.leaves.front().vci;
  state.desc.hop_count = static_cast<int>(state.nodes.size());
  return true;
}

int Network::LeafCount(VcId id) const {
  const VcState* state = FindVc(id);
  return state == nullptr ? 0 : static_cast<int>(state->leaves.size());
}

std::optional<Vci> Network::LeafVci(VcId id, const Endpoint* leaf) const {
  const VcState* state = FindVc(id);
  if (state == nullptr) {
    return std::nullopt;
  }
  for (const TreeLeaf& l : state->leaves) {
    if (l.endpoint == leaf) {
      return l.vci;
    }
  }
  return std::nullopt;
}

void Network::SetCongestionHandler(VcId id, CongestionCallback callback) {
  if (VcState* state = FindVc(id)) {
    state->on_congestion = std::move(callback);
  }
}

void Network::ClearCongestionHandler(VcId id) {
  if (VcState* state = FindVc(id)) {
    state->on_congestion = nullptr;
  }
}

int Network::SignalCongestion(const Link* link, double severity) {
  auto observes = [link](const VcState& state) {
    return state.on_congestion &&
           std::find(state.hop_links.begin(), state.hop_links.end(), link) !=
               state.hop_links.end();
  };
  // Collect ids first: a handler may renegotiate or close VCs, mutating the
  // VC table mid-iteration. Sorted, so handlers fire in ascending VcId (open
  // order) whatever the table's hash order.
  std::vector<VcId> to_notify;
  for (const auto& [id, state] : vcs_) {
    if (observes(state)) {
      to_notify.push_back(id);
    }
  }
  std::sort(to_notify.begin(), to_notify.end());
  int notified = 0;
  for (VcId id : to_notify) {
    // Re-validate right before the call: an earlier callback may have
    // closed this VC, re-established it off the link, or dropped its
    // handler — a stale notification would report congestion for a link
    // the VC no longer traverses.
    const VcState* state = FindVc(id);
    if (state == nullptr || !observes(*state)) {
      continue;
    }
    // Copy the callback: the handler may replace itself mid-call.
    CongestionCallback callback = state->on_congestion;
    callback(id, link, severity);
    ++notified;
  }
  return notified;
}

bool Network::UpdateVcQos(VcId id, QosSpec qos) {
  VcState* found = FindVc(id);
  if (found == nullptr) {
    return false;
  }
  VcState& state = *found;
  const int64_t old_bps = state.desc.qos.peak_bps;
  const int64_t new_bps = qos.peak_bps;
  if (new_bps > old_bps) {
    for (Link* l : state.hop_links) {
      if (ReservedBps(l) - old_bps + new_bps > l->bits_per_second()) {
        ++rejections_bandwidth_;
        return false;
      }
    }
  }
  for (Link* l : state.hop_links) {
    reserved_bps_[static_cast<size_t>(l->id())] += new_bps - old_bps;
  }
  state.desc.qos = qos;
  return true;
}

const VcDescriptor* Network::GetVc(VcId id) const {
  const VcState* state = FindVc(id);
  return state == nullptr ? nullptr : &state->desc;
}

}  // namespace pegasus::atm
