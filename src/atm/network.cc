#include "src/atm/network.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pegasus::atm {

Network::Network(sim::Simulator* sim) : sim_(sim) {}

Network::~Network() = default;

void Network::MaybeMakeBoundary(Link* link, sim::Simulator* src, sim::Simulator* dst) {
  if (src == dst) {
    return;
  }
  // Two sides on different simulators only happens under sharded
  // construction; anything else is a wiring bug.
  assert(shard_group_ != nullptr);
  link->SetBoundary(shard_group_->RegisterBoundary(src, dst, link->propagation_delay()));
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
  link_vcs_.emplace_back();
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

  endpoint_attachments_[ep] = Attachment{sw, port, up, down};
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

  auto insert_edge = [this](Switch* s, Switch* t, int out_port, Link* l) {
    auto& row = adjacency_[static_cast<size_t>(s->id())];
    const Edge edge{t->id(), t, out_port, l};
    auto it = std::lower_bound(row.begin(), row.end(), edge.to_id,
                               [](const Edge& e, int id) { return e.to_id < id; });
    if (it != row.end() && it->to_id == edge.to_id) {
      *it = edge;  // re-wiring two already-adjacent switches replaces the edge
    } else {
      row.insert(it, edge);
    }
  };
  insert_edge(a, b, port_a, ab);
  insert_edge(b, a, port_b, ba);
  ++topology_epoch_;
}

const Network::Edge* Network::FindEdge(const Switch* a, const Switch* b) const {
  const int a_id = a->id();
  if (a_id < 0 || static_cast<size_t>(a_id) >= adjacency_.size()) {
    return nullptr;
  }
  const auto& row = adjacency_[static_cast<size_t>(a_id)];
  auto it = std::lower_bound(row.begin(), row.end(), b->id(),
                             [](const Edge& e, int id) { return e.to_id < id; });
  return (it != row.end() && it->to == b) ? &*it : nullptr;
}

const Network::RouteTree& Network::TreeFrom(int root_id) const {
  RouteTree& tree = route_trees_[static_cast<size_t>(root_id)];
  if (tree.epoch == topology_epoch_) {
    return tree;
  }
  // Breadth-first over switch ids, run to completion; each adjacency row is
  // sorted by neighbour id, so equal-length paths tie-break by insertion
  // order — never by heap address. A switch's parent is fixed the moment it
  // is first reached, so stopping at any destination would have assigned
  // that destination's ancestors exactly the same parents.
  const size_t n = adjacency_.size();
  tree.epoch = topology_epoch_;
  tree.parent.assign(n, -1);
  std::vector<int> frontier;
  frontier.reserve(n);
  tree.parent[static_cast<size_t>(root_id)] = root_id;
  frontier.push_back(root_id);
  for (size_t head = 0; head < frontier.size(); ++head) {
    const int cur = frontier[head];
    for (const Edge& e : adjacency_[static_cast<size_t>(cur)]) {
      if (tree.parent[static_cast<size_t>(e.to_id)] < 0) {
        tree.parent[static_cast<size_t>(e.to_id)] = cur;
        frontier.push_back(e.to_id);
      }
    }
  }
  return tree;
}

bool Network::ReadPath(const Switch* from, const Switch* to, SwitchPath* out) const {
  out->hops.clear();
  out->links_latency = 0;
  const int n = static_cast<int>(switches_.size());
  const int from_id = from->id();
  const int to_id = to->id();
  if (from_id < 0 || from_id >= n || to_id < 0 || to_id >= n ||
      switches_[static_cast<size_t>(from_id)].get() != from ||
      switches_[static_cast<size_t>(to_id)].get() != to) {
    return false;
  }
  const std::vector<int>& parent = TreeFrom(from_id).parent;
  if (parent[static_cast<size_t>(to_id)] < 0) {
    return false;
  }
  // Walk dst -> src twice: once for the length, once filling the hops from
  // the back, so they come out in src -> dst order.
  size_t depth = 0;
  for (int s = to_id; s != from_id; s = parent[static_cast<size_t>(s)]) {
    ++depth;
  }
  out->hops.resize(depth);
  for (int s = to_id; s != from_id; s = parent[static_cast<size_t>(s)]) {
    Switch* cur = switches_[static_cast<size_t>(parent[static_cast<size_t>(s)])].get();
    Switch* next = switches_[static_cast<size_t>(s)].get();
    // Tree edges come from the adjacency, and ConnectSwitches always wires
    // both directions, so neither lookup can miss.
    const Edge* fwd = FindEdge(cur, next);
    const Edge* back = FindEdge(next, cur);
    assert(fwd != nullptr && back != nullptr);
    out->hops[--depth] = PathHop{next, fwd->out_port, fwd->link, back->out_port};
    out->links_latency += fwd->link->propagation_delay() + fwd->link->cell_time();
  }
  return true;
}

std::optional<ResolvedRoute> Network::ResolveRoute(const Endpoint* src,
                                                   const Endpoint* dst) const {
  auto src_it = endpoint_attachments_.find(src);
  auto dst_it = endpoint_attachments_.find(dst);
  if (src_it == endpoint_attachments_.end() || dst_it == endpoint_attachments_.end()) {
    return std::nullopt;
  }
  const Attachment& src_at = src_it->second;
  const Attachment& dst_at = dst_it->second;
  SwitchPath path;
  if (!ReadPath(src_at.sw, dst_at.sw, &path)) {
    return std::nullopt;
  }
  ResolvedRoute route;
  route.links.reserve(path.hops.size() + 2);
  route.links.push_back(src_at.to_switch);
  for (const PathHop& hop : path.hops) {
    route.links.push_back(hop.link);
  }
  route.links.push_back(dst_at.from_switch);
  route.latency_ns = path.links_latency +
                     src_at.to_switch->propagation_delay() + src_at.to_switch->cell_time() +
                     dst_at.from_switch->propagation_delay() + dst_at.from_switch->cell_time();
  route.epoch = topology_epoch_;
  return route;
}

std::optional<std::vector<Link*>> Network::PathLinks(const Endpoint* src,
                                                     const Endpoint* dst) const {
  auto route = ResolveRoute(src, dst);
  if (!route.has_value()) {
    return std::nullopt;
  }
  return std::move(route->links);
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

const std::vector<VcId>& Network::VcsOnLink(const Link* link) const {
  static const std::vector<VcId> kEmpty;
  const int id = link->id();
  if (id < 0 || static_cast<size_t>(id) >= link_vcs_.size()) {
    return kEmpty;
  }
  return link_vcs_[static_cast<size_t>(id)];
}

std::optional<int64_t> Network::PathAvailableBps(const Endpoint* src, const Endpoint* dst) const {
  auto route = ResolveRoute(src, dst);
  if (!route.has_value()) {
    return std::nullopt;
  }
  int64_t available = std::numeric_limits<int64_t>::max();
  for (const Link* l : route->links) {
    available = std::min(available, AvailableBandwidth(l));
  }
  return std::max<int64_t>(available, 0);
}

std::optional<sim::DurationNs> Network::PathLatencyNs(const Endpoint* src,
                                                      const Endpoint* dst) const {
  auto route = ResolveRoute(src, dst);
  if (!route.has_value()) {
    return std::nullopt;
  }
  return route->latency_ns;
}

std::optional<VcDescriptor> Network::OpenVc(Endpoint* src, Endpoint* dst, QosSpec qos) {
  auto src_it = endpoint_attachments_.find(src);
  auto dst_it = endpoint_attachments_.find(dst);
  if (src_it == endpoint_attachments_.end() || dst_it == endpoint_attachments_.end()) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  const Attachment& src_at = src_it->second;
  const Attachment& dst_at = dst_it->second;

  SwitchPath path;
  if (!ReadPath(src_at.sw, dst_at.sw, &path)) {
    ++rejections_no_path_;
    return std::nullopt;
  }

  // Collect the links the VC will traverse, in order.
  std::vector<Link*> hop_links;
  hop_links.reserve(path.hops.size() + 2);
  hop_links.push_back(src_at.to_switch);
  for (const PathHop& hop : path.hops) {
    hop_links.push_back(hop.link);
  }
  hop_links.push_back(dst_at.from_switch);

  return OpenVcAlongPath(src, dst, qos, src_at, dst_at, path, std::move(hop_links));
}

std::optional<VcDescriptor> Network::OpenVc(Endpoint* src, Endpoint* dst, QosSpec qos,
                                            const ResolvedRoute& route) {
  if (route.epoch != topology_epoch_) {
    // The topology moved under the caller's resolve; fall back to a fresh
    // one — same semantics, just not the fast path.
    return OpenVc(src, dst, qos);
  }
  auto src_it = endpoint_attachments_.find(src);
  auto dst_it = endpoint_attachments_.find(dst);
  if (src_it == endpoint_attachments_.end() || dst_it == endpoint_attachments_.end()) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  const Attachment& src_at = src_it->second;
  const Attachment& dst_at = dst_it->second;
  SwitchPath path;
  if (!ReadPath(src_at.sw, dst_at.sw, &path)) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  return OpenVcAlongPath(src, dst, qos, src_at, dst_at, path, route.links);
}

std::optional<VcDescriptor> Network::OpenVcAlongPath(Endpoint* src, Endpoint* dst, QosSpec qos,
                                                     const Attachment& src_at,
                                                     const Attachment& dst_at,
                                                     const SwitchPath& path,
                                                     std::vector<Link*> hop_links) {
  // Admission control: the reservation must fit on every traversed link.
  if (qos.peak_bps > 0) {
    for (Link* l : hop_links) {
      if (ReservedBps(l) + qos.peak_bps > l->bits_per_second()) {
        ++rejections_bandwidth_;
        return std::nullopt;
      }
    }
  }

  // Allocate per-hop VCIs and install routes.
  VcState state;
  const Vci dst_vci = dst->AllocateIncomingVci();
  Vci in_vci = src_at.sw->AllocateVci(src_at.port);
  const Vci source_vci = in_vci;
  int in_port = src_at.port;
  Switch* sw = src_at.sw;
  for (const PathHop& hop : path.hops) {
    // The VCI on the inter-switch link is whatever is free on the next
    // switch's input port.
    const Vci out_vci = hop.next->AllocateVci(hop.next_in_port);
    sw->AddRoute(in_port, in_vci, hop.out_port, out_vci);
    state.hops.push_back(HopRecord{sw, in_port, in_vci});
    in_port = hop.next_in_port;
    in_vci = out_vci;
    sw = hop.next;
  }
  sw->AddRoute(in_port, in_vci, dst_at.port, dst_vci);
  state.hops.push_back(HopRecord{sw, in_port, in_vci});

  if (qos.peak_bps > 0) {
    for (Link* l : hop_links) {
      reserved_bps_[static_cast<size_t>(l->id())] += qos.peak_bps;
    }
  }

  VcDescriptor desc;
  desc.id = next_vc_id_++;
  desc.source = src;
  desc.destination = dst;
  desc.source_vci = source_vci;
  desc.destination_vci = dst_vci;
  desc.qos = qos;
  desc.hop_count = static_cast<int>(path.hops.size()) + 1;
  for (Link* l : hop_links) {
    link_vcs_[static_cast<size_t>(l->id())].push_back(desc.id);
  }
  state.hop_links = std::move(hop_links);
  state.desc = desc;
  vcs_[desc.id] = std::move(state);
  return desc;
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
  if (state.mcast == nullptr) {
    for (const HopRecord& hop : state.hops) {
      hop.sw->RemoveRoute(hop.in_port, hop.in_vci);
    }
    state.desc.destination->ReleaseIncomingVci(state.desc.destination_vci);
  } else {
    // A tree: retire each switch's whole entry (RemoveRoute drops every
    // branch at once) and release EVERY leaf's incoming VCI, not just the
    // descriptor's nominal destination.
    for (const auto& [sw_id, in] : state.mcast->node_in) {
      switches_[static_cast<size_t>(sw_id)]->RemoveRoute(in.first, in.second);
    }
    for (const McastLeafRec& rec : state.mcast->leaves) {
      rec.leaf->ReleaseIncomingVci(rec.leaf_vci);
    }
  }
  for (Link* l : state.hop_links) {
    if (state.desc.qos.peak_bps > 0) {
      reserved_bps_[static_cast<size_t>(l->id())] -= state.desc.qos.peak_bps;
    }
    EraseFromLinkIndex(l, id);
  }
  vcs_.erase(it);
  return true;
}

void Network::EraseFromLinkIndex(const Link* link, VcId id) {
  // Order-preserving, so the index stays id-sorted.
  auto& on_link = link_vcs_[static_cast<size_t>(link->id())];
  auto pos = std::lower_bound(on_link.begin(), on_link.end(), id);
  if (pos != on_link.end() && *pos == id) {
    on_link.erase(pos);
  }
}

bool Network::PlanGraft(const McastState& m, Endpoint* leaf,
                        std::set<std::pair<int, int>>* planned_branches,
                        std::set<int>* planned_nodes, std::vector<Link*>* new_links) const {
  auto leaf_it = endpoint_attachments_.find(leaf);
  if (leaf_it == endpoint_attachments_.end()) {
    return false;
  }
  const Attachment& leaf_at = leaf_it->second;
  SwitchPath path;
  if (!ReadPath(m.root, leaf_at.sw, &path)) {
    return false;
  }
  auto in_tree = [&](int sw_id) {
    return m.node_in.count(sw_id) > 0 || planned_nodes->count(sw_id) > 0;
  };
  auto have_branch = [&](const std::pair<int, int>& key) {
    return m.branches.count(key) > 0 || planned_branches->count(key) > 0;
  };
  const Switch* cur = m.root;
  for (const PathHop& hop : path.hops) {
    const std::pair<int, int> key{cur->id(), hop.out_port};
    if (!have_branch(key)) {
      if (in_tree(hop.next->id())) {
        // The fresh path reaches a tree switch over a different edge than
        // the tree's — grafting would give that switch two incoming edges
        // (duplicate delivery). Only possible after a topology change.
        return false;
      }
      planned_branches->insert(key);
      planned_nodes->insert(hop.next->id());
      new_links->push_back(hop.link);
    }
    cur = hop.next;
  }
  const std::pair<int, int> leaf_key{cur->id(), leaf_at.port};
  if (have_branch(leaf_key)) {
    return false;
  }
  planned_branches->insert(leaf_key);
  new_links->push_back(leaf_at.from_switch);
  return true;
}

void Network::ChargeTreeLink(VcState& state, Link* link) {
  if (state.desc.qos.peak_bps > 0) {
    reserved_bps_[static_cast<size_t>(link->id())] += state.desc.qos.peak_bps;
  }
  auto& on_link = link_vcs_[static_cast<size_t>(link->id())];
  on_link.insert(std::lower_bound(on_link.begin(), on_link.end(), state.desc.id), state.desc.id);
  state.hop_links.push_back(link);
}

void Network::UnchargeTreeLink(VcState& state, Link* link) {
  if (state.desc.qos.peak_bps > 0) {
    reserved_bps_[static_cast<size_t>(link->id())] -= state.desc.qos.peak_bps;
  }
  EraseFromLinkIndex(link, state.desc.id);
  auto lpos = std::find(state.hop_links.begin(), state.hop_links.end(), link);
  if (lpos != state.hop_links.end()) {
    state.hop_links.erase(lpos);
  }
}

void Network::CommitGraft(VcState& state, McastState& m, Endpoint* leaf) {
  const Attachment& leaf_at = endpoint_attachments_.at(leaf);
  SwitchPath path;
  ReadPath(m.root, leaf_at.sw, &path);  // PlanGraft found it reachable
  McastLeafRec rec;
  rec.leaf = leaf;
  auto add_branch = [&](Switch* sw, int out_port, Vci out_vci, Link* link, int next_switch_id) {
    const auto& in = m.node_in.at(sw->id());
    if (sw->HasRoute(in.first, in.second)) {
      sw->AddRouteTarget(in.first, in.second, out_port, out_vci);
    } else {
      sw->AddRoute(in.first, in.second, out_port, out_vci);
    }
    m.branches[{sw->id(), out_port}] = McastBranch{out_vci, link, 0, next_switch_id};
    ChargeTreeLink(state, link);
  };
  Switch* cur = m.root;
  for (const PathHop& hop : path.hops) {
    const std::pair<int, int> key{cur->id(), hop.out_port};
    if (m.branches.count(key) == 0) {
      const Vci out_vci = hop.next->AllocateVci(hop.next_in_port);
      m.node_in[hop.next->id()] = {hop.next_in_port, out_vci};
      add_branch(cur, hop.out_port, out_vci, hop.link, hop.next->id());
    }
    ++m.branches.at(key).refs;
    rec.branch_keys.push_back(key);
    cur = hop.next;
  }
  rec.leaf_vci = leaf->AllocateIncomingVci();
  const std::pair<int, int> leaf_key{cur->id(), leaf_at.port};
  add_branch(cur, leaf_at.port, rec.leaf_vci, leaf_at.from_switch, -1);
  ++m.branches.at(leaf_key).refs;
  rec.branch_keys.push_back(leaf_key);
  m.leaves.push_back(std::move(rec));
}

std::optional<VcDescriptor> Network::OpenMulticastVc(Endpoint* src,
                                                     const std::vector<Endpoint*>& sinks,
                                                     QosSpec qos) {
  auto src_it = endpoint_attachments_.find(src);
  if (sinks.empty() || src_it == endpoint_attachments_.end()) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  const Attachment& src_at = src_it->second;
  auto tree = std::make_unique<McastState>();
  McastState& m = *tree;
  m.source = src;
  m.root = src_at.sw;

  // Dry pass: simulate every graft to learn the tree's distinct edges. Any
  // bad sink rejects the whole open before a single route is touched.
  std::set<std::pair<int, int>> planned_branches;
  std::set<int> planned_nodes;
  std::vector<Link*> union_links;
  union_links.push_back(src_at.to_switch);
  std::set<const Endpoint*> seen;
  for (Endpoint* sink : sinks) {
    if (sink == src || !seen.insert(sink).second ||
        !PlanGraft(m, sink, &planned_branches, &planned_nodes, &union_links)) {
      ++rejections_no_path_;
      return std::nullopt;
    }
  }
  // Admission: each tree edge carries ONE copy of the stream, so each is
  // checked (and later charged) once, however many sinks ride it.
  if (qos.peak_bps > 0) {
    for (Link* l : union_links) {
      if (ReservedBps(l) + qos.peak_bps > l->bits_per_second()) {
        ++rejections_bandwidth_;
        return std::nullopt;
      }
    }
  }

  VcState state;
  state.desc.id = next_vc_id_++;
  state.desc.source = src;
  state.desc.qos = qos;
  state.desc.source_vci = src_at.sw->AllocateVci(src_at.port);
  m.node_in[src_at.sw->id()] = {src_at.port, state.desc.source_vci};
  ChargeTreeLink(state, src_at.to_switch);
  for (Endpoint* sink : sinks) {
    CommitGraft(state, m, sink);
  }
  state.desc.destination = sinks.front();
  state.desc.destination_vci = m.leaves.front().leaf_vci;
  state.desc.hop_count = static_cast<int>(m.node_in.size());
  state.mcast = std::move(tree);
  const VcDescriptor desc = state.desc;
  vcs_[desc.id] = std::move(state);
  return desc;
}

std::optional<Vci> Network::AddLeaf(VcId id, Endpoint* leaf) {
  VcState* state = FindVc(id);
  if (state == nullptr || state->mcast == nullptr) {
    return std::nullopt;
  }
  McastState& m = *state->mcast;
  if (leaf == m.source) {
    return std::nullopt;
  }
  for (const McastLeafRec& rec : m.leaves) {
    if (rec.leaf == leaf) {
      return std::nullopt;
    }
  }
  std::set<std::pair<int, int>> planned_branches;
  std::set<int> planned_nodes;
  std::vector<Link*> new_links;
  if (!PlanGraft(m, leaf, &planned_branches, &planned_nodes, &new_links)) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  // Late join: only the GRAFT path faces admission — everything upstream of
  // the attach point is already reserved.
  if (state->desc.qos.peak_bps > 0) {
    for (Link* l : new_links) {
      if (ReservedBps(l) + state->desc.qos.peak_bps > l->bits_per_second()) {
        ++rejections_bandwidth_;
        return std::nullopt;
      }
    }
  }
  CommitGraft(*state, m, leaf);
  state->desc.hop_count = static_cast<int>(m.node_in.size());
  return m.leaves.back().leaf_vci;
}

bool Network::RemoveLeaf(VcId id, Endpoint* leaf) {
  VcState* state = FindVc(id);
  if (state == nullptr || state->mcast == nullptr) {
    return false;
  }
  McastState& m = *state->mcast;
  if (m.leaves.size() <= 1) {
    return false;  // the last leaf comes off via CloseVc
  }
  auto rec_it = std::find_if(m.leaves.begin(), m.leaves.end(),
                             [leaf](const McastLeafRec& r) { return r.leaf == leaf; });
  if (rec_it == m.leaves.end()) {
    return false;
  }
  // Prune bottom-up: the leaf-most branch always hits zero refs; upstream
  // branches survive while any other leaf still rides them.
  for (auto key_it = rec_it->branch_keys.rbegin(); key_it != rec_it->branch_keys.rend();
       ++key_it) {
    McastBranch& branch = m.branches.at(*key_it);
    if (--branch.refs > 0) {
      continue;
    }
    const auto& in = m.node_in.at(key_it->first);
    switches_[static_cast<size_t>(key_it->first)]->RemoveRouteTarget(in.first, in.second,
                                                                     key_it->second);
    UnchargeTreeLink(*state, branch.link);
    if (branch.next_switch_id >= 0) {
      m.node_in.erase(branch.next_switch_id);
    }
    m.branches.erase(*key_it);
  }
  leaf->ReleaseIncomingVci(rec_it->leaf_vci);
  m.leaves.erase(rec_it);
  state->desc.hop_count = static_cast<int>(m.node_in.size());
  return true;
}

bool Network::IsMulticastVc(VcId id) const {
  const VcState* state = FindVc(id);
  return state != nullptr && state->mcast != nullptr;
}

int Network::McastLeafCount(VcId id) const {
  const VcState* state = FindVc(id);
  return state == nullptr || state->mcast == nullptr
             ? 0
             : static_cast<int>(state->mcast->leaves.size());
}

std::optional<Vci> Network::McastLeafVci(VcId id, const Endpoint* leaf) const {
  const VcState* state = FindVc(id);
  if (state == nullptr || state->mcast == nullptr) {
    return std::nullopt;
  }
  for (const McastLeafRec& rec : state->mcast->leaves) {
    if (rec.leaf == leaf) {
      return rec.leaf_vci;
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
  // Collect ids first: a handler may renegotiate or close VCs, mutating
  // the per-link index and the VC table mid-iteration. The index is
  // ascending VcId — the same order the historical all-VCs scan produced.
  std::vector<VcId> to_notify;
  for (VcId id : VcsOnLink(link)) {
    const VcState* state = FindVc(id);
    if (state != nullptr && state->on_congestion) {
      to_notify.push_back(id);
    }
  }
  int notified = 0;
  for (VcId id : to_notify) {
    // Re-validate right before the call: an earlier callback may have
    // closed this VC, re-established it off the link, or dropped its
    // handler — a stale notification would report congestion for a link
    // the VC no longer traverses.
    const VcState* state = FindVc(id);
    if (state == nullptr || !state->on_congestion ||
        std::find(state->hop_links.begin(), state->hop_links.end(), link) ==
            state->hop_links.end()) {
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
