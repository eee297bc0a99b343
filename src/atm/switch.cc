#include "src/atm/switch.h"

#include <algorithm>
#include <utility>

namespace pegasus::atm {

Switch::Switch(sim::Simulator* sim, std::string name, int num_ports, sim::DurationNs fabric_delay)
    : sim_(sim),
      name_(std::move(name)),
      fabric_delay_(fabric_delay),
      outputs_(static_cast<size_t>(num_ports), nullptr),
      routes_(static_cast<size_t>(num_ports)),
      vcis_(static_cast<size_t>(num_ports)) {
  inputs_.reserve(static_cast<size_t>(num_ports));
  for (int p = 0; p < num_ports; ++p) {
    inputs_.push_back(std::make_unique<InputPort>(this, p));
  }
}

CellSink* Switch::input(int port) { return inputs_[static_cast<size_t>(port)].get(); }

void Switch::AttachOutput(int port, Link* link) { outputs_[static_cast<size_t>(port)] = link; }

bool Switch::AddRoute(int in_port, Vci in_vci, int out_port, Vci out_vci) {
  if (in_vci >= kMaxRoutableVci) {
    return false;
  }
  auto& table = routes_[static_cast<size_t>(in_port)];
  if (in_vci >= table.size()) {
    table.resize(static_cast<size_t>(in_vci) + 1);
  }
  RouteEntry& entry = table[in_vci];
  if (!entry.empty()) {
    return false;
  }
  entry.primary = RouteTarget{out_port, out_vci};
  vcis_[static_cast<size_t>(in_port)].Hold(in_vci);
  return true;
}

bool Switch::RemoveRoute(int in_port, Vci in_vci) {
  auto& table = routes_[static_cast<size_t>(in_port)];
  if (in_vci >= table.size() || table[in_vci].empty()) {
    return false;
  }
  table[in_vci] = RouteEntry{};
  vcis_[static_cast<size_t>(in_port)].Release(in_vci);
  return true;
}

bool Switch::AddRouteTarget(int in_port, Vci in_vci, int out_port, Vci out_vci) {
  auto& table = routes_[static_cast<size_t>(in_port)];
  if (in_vci >= table.size() || table[in_vci].empty()) {
    return false;
  }
  RouteEntry& entry = table[in_vci];
  if (entry.primary.out_port == out_port) {
    return false;
  }
  for (const RouteTarget& t : entry.extra) {
    if (t.out_port == out_port) {
      return false;
    }
  }
  entry.extra.push_back(RouteTarget{out_port, out_vci});
  return true;
}

bool Switch::RemoveRouteTarget(int in_port, Vci in_vci, int out_port) {
  auto& table = routes_[static_cast<size_t>(in_port)];
  if (in_vci >= table.size() || table[in_vci].empty()) {
    return false;
  }
  RouteEntry& entry = table[in_vci];
  if (entry.primary.out_port == out_port) {
    if (entry.extra.empty()) {
      // Last branch: the whole entry retires, and only now is its VCI
      // free again.
      return RemoveRoute(in_port, in_vci);
    }
    // The next-oldest branch becomes primary, preserving graft order — the
    // replication order of OnBurst stays the deterministic graft order.
    entry.primary = entry.extra.front();
    entry.extra.erase(entry.extra.begin());
    return true;
  }
  auto it = std::find_if(entry.extra.begin(), entry.extra.end(),
                         [out_port](const RouteTarget& t) { return t.out_port == out_port; });
  if (it == entry.extra.end()) {
    return false;
  }
  entry.extra.erase(it);
  return true;
}

int Switch::RouteTargetCount(int in_port, Vci in_vci) const {
  const RouteEntry* entry = Lookup(in_port, in_vci);
  return entry == nullptr ? 0 : 1 + static_cast<int>(entry->extra.size());
}

bool Switch::HasRoute(int in_port, Vci in_vci) const {
  return Lookup(in_port, in_vci) != nullptr;
}

void Switch::EnterFabric(Link* out, size_t count) {
  fabric_runs_.push_back(FabricRun{out, count});
  // A zero fabric delay is scheduled at now like any other delay.
  sim_->ScheduleAfter(fabric_delay_, [this]() { Cross(); });
}

void Switch::Cross() {
  const FabricRun run = fabric_runs_[run_head_++];
  const size_t first = cell_head_;
  cell_head_ += run.count;
  // The link reads the run in place, and the fabric is compacted only once
  // it returns. Nothing enters the fabric meanwhile: SendBurst only queues
  // cells and schedules the link's own events.
  run.out->SendBurst(&fabric_cells_[first], run.count);
  if (run_head_ == fabric_runs_.size()) {
    fabric_cells_.clear();
    fabric_runs_.clear();
    cell_head_ = 0;
    run_head_ = 0;
  } else if (cell_head_ * 2 >= fabric_cells_.size()) {
    // Same amortised compaction as a link's delivered prefix.
    fabric_cells_.erase(fabric_cells_.begin(),
                        fabric_cells_.begin() + static_cast<ptrdiff_t>(cell_head_));
    fabric_runs_.erase(fabric_runs_.begin(),
                       fabric_runs_.begin() + static_cast<ptrdiff_t>(run_head_));
    cell_head_ = 0;
    run_head_ = 0;
  }
}

void Switch::OnBurst(int in_port, const Cell* cells, size_t count) {
  size_t i = 0;
  while (i < count) {
    const RouteEntry* entry = Lookup(in_port, cells[i].vci);
    Link* out =
        entry != nullptr ? outputs_[static_cast<size_t>(entry->primary.out_port)] : nullptr;
    if (out == nullptr) {
      ++cells_unroutable_;
      ++i;
      continue;
    }
    if (!entry->unicast()) {
      // Point-to-multipoint entry: the run of consecutive cells carrying
      // this VCI is replicated once per BRANCH (each a distinct output
      // port), not once per downstream leaf — one relabel pass and one
      // fabric-transit event per branch, in graft order. Replication only
      // appends to the fabric and schedules its crossings, so nothing
      // touches routes_ while the entry is read in place.
      const Vci in_vci = cells[i].vci;
      size_t j = i;
      while (j < count && cells[j].vci == in_vci) {
        ++j;
      }
      auto replicate = [&](const RouteTarget& target) {
        for (size_t k = i; k < j; ++k) {
          fabric_cells_.push_back(cells[k]);
          fabric_cells_.back().vci = target.out_vci;
        }
        EnterFabric(outputs_[static_cast<size_t>(target.out_port)], j - i);
      };
      replicate(entry->primary);
      for (const RouteTarget& target : entry->extra) {
        replicate(target);
      }
      cells_switched_ += (j - i) * (1 + entry->extra.size());
      i = j;
      continue;
    }
    // Gather the maximal run of cells bound for the same output link and
    // relabel them in one pass; the run crosses the fabric as one event.
    const size_t first = fabric_cells_.size();
    do {
      fabric_cells_.push_back(cells[i]);
      fabric_cells_.back().vci = entry->primary.out_vci;
      ++i;
      if (i == count) {
        break;
      }
      entry = Lookup(in_port, cells[i].vci);
    } while (entry != nullptr && entry->unicast() &&
             outputs_[static_cast<size_t>(entry->primary.out_port)] == out);
    const size_t run = fabric_cells_.size() - first;
    cells_switched_ += run;
    EnterFabric(out, run);
  }
}

}  // namespace pegasus::atm
