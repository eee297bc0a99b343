#include "src/atm/link.h"

#include <algorithm>

namespace pegasus::atm {

Link::Link(sim::Simulator* sim, std::string name, int64_t bits_per_second,
           sim::DurationNs propagation_delay, size_t queue_limit)
    : sim_(sim),
      name_(std::move(name)),
      bps_(bits_per_second),
      prop_delay_(propagation_delay),
      cell_time_(sim::TransmissionTime(kCellSize, bits_per_second)),
      queue_limit_(queue_limit) {}

void Link::SetBoundary(sim::ShardGroup* group, sim::Simulator* sink_sim) {
  boundary_ = group->RegisterBoundary(
      sim_, sink_sim, prop_delay_,
      [](void* link, sim::TimeNs at) { static_cast<Link*>(link)->Arrive(at); }, this);
}

size_t Link::QueuedAt(sim::TimeNs now) const {
  if (tx_free_at_ <= now) {
    return 0;
  }
  return static_cast<size_t>((tx_free_at_ - now + cell_time_ - 1) / cell_time_);
}

size_t Link::queued_cells() const { return QueuedAt(sim_->now()); }

bool Link::SendCell(const Cell& cell) {
  const sim::TimeNs now = sim_->now();
  // QueuedAt(now) >= queue_limit_ without the divide: ceil(b / c) >= L
  // exactly when b > (L - 1) * c, and a zero limit always drops.
  if (std::max<sim::DurationNs>(tx_free_at_ - now, 0) >
      (static_cast<sim::DurationNs>(queue_limit_) - 1) * cell_time_) {
    // Tail-drop: the ARRIVING cell is lost, whatever its priority bit says
    // (see the class comment); the split counters record which class lost.
    ++(cell.low_priority ? cells_dropped_low_ : cells_dropped_high_);
    return false;
  }
  const sim::TimeNs start = std::max(now, tx_free_at_);
  const sim::TimeNs done = start + cell_time_;
  tx_free_at_ = done;
  busy_time_ += cell_time_;
  ++cells_sent_;
  cells_.push_back(cell);
  done_.push_back(done);
  // Cells appended while a cut event is pending ride that train; the event
  // re-arms itself for whatever it finds uncut.
  if (!delivery_pending_) {
    ArmDelivery();
  }
  return true;
}

size_t Link::SendBurst(const Cell* cells, size_t count) {
  size_t accepted = 0;
  for (size_t i = 0; i < count; ++i) {
    accepted += SendCell(cells[i]) ? 1 : 0;
  }
  return accepted;
}

void Link::ArmDelivery() {
  // The train is cut at the first end-of-frame cell so frame completion
  // instants match the per-cell path exactly; frameless streams batch up to
  // kMaxTrainCells per event.
  const size_t last = std::min(cells_.size(), cut_ + kMaxTrainCells) - 1;
  size_t target = last;
  for (size_t i = cut_; i < last; ++i) {
    if (cells_[i].end_of_frame) {
      target = i;
      break;
    }
  }
  delivery_pending_ = true;
  // The event fires at serialisation completion for EVERY link — boundary or
  // not. Grouping decisions must only depend on what the transmitter has
  // actually serialised, never on cells that happen to be sent during the
  // propagation window; otherwise a boundary link (whose event cannot wait
  // out the propagation delay without forfeiting its lookahead) would cut
  // trains differently from the single-simulator path. The wire itself is
  // pure delay, applied after the cut in DeliverReady.
  sim_->ScheduleAt(done_[target], [this]() { DeliverReady(); });
}

void Link::DeliverReady() {
  delivery_pending_ = false;
  const sim::TimeNs now = sim_->now();
  size_t end = cut_;
  while (end < cells_.size() && done_[end] <= now) {
    ++end;
  }
  if (end > cut_) {
    if (sink_ != nullptr) {
      // The cut is made at serialisation completion; the wire adds pure
      // delay. The train stays in cells_ until Arrive hands it over.
      const sim::TimeNs at = now + prop_delay_;
      if (boundary_ != nullptr) {
        boundary_->Post(at);
      } else {
        sim_->ScheduleAt(at, [this, at]() { Arrive(at); });
      }
      cut_ = end;
    } else {
      // A link without a sink keeps no train on the wire: its cut cells are
      // done.
      head_ = cut_ = end;
      CompactDelivered();
    }
  }
  // Whatever is still uncut (queued after the event was armed) gets the
  // next event. The sink runs in its own event, never in this one.
  if (cut_ < cells_.size()) {
    ArmDelivery();
  }
}

void Link::Arrive(sim::TimeNs at) {
  // The oldest train on the wire was cut one propagation delay ago, and it
  // took exactly the cells that had completed by then.
  const sim::TimeNs cut_at = at - prop_delay_;
  size_t end = head_;
  while (end < cut_ && done_[end] <= cut_at) {
    ++end;
  }
  // The sink reads the train in place, and the prefix is compacted only
  // once it returns. Nothing appends to this link meanwhile: a sink never
  // sends on the link that feeds it (a switch forwards through its fabric
  // event, an endpoint on its own uplink), and no other shard runs while
  // a boundary link's sink does. sink_ is read at arrival; Network sets it
  // only while wiring.
  sink_->DeliverBurst(&cells_[head_], end - head_);
  head_ = end;
  CompactDelivered();
}

void Link::CompactDelivered() {
  if (head_ == cells_.size()) {
    cells_.clear();
    done_.clear();
    head_ = 0;
    cut_ = 0;
  } else if (head_ * 2 >= cells_.size()) {
    // Compact once the delivered prefix outweighs the remainder: each erase
    // moves at most as many cells as were just delivered, so the cost is
    // amortised O(1) per cell and a permanently backlogged link holds
    // O(queue_limit + cells on the wire) memory instead of growing without
    // bound.
    cells_.erase(cells_.begin(), cells_.begin() + static_cast<ptrdiff_t>(head_));
    done_.erase(done_.begin(), done_.begin() + static_cast<ptrdiff_t>(head_));
    cut_ -= head_;
    head_ = 0;
  }
}

double Link::utilization() const {
  const sim::TimeNs now = sim_->now();
  if (now <= 0) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(busy_time_) / static_cast<double>(now));
}

}  // namespace pegasus::atm
