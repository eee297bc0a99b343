#include "src/sim/shard.h"

#include <algorithm>
#include <cassert>

namespace pegasus::sim {

namespace {

TimeNs SaturatingAdd(TimeNs t, DurationNs d) {
  return d >= kTimeNever - t ? kTimeNever : t + d;
}

}  // namespace

void BoundaryChannel::Post(TimeNs deliver_at) {
  assert(deliver_at >= src_sim_->now() + lookahead_);
  if (staging_.empty()) {
    group_->staged_[static_cast<size_t>(dst_)].push_back(this);
  }
  staging_min_ = std::min(staging_min_, deliver_at);
  staging_.push_back(Record{deliver_at, next_order_++, id_});
}

ShardGroup::ShardGroup(Simulator* control, Options options) : control_(control) {
  const int count = std::max(1, options.shards);
  shards_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  inbound_.resize(static_cast<size_t>(count));
  next_times_.resize(static_cast<size_t>(count), kTimeNever);
  horizons_.resize(static_cast<size_t>(count), kTimeNever);
  modes_.resize(static_cast<size_t>(count), WindowMode::kSkip);
  staged_.resize(static_cast<size_t>(count));
  staged_min_.resize(static_cast<size_t>(count), kTimeNever);
  pending_.resize(static_cast<size_t>(count));
}

int ShardGroup::shard_index(const Simulator* s) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() == s) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

BoundaryChannel* ShardGroup::RegisterBoundary(Simulator* src, Simulator* dst,
                                              DurationNs lookahead,
                                              BoundaryChannel::DeliverFn deliver, void* ctx) {
  const int src_idx = shard_index(src);
  const int dst_idx = shard_index(dst);
  assert(src_idx >= 0 && dst_idx >= 0 && src_idx != dst_idx);
  assert(lookahead > 0);  // zero lookahead would stall the window loop
  channels_.push_back(std::unique_ptr<BoundaryChannel>(new BoundaryChannel(
      this, src, dst_idx, static_cast<uint32_t>(channels_.size()), lookahead, deliver, ctx)));
  // The destination's window bound only needs the tightest lookahead per
  // source shard, not one entry per parallel link.
  auto& bounds = inbound_[static_cast<size_t>(dst_idx)];
  bool merged = false;
  for (InboundBound& b : bounds) {
    if (b.src == src_idx) {
      b.lookahead = std::min(b.lookahead, lookahead);
      merged = true;
      break;
    }
  }
  if (!merged) {
    bounds.push_back(InboundBound{src_idx, lookahead});
  }
  return channels_.back().get();
}

TimeNs ShardGroup::SnapshotNextEvents() {
  TimeNs n = kTimeNever;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // An unreleased boundary record IS a future event of its destination —
    // whether it was already handed over (pending) or still sits in a
    // source channel's staging vector (staged) — and must hold the window
    // loop open and bound other shards' horizons exactly as a scheduled
    // event would. The staged minimum is recomputed here because a staged
    // channel keeps accumulating between snapshots.
    TimeNs smin = kTimeNever;
    for (const BoundaryChannel* c : staged_[i]) {
      smin = std::min(smin, c->staging_min_);
    }
    staged_min_[i] = smin;
    const TimeNs t = std::min({shards_[i]->NextEventTime(), pending_[i].min_deliver, smin});
    next_times_[i] = t;
    n = std::min(n, t);
  }
  return n;
}

void ShardGroup::PlanWindow(TimeNs limit, bool inclusive) {
  // Per-channel lookahead: nothing can reach shard d over channel c before
  // next_event(source(c)) + lookahead(c). But "next_event(source)" is not
  // the source's own queue alone — the source may be woken THIS window by a
  // train from a third shard and emit earlier than its snapshot suggests.
  // So first relax the snapshot to a fixpoint: effective[i] is the earliest
  // instant shard i could execute ANY event this window, whether already
  // queued or still in flight from a neighbour. Lookaheads are strictly
  // positive and the values only ever decrease toward the global minimum,
  // so the relaxation terminates (in ≤ diameter passes in practice).
  effective_ = next_times_;
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t d = 0; d < shards_.size(); ++d) {
      for (const InboundBound& b : inbound_[d]) {
        const TimeNs via =
            SaturatingAdd(effective_[static_cast<size_t>(b.src)], b.lookahead);
        if (via < effective_[d]) {
          effective_[d] = via;
          changed = true;
        }
      }
    }
  }
  bool merged = false;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A shard whose neighbours (and their transitive feeders) are quiet
    // still runs straight to the sync point regardless of how small some
    // distant pair's lookahead is — idle chains relax to kTimeNever.
    TimeNs horizon = kTimeNever;
    for (const InboundBound& b : inbound_[i]) {
      horizon = std::min(horizon,
                         SaturatingAdd(effective_[static_cast<size_t>(b.src)], b.lookahead));
    }
    // Everything bound for this shard below its horizon has already been
    // posted (the sources could not emit it later without violating their
    // lookahead), so the release is complete per delivery instant: take over
    // the staged posts the horizon now needs, then schedule every covered
    // record.
    if (staged_min_[i] < horizon) {
      CollectStaged(i, horizon);
      merged = true;
    }
    ReleasePending(i, horizon);
    WindowMode mode = WindowMode::kSkip;
    TimeNs target;
    if (inclusive && horizon > limit) {
      // End-of-run window bound by the cap, not a channel: events at the
      // limit itself are safe to run (anything they emit lands strictly
      // later than limit).
      target = limit;
      if (next_times_[i] <= limit) {
        mode = WindowMode::kInclusive;
      }
    } else {
      target = std::min(horizon, limit);
      if (next_times_[i] < target) {
        mode = WindowMode::kExclusive;
      }
    }
    horizons_[i] = target;
    modes_[i] = mode;
  }
  if (merged) {
    ++stats_.merges;
  }
}

void ShardGroup::RunWindow() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    switch (modes_[i]) {
      case WindowMode::kSkip:
        // No event before this shard's horizon: don't even park its clock —
        // the final quiesce in AdvanceShards does that once, not per window.
        break;
      case WindowMode::kExclusive:
        shards_[i]->RunUntilBefore(horizons_[i]);
        break;
      case WindowMode::kInclusive:
        shards_[i]->RunUntil(horizons_[i]);
        break;
    }
  }
}

void ShardGroup::CollectStaged(size_t d, TimeNs bound) {
  // The hand-off itself: each covered channel's staged posts are appended
  // to the destination's pending queue and its staging vector is emptied
  // for reuse. Channels whose earliest post the horizon does not reach keep
  // accumulating: that deferral is what lets one hand-off carry several
  // windows' worth of posts.
  auto& list = staged_[d];
  PendingQueue& q = pending_[d];
  TimeNs remaining_min = kTimeNever;
  size_t kept = 0;
  for (BoundaryChannel* c : list) {
    if (c->staging_min_ >= bound) {
      remaining_min = std::min(remaining_min, c->staging_min_);
      list[kept++] = c;
      continue;
    }
    q.min_deliver = std::min(q.min_deliver, c->staging_min_);
    q.items.insert(q.items.end(), c->staging_.begin(), c->staging_.end());
    c->staging_.clear();
    c->staging_min_ = kTimeNever;
    ++stats_.handoffs;
  }
  list.resize(kept);
  staged_min_[d] = remaining_min;
}

void ShardGroup::ReleasePending(size_t d, TimeNs bound) {
  PendingQueue& q = pending_[d];
  if (q.min_deliver >= bound) {
    return;
  }
  if (q.sorted_end < q.items.size()) {
    // Deterministic merge: delivery time first, then channel registration
    // order, then per-channel emission order — a total order independent of
    // partitioning and of the order channels were staged in. (The key is
    // unique: emission order is monotone per channel.)
    std::sort(q.items.begin() + static_cast<ptrdiff_t>(q.head), q.items.end(),
              [](const BoundaryChannel::Record& a, const BoundaryChannel::Record& b) {
                if (a.deliver_at != b.deliver_at) {
                  return a.deliver_at < b.deliver_at;
                }
                if (a.channel != b.channel) {
                  return a.channel < b.channel;
                }
                return a.order < b.order;
              });
    q.sorted_end = q.items.size();
  }
  Simulator* shard = shards_[d].get();
  while (q.head < q.items.size() && q.items[q.head].deliver_at < bound) {
    const BoundaryChannel::Record& item = q.items[q.head];
    const BoundaryChannel* c = channels_[item.channel].get();
    shard->ScheduleAt(item.deliver_at, [c, at = item.deliver_at]() { c->deliver_(c->ctx_, at); });
    ++q.head;
    ++stats_.messages;
  }
  if (q.head == q.items.size()) {
    q.items.clear();
    q.head = 0;
    q.sorted_end = 0;
  } else if (q.head * 2 >= q.items.size()) {
    q.items.erase(q.items.begin(), q.items.begin() + static_cast<ptrdiff_t>(q.head));
    q.sorted_end -= q.head;
    q.head = 0;
  }
  q.min_deliver = q.head < q.items.size() ? q.items[q.head].deliver_at : kTimeNever;
}

void ShardGroup::AdvanceShards(TimeNs limit, bool inclusive) {
  for (;;) {
    const TimeNs n = SnapshotNextEvents();
    if (n > limit || (!inclusive && n == limit)) {
      break;
    }
    // Progress is guaranteed: the shard holding the earliest event has a
    // horizon at least min-inbound-lookahead past it (lookaheads are > 0),
    // so that event runs this window.
    PlanWindow(limit, inclusive);
    RunWindow();
    ++stats_.windows;
  }
  // Quiesce: no shard holds an event before (at, when inclusive) `limit`;
  // park every clock exactly there so code running at the sync point reads
  // coherent clocks.
  for (const auto& shard : shards_) {
    if (inclusive) {
      shard->RunUntil(limit);
    } else {
      shard->RunUntilBefore(limit);
    }
  }
}

void ShardGroup::RunControlBatch(TimeNs t) {
  // Quiesce the shards AT the batch's timestamp, then run every control
  // event at or before it under that single quiesce. Control code observes
  // — and may mutate — exactly the state the single-simulator schedule
  // would have produced.
  AdvanceShards(t, /*inclusive=*/false);
  control_->RunUntil(t);
  ++stats_.sync_points;
}

void ShardGroup::RunUntil(TimeNs t) {
  // Control events are global sync points, batched per distinct timestamp:
  // a burst of same-instant arrivals or a monitor tick plus a metrics tick
  // costs ONE quiesce.
  for (;;) {
    const TimeNs t_control = control_->NextEventTime();
    if (t_control > t) {
      break;
    }
    RunControlBatch(t_control);
  }
  // No control events remain at or before `t`: finish shard events through
  // `t` (inclusive, matching Simulator::RunUntil) and park the clocks.
  AdvanceShards(t, /*inclusive=*/true);
  control_->RunUntil(t);
}

}  // namespace pegasus::sim
