// Region-sharded conservative simulation.
//
// A ShardGroup runs K `Simulator` shards side by side, synchronized the
// classic conservative way, with PER-CHANNEL lookahead: every directed
// boundary channel (for an ATM link, one direction of a cross-shard trunk)
// guarantees that a message emitted by its source shard at time t cannot be
// observed by the destination before t + L_channel. At the start of each
// window the group snapshots every shard's earliest pending event and gives
// each shard its own horizon
//
//     horizon(d) = min over inbound channels c of
//                  ( next_event(source(c)) + L_c )
//
// — the source cannot emit anything on c before its own next event runs, so
// nothing can reach d before that bound. A shard whose inbound neighbours
// are idle (no pending events) is unconstrained and runs straight to the
// next sync point, however small some distant pair's lookahead is; a shard
// adjacent only to wide channels never crawls at the group-wide minimum.
//
// Cross-shard traffic crosses through per-channel mailboxes, batched and
// DEFERRED: the trains a channel posts accumulate in a shard-local staging
// batch (records + one byte arena, no per-train allocation) across as many
// windows as the destination's horizon allows, and the batch crosses the
// mailbox as a single two-buffer swap only when the horizon first covers
// one of its records — one hand-off per (channel, catch-up), not one per
// train or even one per window. Windows with zero boundary traffic skip
// the merge pass entirely.
// Received records then wait in a per-destination pending queue and are
// scheduled only once the destination's horizon passes their delivery
// time. That release discipline is what keeps the merge deterministic
// UNDER per-shard horizons: the conservative invariant guarantees every
// record bound for time T has crossed the mailbox before any horizon
// exceeds T, so all records for one (destination, T) are released in the
// same batch, in (delivery time, channel registration order, emission
// order) order — a total order independent of how regions were
// partitioned.
//
// One external `Simulator` (typically the PegasusSystem clock) acts as the
// CONTROL shard: its events — workload arrivals, admission, QoS-monitor
// ticks — are global synchronisation points. RunControlBatch quiesces all
// shards with their clocks parked at exactly the control timestamp and then
// runs EVERY control event at that timestamp as one batch (a Poisson
// arrival burst, a co-periodic monitor + metrics tick) under a single
// quiesce, so control code may read and mutate any shard's state exactly as
// it does under the single-simulator engine. That discipline is what makes
// the sharded run reproduce the unsharded results bit for bit: sharding
// changes wall clock only, never outcomes.
//
// Every window runs on the thread that calls RunUntil, shard by shard in
// index order. On the metro fleet a cross-thread barrier per window cost
// more than the window's work, so the partition serves memory locality
// (each region keeps its own small event heap) and exercises the window
// protocol, not parallelism.
#ifndef PEGASUS_SRC_SIM_SHARD_H_
#define PEGASUS_SRC_SIM_SHARD_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace pegasus::sim {

class ShardGroup;

// The outbox of one directed boundary link. The source shard posts
// timestamped work while it executes windows; the postings accumulate in a
// staging batch that crosses the mailbox as a single swap only once the
// destination's horizon needs its earliest record — typically several
// windows' worth of trains per swap. Channels are created by
// ShardGroup::RegisterBoundary and owned by the group.
class BoundaryChannel {
 public:
  // Delivers a span previously posted with PostSpan. `data` points into the
  // batch arena and is valid only for the duration of the call.
  using SpanDeliverFn = void (*)(void* ctx, const void* data, size_t size);

  // Called from the source shard's event handlers only. `deliver_at` must
  // honour the channel's registered lookahead (emission time + at least the
  // link propagation delay); the conservative window invariant depends on
  // it.
  void Post(TimeNs deliver_at, std::function<void()> fn) {
    assert(deliver_at >= src_sim_->now() + lookahead_);
    Batch& b = Staging();
    staging_min_ = std::min(staging_min_, deliver_at);
    b.posts.push_back(PostRecord{deliver_at, next_order_++, std::move(fn)});
  }

  // Batched variant for POD payloads (the data plane's cell trains): the
  // bytes are copied into the channel's window arena — no per-train
  // allocation, no closure — and `fn(ctx, bytes, size)` runs
  // on the destination shard at `deliver_at`. Same lookahead contract as
  // Post.
  void PostSpan(TimeNs deliver_at, const void* data, size_t size, SpanDeliverFn fn, void* ctx) {
    assert(deliver_at >= src_sim_->now() + lookahead_);
    Batch& b = Staging();
    staging_min_ = std::min(staging_min_, deliver_at);
    const size_t offset =
        (b.arena.size() + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);
    b.arena.resize(offset + size);
    std::memcpy(b.arena.data() + offset, data, size);
    b.spans.push_back(SpanRecord{deliver_at, next_order_++, fn, ctx,
                                 static_cast<uint32_t>(offset), static_cast<uint32_t>(size)});
  }

  DurationNs lookahead() const { return lookahead_; }

 private:
  friend class ShardGroup;
  struct SpanRecord {
    TimeNs deliver_at;
    uint64_t order;  // per-channel emission order (monotone across windows)
    SpanDeliverFn fn;
    void* ctx;
    uint32_t offset;  // into the batch arena
    uint32_t size;
  };
  struct PostRecord {
    TimeNs deliver_at;
    uint64_t order;
    std::function<void()> fn;
  };
  // One window's postings on one channel: the unit that crosses the
  // mailbox. Span payload bytes live in `arena`; the records index into it.
  // Destination-side, the batch is shared by the per-delivery events and
  // freed when the last one has run.
  struct Batch {
    uint32_t channel = 0;
    std::vector<SpanRecord> spans;
    std::vector<PostRecord> posts;
    std::vector<unsigned char> arena;
  };

  BoundaryChannel(ShardGroup* group, Simulator* src_sim, int dst, uint32_t id,
                  DurationNs lookahead)
      : group_(group), src_sim_(src_sim), dst_(dst), id_(id), lookahead_(lookahead) {}

  // The batch being filled this window; allocated lazily so quiet channels
  // cost nothing, and registered dirty with the group on first use.
  Batch& Staging();

  ShardGroup* group_;
  Simulator* src_sim_;
  int dst_;
  uint32_t id_;  // registration order; merge tie-breaker across channels
  DurationNs lookahead_;
  uint64_t next_order_ = 0;
  std::unique_ptr<Batch> staging_;
  // Earliest deliver_at in staging_; kTimeNever when staging_ is empty.
  // Read between windows to decide when the batch must cross.
  TimeNs staging_min_ = kTimeNever;
};

class ShardGroup {
 public:
  struct Options {
    int shards = 1;
  };

  struct Stats {
    uint64_t windows = 0;      // conservative windows executed
    uint64_t sync_points = 0;  // control-batch quiesce points
    uint64_t messages = 0;     // boundary records delivered (spans + posts)
    uint64_t handoffs = 0;     // staging-batch swaps across the mailbox; deferral makes
                               // one swap carry every train staged since the
                               // destination last caught up
    uint64_t merges = 0;       // windows that pulled at least one batch across
                               // (zero-traffic windows skip the merge pass)
  };

  // `control` is the externally owned control simulator (see the class
  // comment). Shard simulators are created and owned by the group.
  ShardGroup(Simulator* control, Options options);

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  Simulator* control() const { return control_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  // Windows always run on the calling thread.
  int thread_count() const { return 1; }
  Simulator* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  // Index of `s` among the shards, or -1 (control / foreign simulator).
  int shard_index(const Simulator* s) const;

  // Declares a directed boundary link from `src`'s shard to `dst`'s shard
  // whose earliest cross-shard effect lags emission by `lookahead` (> 0;
  // for an ATM link, its propagation delay). Only the destination shard's
  // windows are bounded by it — per-channel lookahead, not a group-wide
  // minimum. Both simulators must be shards of this group.
  BoundaryChannel* RegisterBoundary(Simulator* src, Simulator* dst, DurationNs lookahead);

  // Runs every shard and the control simulator through time `t`, with
  // RunUntil(t) semantics on each clock (events at exactly `t` run; all
  // clocks end at `t`). Callable repeatedly with increasing times.
  void RunUntil(TimeNs t);

  // Quiesces every shard at `t` — no shard event before `t` left pending,
  // every shard clock parked at exactly `t` — and then runs ALL control
  // events at or before `t` as ONE batch. Consecutive control events at the
  // same timestamp (a Poisson arrival burst, a monitor tick plus a metrics
  // tick) cost a single quiesce, not one per event. One sync point is
  // charged per batch. RunUntil is a loop over this primitive.
  void RunControlBatch(TimeNs t);

  const Stats& stats() const { return stats_; }
  // Smallest registered boundary lookahead, or kTimeNever when no boundary
  // has been registered. Purely informational: windows are bounded per
  // channel, never by this minimum.
  DurationNs lookahead() const { return min_lookahead_; }

 private:
  friend class BoundaryChannel;

  // What one shard does inside the current window.
  enum class WindowMode : uint8_t {
    kSkip = 0,       // no event before its horizon; not touched at all
    kExclusive = 1,  // RunUntilBefore(horizon)
    kInclusive = 2,  // RunUntil(horizon) — end-of-run windows only
  };

  // Runs conservative windows until no shard holds an event before `limit`
  // (`inclusive` widens that to "at or before"), then parks every shard
  // clock at `limit`.
  void AdvanceShards(TimeNs limit, bool inclusive);
  // Fills next_times_ with every shard's earliest pending work — scheduled
  // events and unreleased boundary records both — and returns the minimum.
  TimeNs SnapshotNextEvents();
  // Computes per-shard horizons/modes for one window from the next_times_
  // snapshot and releases every pending boundary record the new horizons
  // cover.
  void PlanWindow(TimeNs limit, bool inclusive);
  // One window: every planned shard runs to its own horizon.
  void RunWindow();
  // Moves channels that posted since the last call onto their destination's
  // staged list (no swap yet — the batch keeps accumulating until a horizon
  // needs it). O(channels newly dirtied); a window with zero boundary
  // traffic falls straight through.
  void StageOutboxes();
  // Swaps every staged channel of shard d whose earliest record the new
  // horizon covers, indexing its records into d's pending queue. Deferring
  // the swap to this point lets one hand-off carry every window's trains
  // accumulated since the destination last caught up.
  void CollectStaged(size_t d, TimeNs bound);
  // Schedules every pending record for shard d with deliver_at < bound, in
  // the deterministic (deliver_at, channel registration, emission order)
  // merge. The caller passes the shard's window horizon: by the invariant
  // above, every record with deliver_at below it has already arrived.
  void ReleasePending(size_t d, TimeNs bound);

  Simulator* control_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::unique_ptr<BoundaryChannel>> channels_;
  DurationNs min_lookahead_ = kTimeNever;
  Stats stats_;

  // Per destination shard: the inbound (source shard, lookahead) bounds,
  // collapsed to the tightest lookahead per source pair.
  struct InboundBound {
    int src;
    DurationNs lookahead;
  };
  std::vector<std::vector<InboundBound>> inbound_;

  // Window plan, written by PlanWindow and read by RunWindow.
  std::vector<TimeNs> next_times_;
  // next_times_ relaxed to a fixpoint over the channel graph: the earliest
  // instant each shard could execute anything this window, counting events
  // it may still receive (transitively) from other shards. Scratch for
  // PlanWindow, kept as a member to avoid per-window allocation.
  std::vector<TimeNs> effective_;
  std::vector<TimeNs> horizons_;
  std::vector<WindowMode> modes_;

  // Channels that started a fresh staging batch since the last window.
  std::vector<BoundaryChannel*> dirty_;
  // Dirty channels grouped by DESTINATION, plus the earliest staged
  // deliver_at per destination. A channel sits here — its staging batch
  // still accumulating — until the destination's horizon first covers one
  // of its records; only then does the batch cross the mailbox.
  std::vector<std::vector<BoundaryChannel*>> staged_;
  std::vector<TimeNs> staged_min_;

  // One received-but-unreleased boundary record. The shared batch keeps the
  // payload arena (and the posts' handlers) alive until the last delivery
  // from it has run.
  struct PendingRecord {
    TimeNs deliver_at;
    uint64_t order;
    uint32_t channel;
    uint32_t index;
    bool is_span;
    std::shared_ptr<BoundaryChannel::Batch> batch;
  };
  // Per-destination holding area. Records append raw at collect time; the
  // release pass sorts the unreleased tail on demand and consumes a prefix,
  // compacting amortised O(1) per record.
  struct PendingQueue {
    std::vector<PendingRecord> items;
    size_t head = 0;        // items before head are released
    size_t sorted_end = 0;  // items[head, sorted_end) are sorted; the rest raw
    TimeNs min_deliver = kTimeNever;
  };
  std::vector<PendingQueue> pending_;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_SHARD_H_
