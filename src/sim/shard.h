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
// A boundary channel carries delivery times, not payloads. What crosses a
// boundary (for an ATM link, a cell train) stays where its source put it —
// the link's own buffer — and the channel only records when the
// destination must look at it: each channel fixes one `deliver(ctx, at)` at
// registration, and Post(at) appends {at, emission order} to the channel's
// staging vector. Posts accumulate there across as many windows as the
// destination's horizon allows and are handed to the destination only when
// its horizon first covers one of them — one hand-off per (channel,
// catch-up), not one per post or even one per window. Windows with zero
// boundary traffic skip the merge pass entirely.
// Handed-off records then wait in a per-destination pending queue and are
// scheduled only once the destination's horizon passes their delivery
// time. That release discipline is what keeps the merge deterministic
// UNDER per-shard horizons: the conservative invariant guarantees every
// record bound for time T has been posted before any horizon exceeds T, so
// all records for one (destination, T) are released in the same pass, in
// (delivery time, channel registration order, emission order) order — a
// total order independent of how regions were partitioned.
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
// protocol, not parallelism. On one thread the destination can read a
// boundary's payload in place, so nothing is copied across a channel.
#ifndef PEGASUS_SRC_SIM_SHARD_H_
#define PEGASUS_SRC_SIM_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace pegasus::sim {

class ShardGroup;

// One directed boundary: the delivery times its source shard has posted
// and the destination has not yet taken over. Channels are created by
// ShardGroup::RegisterBoundary and owned by the group.
class BoundaryChannel {
 public:
  // Runs on the destination shard with `at` == that shard's now().
  using DeliverFn = void (*)(void* ctx, TimeNs at);

  // Called from the source shard's event handlers only. `deliver_at` must
  // honour the channel's registered lookahead (emission time + at least the
  // link propagation delay); the conservative window invariant depends on
  // it.
  void Post(TimeNs deliver_at);

 private:
  friend class ShardGroup;
  // One posted delivery time, staged here and then pending at the
  // destination until its release.
  struct Record {
    TimeNs deliver_at;
    uint64_t order;    // per-channel emission order (monotone across hand-offs)
    uint32_t channel;  // the channel's id_: merge tie-breaker across channels
  };

  BoundaryChannel(ShardGroup* group, Simulator* src_sim, int dst, uint32_t id,
                  DurationNs lookahead, DeliverFn deliver, void* ctx)
      : group_(group),
        src_sim_(src_sim),
        dst_(dst),
        id_(id),
        lookahead_(lookahead),
        deliver_(deliver),
        ctx_(ctx) {}

  ShardGroup* group_;
  Simulator* src_sim_;
  int dst_;
  uint32_t id_;  // registration order: this channel's index in the group
  DurationNs lookahead_;
  DeliverFn deliver_;
  void* ctx_;
  uint64_t next_order_ = 0;
  // Posts not yet handed to the destination; cleared, not freed, at each
  // hand-off.
  std::vector<Record> staging_;
  // Earliest deliver_at in staging_; kTimeNever when staging_ is empty.
  // Read between windows to decide when the posts must be handed over.
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
    uint64_t messages = 0;     // boundary records delivered
    uint64_t handoffs = 0;     // channel staging vectors handed to a destination;
                               // deferral makes one hand-off carry every post
                               // staged since the destination last caught up
    uint64_t merges = 0;       // windows that took over at least one channel's
                               // posts (zero-traffic windows skip the merge pass)
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

  // Declares a directed boundary from `src`'s shard to `dst`'s shard whose
  // earliest cross-shard effect lags emission by `lookahead` (> 0; for an
  // ATM link, its propagation delay). Each delivery time posted on the
  // returned channel runs `deliver(ctx, at)` on `dst` at `at`. Only the
  // destination shard's windows are bounded by the lookahead — per-channel
  // lookahead, not a group-wide minimum. Both simulators must be shards of
  // this group.
  BoundaryChannel* RegisterBoundary(Simulator* src, Simulator* dst, DurationNs lookahead,
                                    BoundaryChannel::DeliverFn deliver, void* ctx);

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

 private:
  friend class BoundaryChannel;

  // What one shard does inside the current window.
  enum class WindowMode : uint8_t {
    kSkip = 0,       // no event before its horizon; not touched at all
    kExclusive = 1,  // RunUntilBefore(horizon)
    kInclusive = 2,  // RunUntil(horizon) — end-of-run windows only
  };

  // Index of `s` among the shards, or -1 (control / foreign simulator).
  int shard_index(const Simulator* s) const;
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
  // Hands every staged channel of shard d whose earliest post the new
  // horizon covers over to d's pending queue. Deferring the hand-off to
  // this point lets one carry every window's posts accumulated since the
  // destination last caught up.
  void CollectStaged(size_t d, TimeNs bound);
  // Schedules every pending record for shard d with deliver_at < bound, in
  // the deterministic (deliver_at, channel registration, emission order)
  // merge. The caller passes the shard's window horizon: by the invariant
  // above, every record with deliver_at below it has already arrived.
  void ReleasePending(size_t d, TimeNs bound);

  Simulator* control_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::unique_ptr<BoundaryChannel>> channels_;
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

  // Per DESTINATION: the channels holding posts not yet handed over, in the
  // order of their first post since their last hand-off, plus the earliest
  // staged deliver_at. A channel sits here — still accumulating — until the
  // destination's horizon first covers one of its posts.
  std::vector<std::vector<BoundaryChannel*>> staged_;
  std::vector<TimeNs> staged_min_;

  // Per-destination holding area for handed-over, unreleased records.
  // Records append raw at collect time; the release pass sorts the
  // unreleased tail on demand and consumes a prefix, compacting amortised
  // O(1) per record.
  struct PendingQueue {
    std::vector<BoundaryChannel::Record> items;
    size_t head = 0;        // items before head are released
    size_t sorted_end = 0;  // items[head, sorted_end) are sorted; the rest raw
    TimeNs min_deliver = kTimeNever;
  };
  std::vector<PendingQueue> pending_;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_SHARD_H_
