// Discrete-event simulation engine.
//
// A Simulator owns the virtual clock and a time-ordered queue of pending
// events. Components schedule closures at absolute or relative times; the
// main loop pops them in (time, insertion-order) order, so runs are fully
// deterministic. Events can be cancelled, which is used for timer-style
// behaviour (retransmission timers, scheduler preemption points).
//
// Engine internals are built for cell-rate churn (the data plane schedules
// an event per cell train):
//   - Each event's closure is built in its slot, run there and destroyed
//     there: it is never wrapped or moved after scheduling. Closures up to
//     kInlineSize bytes never touch the heap; larger ones take one
//     allocation.
//   - Slots live in a slab and are reused; the queue holds only small POD
//     entries {time, seq, slot}.
//   - The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM
//     1990): 64 buckets keyed by the highest bit in which an entry's time
//     differs from a base time that never passes the clock. A push is an
//     append; a pop takes the front of bucket 0, and only when bucket 0 runs
//     dry is the lowest occupied bucket re-filed around its earliest time.
//     It is exact: events pop in (time, seq) order, as from a binary heap.
//   - EventIds carry the slot's generation, so Cancel is O(1), an id that
//     already ran (or was already cancelled) is rejected without any
//     bookkeeping growth, and a cancelled slot is reusable immediately.
#ifndef PEGASUS_SRC_SIM_EVENT_QUEUE_H_
#define PEGASUS_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace pegasus::sim {

// Opaque handle for cancelling a scheduled event. Encodes a slot index plus
// the slot's generation at schedule time, so a handle outliving its event
// can never cancel the slot's next occupant.
struct EventId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

class Simulator {
 public:
  // A default-aligned closure of at most this many bytes is built, run and
  // destroyed inside its event slot; a bigger one goes through one heap
  // allocation. The data plane's closures capture only their link or
  // switch and at most a time; the PFS and disk closures take 32 to 128
  // bytes. A 32-byte bound read no resolved gain on the metro fleet, so
  // the bound stays.
  static constexpr size_t kInlineSize = 96;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  TimeNs now() const { return now_; }

  // Schedules `fn` to run at absolute time `t`. Times in the past are clamped
  // to `now` (the event still runs, immediately after current-time events).
  template <typename F>
  EventId ScheduleAt(TimeNs t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "an event is a void() callable");
    const uint32_t index = AcquireSlot();
    Slot& slot = SlotAt(index);
    if constexpr (kFitsInline<Fn>) {
      new (slot.storage) Fn(std::forward<F>(fn));
    } else {
      new (slot.storage) Fn*(new Fn(std::forward<F>(fn)));
    }
    slot.ops = &kOps<Fn>;
    return Enqueue(t, index);
  }

  // Schedules `fn` to run `d` after the current time (d < 0 clamps to now).
  template <typename F>
  EventId ScheduleAfter(DurationNs d, F&& fn) {
    return ScheduleAt(now_ + d, std::forward<F>(fn));
  }

  // Cancels a pending event. Returns true if the event had not yet run;
  // cancelling an id that already ran (or was already cancelled) returns
  // false and records nothing.
  bool Cancel(EventId id);

  // Runs a single event. Returns false when the queue is empty.
  bool Step();

  // Runs events until the queue drains.
  void Run();

  // Runs events with time <= `t`, then sets the clock to exactly `t`.
  void RunUntil(TimeNs t);

  // Bounded-horizon variant: runs events with time strictly BEFORE `t`,
  // then sets the clock to exactly `t`, leaving events at `t` and later
  // pending. This is the window primitive of conservative sharded
  // simulation (src/sim/shard.h): a shard may execute up to — but not
  // into — the horizon its neighbours' lookahead guarantees safe.
  void RunUntilBefore(TimeNs t);

  // Absolute time of the earliest pending event, or kTimeNever when the
  // queue is empty. Non-const: cancelled entries are dropped on the way. It
  // only looks: the queue's base stays put, so any time >= now() may still
  // be scheduled.
  TimeNs NextEventTime();

  // Runs events until `pred()` is true (checked after each event) or the
  // queue drains. Returns true if the predicate fired.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  // Number of pending (non-cancelled) events.
  size_t pending() const { return live_; }

  // Total events executed since construction; useful as a progress metric.
  uint64_t executed() const { return executed_; }

 private:
  // One table per closure type: how to run the closure in a slot's storage
  // and how to destroy it there.
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t);

  // The closure held in `storage`: in place, or behind a heap pointer.
  template <typename Fn>
  static Fn& ClosureIn(void* storage) {
    if constexpr (kFitsInline<Fn>) {
      return *std::launder(reinterpret_cast<Fn*>(storage));
    } else {
      return **std::launder(reinterpret_cast<Fn**>(storage));
    }
  }
  template <typename Fn>
  static void Invoke(void* storage) {
    ClosureIn<Fn>(storage)();
  }
  template <typename Fn>
  static void Destroy(void* storage) {
    if constexpr (kFitsInline<Fn>) {
      ClosureIn<Fn>(storage).~Fn();
    } else {
      delete &ClosureIn<Fn>(storage);
    }
  }
  template <typename Fn>
  static constexpr Ops kOps{&Invoke<Fn>, &Destroy<Fn>};

  // A pending event's closure plus the identity needed to validate queue
  // entries and EventIds against slot reuse. seq/gen lead the layout so the
  // pop path's liveness check and the head of the closure's storage share a
  // cache line. A slot never moves: its closure lives in it.
  struct Slot {
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    // Destroys a closure still pending when the Simulator dies.
    ~Slot() {
      if (ops != nullptr) {
        ops->destroy(storage);
      }
    }

    uint64_t seq = 0;  // seq of the pending occupant; 0 when free or running
    uint32_t gen = 1;  // bumped on every release; pins EventId validity
    const Ops* ops = nullptr;  // null when the slot holds no closure
    alignas(std::max_align_t) unsigned char storage[kInlineSize];
  };
  // What the queue actually files: 24 bytes of POD, no closure.
  struct Entry {
    TimeNs time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events; also the
                   // staleness check against the slot's current occupant
    uint32_t slot;
  };

  // Bucket k > 0 holds the entries whose time first differs from base_ in
  // bit k-1; bucket 0 holds those at base_. Every pending time is >= base_
  // and fits in 63 bits, so 64 buckets cover them all.
  //
  // Same-time entries always share a bucket, because an entry's bucket
  // depends only on its time and base_. The earlier seq was appended first,
  // and re-filing a bucket preserves its stored order. So the pop order is
  // exactly (time, seq).
  static constexpr int kBuckets = 64;
  static int BucketOf(TimeNs t, TimeNs base) {
    const uint64_t diff = static_cast<uint64_t>(t ^ base);
    return diff == 0 ? 0 : 64 - __builtin_clzll(diff);
  }

  // The slab is chunked so slots have stable addresses: a closure runs in
  // its slot, and the events it schedules may grow the slab meanwhile
  // (std::vector growth would move the running closure out from under it).
  static constexpr size_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Slot& SlotAt(uint32_t index) const {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  bool EntryLive(const Entry& e) const { return SlotAt(e.slot).seq == e.seq; }
  // Returns true when the earliest pending event falls due at or before
  // `bound`; it is then buckets_[0][head_]. It re-bases only onto such an
  // event, so base_ <= now_ holds once that event runs, and every later
  // ScheduleAt (t >= now_) files at or above base_. Returning false, it
  // leaves base_ where it was.
  bool SettleFront(TimeNs bound);
  // Pops the settled front, runs it and frees its slot.
  void RunFront();
  uint32_t AcquireSlot();
  // Queues the closure just built in slot `index` to run at `t`.
  EventId Enqueue(TimeNs t, uint32_t index);
  // Destroys the slot's closure and frees the slot.
  void ReleaseSlot(uint32_t index);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  size_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  TimeNs base_ = 0;
  uint64_t occupied_ = 0;  // bit k set while bucket k holds unconsumed entries
  size_t head_ = 0;        // bucket 0 is consumed FIFO from here
  std::vector<Entry> buckets_[kBuckets];
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_EVENT_QUEUE_H_
