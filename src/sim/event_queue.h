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
//   - Handlers are stored in an inline small-buffer callable (Handler), so
//     closures up to kInlineSize bytes never touch the heap. Larger ones
//     fall back to a single allocation.
//   - Handlers live in a slab of reusable slots; the priority queue holds
//     only small POD entries {time, seq, slot}.
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
#include <queue>
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
  // Move-only type-erased callable with inline storage: the replacement for
  // std::function<void()> on the event hot path. Any callable whose size is
  // at most kInlineSize (and that is nothrow-move-constructible) is stored
  // in place; anything bigger goes through one heap allocation.
  class Handler {
   public:
    // Big enough for the data plane's worst closure (a Cell captured by
    // value plus a couple of pointers) without making slots cache-hostile.
    static constexpr size_t kInlineSize = 96;

    Handler() = default;
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Handler> &&
                                          std::is_invocable_r_v<void, std::decay_t<F>&>>>
    Handler(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        new (storage_) Fn(std::forward<F>(f));
        ops_ = &kInlineOps<Fn>;
      } else {
        *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
        ops_ = &kHeapOps<Fn>;
      }
    }
    Handler(Handler&& other) noexcept { MoveFrom(other); }
    Handler& operator=(Handler&& other) noexcept {
      if (this != &other) {
        Reset();
        MoveFrom(other);
      }
      return *this;
    }
    Handler(const Handler&) = delete;
    Handler& operator=(const Handler&) = delete;
    ~Handler() { Reset(); }

    explicit operator bool() const { return ops_ != nullptr; }
    void operator()() { ops_->invoke(storage_); }

   private:
    struct Ops {
      void (*invoke)(void* self);
      // Move-constructs `dst` from `src` and destroys `src`.
      void (*relocate)(void* dst, void* src);
      void (*destroy)(void* self);
    };

    template <typename Fn>
    static void InlineInvoke(void* self) {
      (*std::launder(reinterpret_cast<Fn*>(self)))();
    }
    template <typename Fn>
    static void InlineRelocate(void* dst, void* src) {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    template <typename Fn>
    static void InlineDestroy(void* self) {
      std::launder(reinterpret_cast<Fn*>(self))->~Fn();
    }
    template <typename Fn>
    static void HeapInvoke(void* self) {
      (**std::launder(reinterpret_cast<Fn**>(self)))();
    }
    template <typename Fn>
    static void HeapRelocate(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = *std::launder(reinterpret_cast<Fn**>(src));
    }
    template <typename Fn>
    static void HeapDestroy(void* self) {
      delete *std::launder(reinterpret_cast<Fn**>(self));
    }

    template <typename Fn>
    static constexpr Ops kInlineOps{&InlineInvoke<Fn>, &InlineRelocate<Fn>, &InlineDestroy<Fn>};
    template <typename Fn>
    static constexpr Ops kHeapOps{&HeapInvoke<Fn>, &HeapRelocate<Fn>, &HeapDestroy<Fn>};

    void Reset() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
        ops_ = nullptr;
      }
    }
    void MoveFrom(Handler& other) {
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  TimeNs now() const { return now_; }

  // Schedules `fn` to run at absolute time `t`. Times in the past are clamped
  // to `now` (the event still runs, immediately after current-time events).
  EventId ScheduleAt(TimeNs t, Handler fn);

  // Schedules `fn` to run `d` after the current time (d < 0 clamps to now).
  EventId ScheduleAfter(DurationNs d, Handler fn) { return ScheduleAt(now_ + d, std::move(fn)); }

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
  // queue is empty. Non-const: stale (cancelled) heads are skimmed off.
  TimeNs NextEventTime();

  // Runs events until `pred()` is true (checked after each event) or the
  // queue drains. Returns true if the predicate fired.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  // Number of pending (non-cancelled) events.
  size_t pending() const { return live_; }

  // Total events executed since construction; useful as a progress metric.
  uint64_t executed() const { return executed_; }

 private:
  // A pending event's handler plus the identity needed to validate heap
  // entries and EventIds against slot reuse. seq/gen lead the layout so the
  // pop path's liveness check and the head of the handler's inline storage
  // share a cache line.
  struct Slot {
    uint64_t seq = 0;  // seq of the current occupant; 0 when the slot is free
    uint32_t gen = 1;  // bumped on every release; pins EventId validity
    Handler fn;
  };
  // What the priority queue actually sorts: 24 PODs bytes, no handler.
  struct HeapEntry {
    TimeNs time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events; also the
                   // staleness check against the slot's current occupant
    uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // The slab is chunked so slots have stable addresses: growing it never
  // relocates live handlers (std::vector growth would move-construct every
  // slot through the Handler vtable).
  static constexpr size_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Slot& SlotAt(uint32_t index) const {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  bool EntryLive(const HeapEntry& e) const { return SlotAt(e.slot).seq == e.seq; }
  // Pops entries whose slot was cancelled (and possibly reused) off the
  // head. Returns false when the queue is empty afterwards.
  bool SkimStaleHead();
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  size_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> queue_;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_EVENT_QUEUE_H_
