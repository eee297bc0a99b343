#include "src/sim/event_queue.h"

namespace pegasus::sim {

namespace {

constexpr uint64_t kSlotMask = 0xFFFFFFFFull;

uint64_t PackId(uint32_t slot, uint32_t gen) {
  // slot+1 keeps the value nonzero so EventId{}.valid() stays false.
  return (static_cast<uint64_t>(gen) << 32) | (static_cast<uint64_t>(slot) + 1);
}

}  // namespace

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return static_cast<uint32_t>(slot_count_++);
}

EventId Simulator::Enqueue(TimeNs t, uint32_t index) {
  if (t < now_) {
    t = now_;
  }
  Slot& slot = SlotAt(index);
  slot.seq = next_seq_;
  const int bucket = BucketOf(t, base_);
  buckets_[bucket].push_back(Entry{t, next_seq_, index});
  occupied_ |= uint64_t{1} << bucket;
  ++next_seq_;
  ++live_;
  return EventId{PackId(index, slot.gen)};
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.ops->destroy(slot.storage);
  slot.ops = nullptr;
  slot.seq = 0;
  ++slot.gen;
  free_slots_.push_back(index);
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>((id.value & kSlotMask) - 1);
  const uint32_t gen = static_cast<uint32_t>(id.value >> 32);
  if (index >= slot_count_) {
    return false;
  }
  Slot& slot = SlotAt(index);
  if (slot.gen != gen || slot.seq == 0) {
    // Already ran, already cancelled, or the slot moved on to a newer event.
    return false;
  }
  // The queue entry stays behind as a tombstone; the pop path discards it by
  // seeing a seq mismatch. The slot itself is reusable right away.
  ReleaseSlot(index);
  --live_;
  return true;
}

TimeNs Simulator::NextEventTime() {
  std::vector<Entry>& front = buckets_[0];
  while (head_ < front.size() && !EntryLive(front[head_])) {
    ++head_;
  }
  if (head_ < front.size()) {
    return base_;
  }
  front.clear();
  head_ = 0;
  occupied_ &= ~uint64_t{1};
  // The lowest occupied bucket holds the earliest entries. A bucket left
  // holding only tombstones is dropped.
  while (occupied_ != 0) {
    const int k = __builtin_ctzll(occupied_);
    TimeNs earliest = kTimeNever;
    bool any_live = false;
    for (const Entry& e : buckets_[k]) {
      if (e.time <= earliest && EntryLive(e)) {
        earliest = e.time;
        any_live = true;
      }
    }
    if (any_live) {
      return earliest;
    }
    buckets_[k].clear();
    occupied_ &= ~(uint64_t{1} << k);
  }
  return kTimeNever;
}

bool Simulator::SettleFront(TimeNs bound) {
  // NextEventTime leaves occupied_ empty exactly when nothing is pending.
  const TimeNs earliest = NextEventTime();
  if (occupied_ == 0 || earliest > bound) {
    return false;
  }
  if (head_ < buckets_[0].size()) {
    return true;
  }
  // Re-base onto the earliest entry: the lowest occupied bucket's entries
  // move into lower buckets (the ones at that time into bucket 0), each in
  // stored order; tombstones are dropped on the way.
  const int k = __builtin_ctzll(occupied_);
  std::vector<Entry>& bucket = buckets_[k];
  base_ = earliest;
  for (const Entry& e : bucket) {
    if (EntryLive(e)) {
      const int to = BucketOf(e.time, base_);
      buckets_[to].push_back(e);
      occupied_ |= uint64_t{1} << to;
    }
  }
  bucket.clear();
  occupied_ &= ~(uint64_t{1} << k);
  return true;
}

void Simulator::RunFront() {
  const Entry entry = buckets_[0][head_++];
  now_ = entry.time;
  // Mark the slot as run before invoking, so a closure cancelling its own id
  // gets false. The closure runs in place and its slot is freed only once it
  // returns, so whatever it schedules lands in other slots.
  Slot& slot = SlotAt(entry.slot);
  slot.seq = 0;
  --live_;
  ++executed_;
  slot.ops->invoke(slot.storage);
  ReleaseSlot(entry.slot);
}

bool Simulator::Step() {
  if (!SettleFront(kTimeNever)) {
    return false;
  }
  RunFront();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(TimeNs t) {
  while (SettleFront(t)) {
    RunFront();
  }
  if (now_ < t) {
    now_ = t;
  }
}

void Simulator::RunUntilBefore(TimeNs t) {
  while (SettleFront(t - 1)) {
    RunFront();
  }
  if (now_ < t) {
    now_ = t;
  }
}

bool Simulator::RunUntilPredicate(const std::function<bool()>& pred) {
  if (pred()) {
    return true;
  }
  while (Step()) {
    if (pred()) {
      return true;
    }
  }
  return false;
}

}  // namespace pegasus::sim
