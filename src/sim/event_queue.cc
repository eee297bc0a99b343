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
  queue_.push(HeapEntry{t, next_seq_, index});
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
  // The heap entry stays behind as a tombstone; the pop loop discards it by
  // seeing a seq mismatch. The slot itself is reusable right away.
  ReleaseSlot(index);
  --live_;
  return true;
}

bool Simulator::SkimStaleHead() {
  while (!queue_.empty() && !EntryLive(queue_.top())) {
    queue_.pop();
  }
  return !queue_.empty();
}

bool Simulator::Step() {
  if (!SkimStaleHead()) {
    return false;
  }
  const HeapEntry entry = queue_.top();
  queue_.pop();
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
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(TimeNs t) {
  while (SkimStaleHead() && queue_.top().time <= t) {
    Step();
  }
  if (now_ < t) {
    now_ = t;
  }
}

void Simulator::RunUntilBefore(TimeNs t) {
  while (SkimStaleHead() && queue_.top().time < t) {
    Step();
  }
  if (now_ < t) {
    now_ = t;
  }
}

TimeNs Simulator::NextEventTime() {
  return SkimStaleHead() ? queue_.top().time : kTimeNever;
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
