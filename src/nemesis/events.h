// Nemesis events and inter-domain communication (§3.4).
//
// Events are value-less: they only indicate that *something* occurred.
// A closure associated with the channel at the receiving side interprets the
// occurrence (shared object updated, message arrived, time passed...), which
// is exactly how the paper hides heterogeneity from the event dispatcher.
//
// Inter-domain calls are built from a pair of message queues in shared
// memory plus a pair of event channels. A channel may be *synchronous* —
// signalling it makes the sender voluntarily give up the processor to the
// signalled domain (lowest call latency) — or *asynchronous* — the sender
// keeps the CPU (best for a demultiplexer posting to many clients).
#ifndef PEGASUS_SRC_NEMESIS_EVENTS_H_
#define PEGASUS_SRC_NEMESIS_EVENTS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/nemesis/domain.h"
#include "src/nemesis/memory.h"

namespace pegasus::nemesis {

class Kernel;

class EventChannel {
 public:
  // The closure invoked at delivery; receives post time and delivery time.
  using Closure = std::function<void(sim::TimeNs posted_at, sim::TimeNs delivered_at)>;

  EventChannel(uint64_t id, Domain* source, Domain* destination, bool synchronous)
      : id_(id), source_(source), destination_(destination), synchronous_(synchronous) {}

  uint64_t id() const { return id_; }
  Domain* source() const { return source_; }
  Domain* destination() const { return destination_; }
  bool synchronous() const { return synchronous_; }

  void set_closure(Closure closure) { closure_ = std::move(closure); }
  const Closure& closure() const { return closure_; }

  void RecordSent() { ++sent_; }
  void RecordDelivered() { ++delivered_; }

  uint64_t sent() const { return sent_; }
  uint64_t delivered() const { return delivered_; }

 private:
  uint64_t id_;
  Domain* source_;
  Domain* destination_;
  bool synchronous_;
  Closure closure_;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
};

// A bounded single-producer single-consumer message ring in a shared-memory
// stretch, one direction of an inter-domain call channel. The ring's bytes
// live in the single address space; producer and consumer access them with
// their own protection-domain rights (write for the producer, read for the
// consumer), demonstrating §3.1's sharing model.
class SharedMessageQueue {
 public:
  // `slot_size` is the maximum message payload; the queue allocates
  // slots * (4 + slot_size) bytes from `space`.
  SharedMessageQueue(AddressSpace* space, ProtectionDomain* producer, ProtectionDomain* consumer,
                     size_t slots, size_t slot_size);

  // False if the queue is full or the message exceeds the slot size.
  bool Push(const std::vector<uint8_t>& message);
  std::optional<std::vector<uint8_t>> Pop();

  size_t size() const { return count_; }
  size_t capacity() const { return slots_; }
  bool full() const { return count_ == slots_; }

 private:
  AddressSpace* space_;
  ProtectionDomain* producer_;
  ProtectionDomain* consumer_;
  Stretch* stretch_;
  size_t slots_;
  size_t slot_size_;
  size_t head_ = 0;  // next slot to pop
  size_t tail_ = 0;  // next slot to push
  size_t count_ = 0;
};

// The paper's inter-domain call primitive: a pair of shared-memory message
// queues plus a pair of event channels between a client and a server domain.
class IpcChannel {
 public:
  // Created via Kernel::CreateIpcChannel.
  IpcChannel(Kernel* kernel, AddressSpace* space, Domain* client, Domain* server, size_t slots,
             size_t slot_size, bool synchronous);

  Domain* client() const { return client_; }
  Domain* server() const { return server_; }

  // Client-side: enqueue a request and signal the server.
  bool SendRequest(const std::vector<uint8_t>& message);
  // Server-side: dequeue the next request, if any.
  std::optional<std::vector<uint8_t>> ReceiveRequest();
  // Server-side: enqueue a reply and signal the client.
  bool SendReply(const std::vector<uint8_t>& message);
  // Client-side: dequeue the next reply, if any.
  std::optional<std::vector<uint8_t>> ReceiveReply();

  EventChannel* request_event() const { return request_event_; }
  EventChannel* reply_event() const { return reply_event_; }

 private:
  Kernel* kernel_;
  Domain* client_;
  Domain* server_;
  SharedMessageQueue requests_;
  SharedMessageQueue replies_;
  EventChannel* request_event_;
  EventChannel* reply_event_;
};

}  // namespace pegasus::nemesis

#endif  // PEGASUS_SRC_NEMESIS_EVENTS_H_
