#include "src/nemesis/events.h"

#include "src/nemesis/kernel.h"

namespace pegasus::nemesis {

SharedMessageQueue::SharedMessageQueue(AddressSpace* space, ProtectionDomain* producer,
                                       ProtectionDomain* consumer, size_t slots, size_t slot_size)
    : space_(space),
      producer_(producer),
      consumer_(consumer),
      stretch_(space->AllocateStretch(slots * (4 + slot_size))),
      slots_(slots),
      slot_size_(slot_size) {
  // §3.1's example: "a unidirectional inter-domain communications channel
  // would be mapped read/write in the source and read-only at the sink".
  producer_->Grant(stretch_, AccessRights::ReadWrite());
  consumer_->Grant(stretch_, AccessRights::ReadOnly());
}

bool SharedMessageQueue::Push(const std::vector<uint8_t>& message) {
  if (full() || message.size() > slot_size_) {
    return false;
  }
  const VirtAddr slot = stretch_->base() + tail_ * (4 + slot_size_);
  const uint32_t len = static_cast<uint32_t>(message.size());
  uint8_t hdr[4] = {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
                    static_cast<uint8_t>(len >> 16), static_cast<uint8_t>(len >> 24)};
  if (!producer_->Write(stretch_, slot, hdr, 4)) {
    return false;
  }
  if (len > 0 && !producer_->Write(stretch_, slot + 4, message.data(), len)) {
    return false;
  }
  tail_ = (tail_ + 1) % slots_;
  ++count_;
  return true;
}

std::optional<std::vector<uint8_t>> SharedMessageQueue::Pop() {
  if (count_ == 0) {
    return std::nullopt;
  }
  const VirtAddr slot = stretch_->base() + head_ * (4 + slot_size_);
  uint8_t hdr[4];
  if (!consumer_->Read(stretch_, slot, hdr, 4)) {
    return std::nullopt;
  }
  const uint32_t len = static_cast<uint32_t>(hdr[0]) | static_cast<uint32_t>(hdr[1]) << 8 |
                       static_cast<uint32_t>(hdr[2]) << 16 | static_cast<uint32_t>(hdr[3]) << 24;
  std::vector<uint8_t> out(len);
  if (len > 0 && !consumer_->Read(stretch_, slot + 4, out.data(), len)) {
    return std::nullopt;
  }
  head_ = (head_ + 1) % slots_;
  --count_;
  return out;
}

IpcChannel::IpcChannel(Kernel* kernel, AddressSpace* space, Domain* client, Domain* server,
                       size_t slots, size_t slot_size, bool synchronous)
    : kernel_(kernel),
      client_(client),
      server_(server),
      requests_(space, &client->pdom(), &server->pdom(), slots, slot_size),
      replies_(space, &server->pdom(), &client->pdom(), slots, slot_size),
      request_event_(kernel->CreateChannel(client, server, synchronous)),
      reply_event_(kernel->CreateChannel(server, client, synchronous)) {}

bool IpcChannel::SendRequest(const std::vector<uint8_t>& message) {
  if (!requests_.Push(message)) {
    return false;
  }
  kernel_->SendEvent(request_event_);
  return true;
}

std::optional<std::vector<uint8_t>> IpcChannel::ReceiveRequest() { return requests_.Pop(); }

bool IpcChannel::SendReply(const std::vector<uint8_t>& message) {
  if (!replies_.Push(message)) {
    return false;
  }
  kernel_->SendEvent(reply_event_);
  return true;
}

std::optional<std::vector<uint8_t>> IpcChannel::ReceiveReply() { return replies_.Pop(); }

}  // namespace pegasus::nemesis
