#include "src/naming/rpc.h"

#include "src/atm/wire.h"

namespace pegasus::naming {

namespace {

// Message types on the RPC VC pair.
constexpr uint8_t kMsgInvoke = 1;
constexpr uint8_t kMsgReply = 2;
constexpr uint8_t kMsgLookup = 3;
constexpr uint8_t kMsgLookupReply = 4;

}  // namespace

RpcServer::RpcServer(sim::Simulator* sim, atm::MessageTransport* transport,
                     sim::DurationNs service_cost)
    : sim_(sim), transport_(transport), service_cost_(service_cost) {}

void RpcServer::Serve(atm::Vci request_vci, atm::Vci reply_vci) {
  reply_vci_ = reply_vci;
  transport_->SetHandler(request_vci,
                         [this](atm::Vci, std::vector<uint8_t> message, sim::TimeNs) {
                           OnRequest(message);
                         });
}

void RpcServer::ExportObject(const std::string& name, Invocable* object) {
  objects_[name] = object;
}

bool RpcServer::UnexportObject(const std::string& name) { return objects_.erase(name) > 0; }

void RpcServer::OnRequest(const std::vector<uint8_t>& message) {
  atm::WireReader reader(message);
  const uint8_t type = reader.GetU8();
  const uint64_t call_id = reader.GetU64();
  if (type == kMsgLookup) {
    const std::string name = reader.GetString();
    if (!reader.ok()) {
      return;
    }
    ++lookup_calls_;
    atm::WireWriter reply;
    reply.PutU8(kMsgLookupReply);
    reply.PutU64(call_id);
    reply.PutU8(objects_.count(name) > 0 ? 1 : 0);
    sim_->ScheduleAfter(service_cost_, [this, data = reply.Take()]() {
      transport_->Send(reply_vci_, data);
    });
    return;
  }
  if (type != kMsgInvoke) {
    return;
  }
  const std::string object_name = reader.GetString();
  const std::string method = reader.GetString();
  const std::vector<uint8_t> args = reader.GetBytes();
  if (!reader.ok()) {
    return;
  }
  // The dispatch itself costs server CPU; then the object body runs.
  sim_->ScheduleAfter(service_cost_, [this, call_id, object_name, method, args]() {
    ++calls_served_;
    InvokeStatus status = InvokeStatus::kNoSuchObject;
    std::vector<uint8_t> result;
    auto it = objects_.find(object_name);
    if (it != objects_.end()) {
      status = it->second->Invoke(method, args, &result);
    }
    atm::WireWriter reply;
    reply.PutU8(kMsgReply);
    reply.PutU64(call_id);
    reply.PutU8(static_cast<uint8_t>(status));
    reply.PutBytes(result);
    transport_->Send(reply_vci_, reply.Take());
  });
}

RpcClient::RpcClient(sim::Simulator* sim, atm::MessageTransport* transport, atm::Vci send_vci,
                     atm::Vci receive_vci)
    : sim_(sim), transport_(transport), send_vci_(send_vci) {
  transport_->SetHandler(receive_vci, [this](atm::Vci, std::vector<uint8_t> message, sim::TimeNs) {
    OnReply(message);
  });
}

void RpcClient::Call(const std::string& object_name, const std::string& method,
                     const std::vector<uint8_t>& args, InvokeCallback callback) {
  const uint64_t id = next_call_id_++;
  Pending pending;
  pending.invoke_cb = std::move(callback);
  pending.sent_at = sim_->now();
  pending_[id] = std::move(pending);

  atm::WireWriter w;
  w.PutU8(kMsgInvoke);
  w.PutU64(id);
  w.PutString(object_name);
  w.PutString(method);
  w.PutBytes(args);
  transport_->Send(send_vci_, w.Take());
}

void RpcClient::Lookup(const std::string& name, std::function<void(bool)> callback) {
  const uint64_t id = next_call_id_++;
  Pending pending;
  pending.lookup_cb = std::move(callback);
  pending.sent_at = sim_->now();
  pending_[id] = std::move(pending);

  atm::WireWriter w;
  w.PutU8(kMsgLookup);
  w.PutU64(id);
  w.PutString(name);
  transport_->Send(send_vci_, w.Take());
}

void RpcClient::OnReply(const std::vector<uint8_t>& message) {
  atm::WireReader reader(message);
  const uint8_t type = reader.GetU8();
  const uint64_t id = reader.GetU64();
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  latency_.Add(static_cast<double>(sim_->now() - pending.sent_at));
  if (type == kMsgLookupReply) {
    const bool found = reader.GetU8() != 0;
    if (pending.lookup_cb && reader.ok()) {
      pending.lookup_cb(found);
    }
    return;
  }
  if (type != kMsgReply) {
    return;
  }
  const auto status = static_cast<InvokeStatus>(reader.GetU8());
  std::vector<uint8_t> result = reader.GetBytes();
  if (!reader.ok()) {
    if (pending.invoke_cb) {
      pending.invoke_cb(InvokeStatus::kTransportError, {});
    }
    return;
  }
  ++calls_completed_;
  if (pending.invoke_cb) {
    pending.invoke_cb(status, std::move(result));
  }
}

RemotePath::RemotePath(RpcClient* client, std::string object_name)
    : client_(client), object_name_(std::move(object_name)) {}

void RemotePath::Call(const std::string& method, const std::vector<uint8_t>& args,
                      InvokeCallback callback) {
  client_->Call(object_name_, method, args, std::move(callback));
}

}  // namespace pegasus::naming
