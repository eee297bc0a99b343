// Remote procedure call over the ATM message transport (§4).
//
// "The Pegasus remote-procedure-call mechanism is based on ANSA's RPC and
// layered on MSNA." A server exports objects by name; a client holds a
// duplex virtual-circuit pair to the server and issues calls matched to
// replies by call id. The RemotePath adapter makes an exported object usable
// through an ObjectHandle, completing the paper's procedure/protected/remote
// triad. Passing a handle to a remote party is modelled by ExportObject +
// RemotePath: the export creates the connection through which the object
// can be invoked remotely.
#ifndef PEGASUS_SRC_NAMING_RPC_H_
#define PEGASUS_SRC_NAMING_RPC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/atm/transport.h"
#include "src/naming/object.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace pegasus::naming {

// Dispatches invocation requests arriving on a transport VCI to exported
// objects, and answers name-lookup requests from remote name spaces.
class RpcServer {
 public:
  // `service_cost` models the server-side dispatch overhead per call.
  RpcServer(sim::Simulator* sim, atm::MessageTransport* transport,
            sim::DurationNs service_cost = sim::Microseconds(20));

  // Accepts requests on `request_vci`, replying on `reply_vci`.
  void Serve(atm::Vci request_vci, atm::Vci reply_vci);

  // Exports `object` under `name`. The object must outlive the server.
  void ExportObject(const std::string& name, Invocable* object);
  bool UnexportObject(const std::string& name);

  int64_t calls_served() const { return calls_served_; }
  int64_t lookup_calls() const { return lookup_calls_; }

 private:
  void OnRequest(const std::vector<uint8_t>& message);

  sim::Simulator* sim_;
  atm::MessageTransport* transport_;
  sim::DurationNs service_cost_;
  atm::Vci reply_vci_ = atm::kVciUnassigned;
  std::map<std::string, Invocable*> objects_;
  int64_t calls_served_ = 0;
  int64_t lookup_calls_ = 0;
};

// Client half: issues calls over an established VC pair.
class RpcClient {
 public:
  RpcClient(sim::Simulator* sim, atm::MessageTransport* transport, atm::Vci send_vci,
            atm::Vci receive_vci);

  // Invokes `method` on the remote object `object_name`.
  void Call(const std::string& object_name, const std::string& method,
            const std::vector<uint8_t>& args, InvokeCallback callback);

  // Remote name lookup: asks the server whether `name` is exported. Used by
  // mounted name spaces; the reply carries the remote object name usable
  // with Call.
  void Lookup(const std::string& name, std::function<void(bool found)> callback);

  int64_t calls_completed() const { return calls_completed_; }
  // Per-call round-trip latency, ns.
  const sim::Summary& latency() const { return latency_; }

 private:
  void OnReply(const std::vector<uint8_t>& message);

  sim::Simulator* sim_;
  atm::MessageTransport* transport_;
  atm::Vci send_vci_;
  struct Pending {
    InvokeCallback invoke_cb;
    std::function<void(bool)> lookup_cb;
    sim::TimeNs sent_at;
  };
  std::map<uint64_t, Pending> pending_;
  uint64_t next_call_id_ = 1;
  int64_t calls_completed_ = 0;
  sim::Summary latency_;
};

// InvocationPath adapter: remote procedure call through an RpcClient. The
// maillon resolver for a remote object returns one of these.
class RemotePath : public InvocationPath {
 public:
  RemotePath(RpcClient* client, std::string object_name);
  void Call(const std::string& method, const std::vector<uint8_t>& args,
            InvokeCallback callback) override;
  std::string kind() const override { return "remote-procedure-call"; }

 private:
  RpcClient* client_;
  std::string object_name_;
};

}  // namespace pegasus::naming

#endif  // PEGASUS_SRC_NAMING_RPC_H_
