// Objects, maillons and invocation paths (§4).
//
// System services are objects: abstract data types accessed through their
// methods. How a method call travels depends on the "domain relation"
// between invoker and object:
//   * same protection domain            -> procedure call,
//   * same machine, different domain    -> protected call,
//   * different machines                -> remote procedure call.
//
// A name resolves to a *handle*, implemented as a maillon [Maisonneuve,
// Shapiro & Collet 1992]: an opaque fixed-size reference plus a function
// that returns the interface when called with the reference. The extra
// indirection lets connections be set up lazily on first use while costing
// almost nothing once the object is resolved — which experiment E08
// measures.
#ifndef PEGASUS_SRC_NAMING_OBJECT_H_
#define PEGASUS_SRC_NAMING_OBJECT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace pegasus::naming {

enum class InvokeStatus : uint8_t {
  kOk = 0,
  kNoSuchObject = 1,
  kNoSuchMethod = 2,
  kBadArguments = 3,
  kTransportError = 4,
};

// An object's interface: named operations over byte strings. Applications
// would normally see typed stubs; the byte-level interface is what the stub
// compiler would be generated against.
class Invocable {
 public:
  virtual ~Invocable() = default;
  virtual InvokeStatus Invoke(const std::string& method, const std::vector<uint8_t>& args,
                              std::vector<uint8_t>* result) = 0;
};

// Completion callback of an invocation: invocations are asynchronous because
// protected and remote calls take simulated time.
using InvokeCallback = std::function<void(InvokeStatus, std::vector<uint8_t> result)>;

// How an invocation reaches the object. Concrete paths: LocalPath (procedure
// call), ProtectedPath (same machine, protection-domain crossing), and the
// RPC client path in rpc.h.
class InvocationPath {
 public:
  virtual ~InvocationPath() = default;
  virtual void Call(const std::string& method, const std::vector<uint8_t>& args,
                    InvokeCallback callback) = 0;
  // For experiments: the paper's taxonomy name of this path.
  virtual std::string kind() const = 0;
};

// Procedure call: invoker and object share a protection domain. `call_cost`
// models the (tiny) call overhead; the object body runs synchronously.
class LocalPath : public InvocationPath {
 public:
  LocalPath(sim::Simulator* sim, Invocable* target,
            sim::DurationNs call_cost = sim::Nanoseconds(100));
  void Call(const std::string& method, const std::vector<uint8_t>& args,
            InvokeCallback callback) override;
  std::string kind() const override { return "procedure-call"; }

 private:
  sim::Simulator* sim_;
  Invocable* target_;
  sim::DurationNs call_cost_;
};

// Protected call ("local remote procedure call"): same address space,
// different protection domain. Costs two protection-domain crossings plus
// argument/result copies through a shared buffer.
class ProtectedPath : public InvocationPath {
 public:
  struct Costs {
    sim::DurationNs crossing = sim::Microseconds(15);  // trap + domain switch
    sim::DurationNs per_byte = sim::Nanoseconds(2);    // copy through shared memory
  };

  ProtectedPath(sim::Simulator* sim, Invocable* target);
  ProtectedPath(sim::Simulator* sim, Invocable* target, Costs costs);
  void Call(const std::string& method, const std::vector<uint8_t>& args,
            InvokeCallback callback) override;
  std::string kind() const override { return "protected-call"; }

 private:
  sim::Simulator* sim_;
  Invocable* target_;
  Costs costs_;
};

// The opaque fixed-size object reference inside a maillon.
struct ObjectRef {
  uint64_t value = 0;
  bool operator==(const ObjectRef& o) const { return value == o.value; }
};

// The maillon: reference + resolver. Resolution may set up a connection (or
// fetch the object); the result is cached so the common case — object ready
// — pays only one indirection.
class ObjectHandle {
 public:
  using Resolver = std::function<std::shared_ptr<InvocationPath>(ObjectRef)>;

  ObjectHandle() = default;
  ObjectHandle(ObjectRef ref, Resolver resolver);

  bool valid() const { return static_cast<bool>(resolver_) || static_cast<bool>(path_); }
  ObjectRef ref() const { return ref_; }
  bool resolved() const { return static_cast<bool>(path_); }

  // Invokes through the maillon, resolving on first use.
  void Invoke(const std::string& method, const std::vector<uint8_t>& args,
              InvokeCallback callback);

  // The resolved path's kind, or "unresolved".
  std::string kind() const;
  // Number of times the resolver has run (1 after first use; the cached
  // path is reused afterwards).
  int resolutions() const { return resolutions_; }

 private:
  ObjectRef ref_;
  Resolver resolver_;
  std::shared_ptr<InvocationPath> path_;
  int resolutions_ = 0;
};

// Convenience in-memory objects used by tests and examples.
class EchoObject : public Invocable {
 public:
  InvokeStatus Invoke(const std::string& method, const std::vector<uint8_t>& args,
                      std::vector<uint8_t>* result) override;
  int64_t calls() const { return calls_; }

 private:
  int64_t calls_ = 0;
};

class CounterObject : public Invocable {
 public:
  // Methods: "add" (args: 8-byte LE delta) -> new value; "get" -> value.
  InvokeStatus Invoke(const std::string& method, const std::vector<uint8_t>& args,
                      std::vector<uint8_t>* result) override;
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

}  // namespace pegasus::naming

#endif  // PEGASUS_SRC_NAMING_OBJECT_H_
