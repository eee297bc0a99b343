#include "src/naming/object.h"

#include <cstring>

namespace pegasus::naming {

LocalPath::LocalPath(sim::Simulator* sim, Invocable* target, sim::DurationNs call_cost)
    : sim_(sim), target_(target), call_cost_(call_cost) {}

void LocalPath::Call(const std::string& method, const std::vector<uint8_t>& args,
                     InvokeCallback callback) {
  // A procedure call completes "immediately" in simulated time, after the
  // (tiny) modelled call overhead.
  sim_->ScheduleAfter(call_cost_, [this, method, args, callback = std::move(callback)]() {
    std::vector<uint8_t> result;
    InvokeStatus status = target_->Invoke(method, args, &result);
    callback(status, std::move(result));
  });
}

ProtectedPath::ProtectedPath(sim::Simulator* sim, Invocable* target)
    : ProtectedPath(sim, target, Costs()) {}

ProtectedPath::ProtectedPath(sim::Simulator* sim, Invocable* target, Costs costs)
    : sim_(sim), target_(target), costs_(costs) {}

void ProtectedPath::Call(const std::string& method, const std::vector<uint8_t>& args,
                         InvokeCallback callback) {
  // Crossing in: trap + copy arguments into the server domain.
  const sim::DurationNs in_cost =
      costs_.crossing + static_cast<sim::DurationNs>(args.size()) * costs_.per_byte;
  sim_->ScheduleAfter(in_cost, [this, method, args, callback = std::move(callback)]() {
    std::vector<uint8_t> result;
    InvokeStatus status = target_->Invoke(method, args, &result);
    // Crossing out: copy the result back and return to the caller's domain.
    const sim::DurationNs out_cost =
        costs_.crossing + static_cast<sim::DurationNs>(result.size()) * costs_.per_byte;
    sim_->ScheduleAfter(out_cost, [status, result = std::move(result),
                                   callback = std::move(callback)]() mutable {
      callback(status, std::move(result));
    });
  });
}

ObjectHandle::ObjectHandle(ObjectRef ref, Resolver resolver)
    : ref_(ref), resolver_(std::move(resolver)) {}

void ObjectHandle::Invoke(const std::string& method, const std::vector<uint8_t>& args,
                          InvokeCallback callback) {
  if (!path_) {
    if (!resolver_) {
      callback(InvokeStatus::kNoSuchObject, {});
      return;
    }
    path_ = resolver_(ref_);
    ++resolutions_;
    if (!path_) {
      callback(InvokeStatus::kNoSuchObject, {});
      return;
    }
  }
  path_->Call(method, args, std::move(callback));
}

std::string ObjectHandle::kind() const { return path_ ? path_->kind() : "unresolved"; }

InvokeStatus EchoObject::Invoke(const std::string& method, const std::vector<uint8_t>& args,
                                std::vector<uint8_t>* result) {
  ++calls_;
  if (method != "echo") {
    return InvokeStatus::kNoSuchMethod;
  }
  *result = args;
  return InvokeStatus::kOk;
}

InvokeStatus CounterObject::Invoke(const std::string& method, const std::vector<uint8_t>& args,
                                   std::vector<uint8_t>* result) {
  auto put = [result](int64_t v) {
    result->resize(8);
    std::memcpy(result->data(), &v, 8);
  };
  if (method == "get") {
    put(value_);
    return InvokeStatus::kOk;
  }
  if (method == "add") {
    if (args.size() != 8) {
      return InvokeStatus::kBadArguments;
    }
    int64_t delta = 0;
    std::memcpy(&delta, args.data(), 8);
    value_ += delta;
    put(value_);
    return InvokeStatus::kOk;
  }
  return InvokeStatus::kNoSuchMethod;
}

}  // namespace pegasus::naming
