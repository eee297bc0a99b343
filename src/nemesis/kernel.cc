#include "src/nemesis/kernel.h"

#include <algorithm>
#include <cassert>

namespace pegasus::nemesis {

Kernel::Kernel(sim::Simulator* sim, std::unique_ptr<Scheduler> scheduler, KernelCosts costs)
    : sim_(sim), scheduler_(std::move(scheduler)), costs_(costs) {
  scheduler_->Attach(this);
}

Kernel::~Kernel() = default;

bool Kernel::AddDomain(Domain* domain) {
  if (!scheduler_->Admit(domain)) {
    return false;
  }
  domain->AttachKernel(this, next_domain_id_++);
  domains_.push_back(domain);
  UpdateRunnable(domain);
  if (started_) {
    ScheduleDispatch();
  }
  return true;
}

void Kernel::RemoveDomain(Domain* domain) {
  if (domain == running_) {
    // Deschedule it exactly as a preemption would — charge the partial
    // segment and cancel the pending run-end — so removal never leaves a
    // run-end event pointing at a detached domain. Which domain happens to
    // be on the CPU when a client departs is schedule timing, not
    // something callers can be asked to avoid.
    Preempt();
  }
  scheduler_->Remove(domain);
  domains_.erase(std::remove(domains_.begin(), domains_.end(), domain), domains_.end());
  if (last_on_cpu_ == domain) {
    last_on_cpu_ = nullptr;
  }
  if (direct_switch_hint_ == domain) {
    direct_switch_hint_ = nullptr;
  }
}

bool Kernel::UpdateQos(Domain* domain, const QosParams& qos) {
  if (!scheduler_->UpdateQos(domain, qos)) {
    return false;
  }
  domain->set_qos(qos);
  RequestReschedule();
  return true;
}

void Kernel::NotifyWork(Domain* domain) {
  if (domain == running_) {
    return;  // runnability is re-evaluated when its segment ends
  }
  UpdateRunnable(domain);
  RequestReschedule();
}

EventChannel* Kernel::CreateChannel(Domain* source, Domain* destination, bool synchronous) {
  channels_.push_back(std::make_unique<EventChannel>(channels_.size() + 1, source, destination,
                                                     synchronous));
  return channels_.back().get();
}

IpcChannel* Kernel::CreateIpcChannel(Domain* client, Domain* server, size_t slots,
                                     size_t slot_size, bool synchronous) {
  ipc_channels_.push_back(std::make_unique<IpcChannel>(this, &address_space_, client, server,
                                                       slots, slot_size, synchronous));
  return ipc_channels_.back().get();
}

void Kernel::PostEvent(EventChannel* channel) {
  channel->RecordSent();
  Domain* dst = channel->destination();
  dst->dib().pending_events.push_back(PendingEvent{channel, sim_->now()});
  dst->OnEventPosted(channel, sim_->now());
  if (dst != running_) {
    UpdateRunnable(dst);
  }
}

void Kernel::SendEvent(EventChannel* channel) {
  PostEvent(channel);
  if (channel->synchronous()) {
    // The sender donates the processor: remember the destination so the next
    // dispatch tries it first. If the sender is mid-segment this takes
    // effect at the segment boundary it is signalling from.
    direct_switch_hint_ = channel->destination();
  }
  RequestReschedule();
}

void Kernel::RaiseInterrupt(EventChannel* channel) {
  if (in_privileged_) {
    deferred_interrupts_.push_back(DeferredInterrupt{channel, sim_->now()});
    return;
  }
  DeliverInterrupt(channel, sim_->now());
}

void Kernel::DeliverInterrupt(EventChannel* channel, sim::TimeNs raised_at) {
  interrupt_latency_.Add(static_cast<double>(sim_->now() - raised_at));
  PostEvent(channel);
  RequestReschedule();
}

void Kernel::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  idle_ = true;
  idle_since_ = sim_->now();
  ScheduleDispatch();
}

sim::DurationNs Kernel::idle_time() const {
  if (idle_) {
    return idle_accum_ + (sim_->now() - idle_since_);
  }
  return idle_accum_;
}

void Kernel::RequestReschedule() {
  if (!started_ || reschedule_scheduled_) {
    return;
  }
  // Never act re-entrantly: the request may come from inside BeginRun (an
  // activation handler signalling an event) or from a scheduler timer. All
  // preemption checks run from a fresh event context at the current time.
  reschedule_scheduled_ = true;
  sim_->ScheduleAfter(0, [this]() {
    reschedule_scheduled_ = false;
    RescheduleCheck();
  });
}

void Kernel::RescheduleCheck() {
  if (running_ == nullptr) {
    ScheduleDispatch();
    return;
  }
  if (in_privileged_) {
    return;  // KPS: not preemptible; dispatch happens at segment end anyway
  }
  bool preempt = scheduler_->ShouldPreempt(running_, current_decision_, sim_->now());
  if (!preempt && direct_switch_hint_ != nullptr && direct_switch_hint_ != running_) {
    // A synchronous signal wants the destination on the CPU.
    preempt = scheduler_->DecisionFor(direct_switch_hint_, sim_->now()).domain != nullptr;
  }
  if (preempt) {
    Preempt();
  }
}

void Kernel::ScheduleDispatch() {
  if (dispatch_scheduled_) {
    return;
  }
  dispatch_scheduled_ = true;
  sim_->ScheduleAfter(0, [this]() {
    dispatch_scheduled_ = false;
    Dispatch();
  });
}

void Kernel::Dispatch() {
  if (running_ != nullptr) {
    return;
  }
  for (;;) {
    SchedDecision decision;
    // Honour a pending synchronous direct switch if the discipline allows
    // the destination to run right now.
    if (direct_switch_hint_ != nullptr) {
      Domain* hint = direct_switch_hint_;
      direct_switch_hint_ = nullptr;
      decision = scheduler_->DecisionFor(hint, sim_->now());
    }
    if (decision.domain == nullptr) {
      decision = scheduler_->PickNext(sim_->now());
    }
    if (decision.domain == nullptr) {
      if (!idle_) {
        idle_ = true;
        idle_since_ = sim_->now();
      }
      return;
    }
    Domain* domain = decision.domain;
    RunRequest request = domain->NextRun(sim_->now());
    bool pre_activated = false;
    if (request.length <= 0 && !domain->dib().pending_events.empty() &&
        domain->dib().activations_enabled) {
      // An event-driven domain: it was made runnable by pending events and
      // only discovers its work when activated. Activate it now and re-ask.
      Activate(domain, ActivationReason::kEventDelivery);
      pre_activated = true;
      request = domain->NextRun(sim_->now());
    }
    if (request.length <= 0) {
      // Blocked although the scheduler thought otherwise (or a spurious
      // event); correct the bookkeeping and pick again.
      scheduler_->SetRunnable(domain, false);
      continue;
    }
    if (idle_) {
      idle_ = false;
      idle_accum_ += sim_->now() - idle_since_;
    }
    BeginRun(decision, request, pre_activated);
    return;
  }
}

void Kernel::Activate(Domain* domain, ActivationReason reason) {
  ++activation_count_;
  ++domain->dib().activation_count;
  domain->dib().last_activated_at = sim_->now();
  DeliverPendingEvents(domain);
  domain->OnActivate(reason, sim_->now());
}

void Kernel::BeginRun(const SchedDecision& decision, const RunRequest& request,
                      bool pre_activated) {
  Domain* domain = decision.domain;
  running_ = domain;
  current_decision_ = decision;
  current_request_ = request;
  run_started_ = sim_->now();
  run_overhead_ = 0;

  const bool switching = (last_on_cpu_ != domain);
  if (switching) {
    run_overhead_ += costs_.context_switch;
    ++context_switches_;
  }
  if (switching || pre_activated) {
    // Activation: entry through the activation vector with pending events
    // visible — the paper's replacement for transparent resumption.
    run_overhead_ += costs_.activation;
    if (!pre_activated && domain->dib().activations_enabled) {
      Activate(domain, decision.reason);
    }
  }
  if (request.privileged) {
    run_overhead_ += costs_.kps_enter + costs_.kps_exit;
    in_privileged_ = true;
  }
  run_planned_ = std::min(request.length, decision.budget);
  run_end_event_ = sim_->ScheduleAfter(run_overhead_ + run_planned_, [this]() { OnRunEnd(); });
}

void Kernel::OnRunEnd() {
  Domain* domain = running_;
  const bool completed = (run_planned_ >= current_request_.length);
  const sim::DurationNs charged = run_overhead_ + run_planned_;

  running_ = nullptr;
  in_privileged_ = false;
  last_on_cpu_ = domain;
  domain->dib().last_deactivated_at = sim_->now();

  scheduler_->Charge(domain, current_decision_, run_started_, charged);
  domain->ChargeCpu(charged, current_decision_.guaranteed);
  domain->OnRunEnd(run_started_, run_planned_, completed);

  // Interrupts that arrived during a privileged section are delivered now.
  while (!deferred_interrupts_.empty()) {
    DeferredInterrupt di = deferred_interrupts_.front();
    deferred_interrupts_.pop_front();
    DeliverInterrupt(di.channel, di.raised_at);
  }

  UpdateRunnable(domain);
  ScheduleDispatch();
}

void Kernel::Preempt() {
  Domain* domain = running_;
  if (domain == nullptr) {
    return;
  }
  sim_->Cancel(run_end_event_);
  ++preemptions_;

  const sim::DurationNs elapsed = sim_->now() - run_started_;
  // Time actually spent in the segment body, after kernel overheads.
  const sim::DurationNs body = std::max<sim::DurationNs>(0, elapsed - run_overhead_);
  const sim::DurationNs charged = elapsed;

  running_ = nullptr;
  in_privileged_ = false;
  last_on_cpu_ = domain;
  domain->dib().last_deactivated_at = sim_->now();

  scheduler_->Charge(domain, current_decision_, run_started_, charged);
  domain->ChargeCpu(charged, current_decision_.guaranteed);
  domain->OnRunEnd(run_started_, body, /*completed=*/body >= current_request_.length);

  UpdateRunnable(domain);
  ScheduleDispatch();
}

void Kernel::UpdateRunnable(Domain* domain) {
  // A domain is eligible when its model has work *or* events pend in its DIB
  // ("a domain is eligible for scheduling when it has pending events", §3.4).
  const bool runnable =
      domain->NextRun(sim_->now()).length > 0 || !domain->dib().pending_events.empty();
  scheduler_->SetRunnable(domain, runnable);
}

void Kernel::DeliverPendingEvents(Domain* domain) {
  auto& pending = domain->dib().pending_events;
  while (!pending.empty()) {
    PendingEvent ev = pending.front();
    pending.pop_front();
    ev.channel->RecordDelivered();
    if (ev.channel->closure()) {
      ev.channel->closure()(ev.posted_at, sim_->now());
    }
  }
}

}  // namespace pegasus::nemesis
