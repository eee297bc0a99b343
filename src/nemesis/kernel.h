// The Nemesis kernel: dispatching, activations, events, interrupts, KPS.
//
// The kernel multiplexes one simulated CPU over domains according to a
// pluggable Scheduler. It implements the paper's distinctive mechanisms:
//   * activation instead of transparent resumption (§3.2) — a domain that
//     regains the CPU after losing it enters through its activation vector
//     and sees its pending events;
//   * value-less events with synchronous (processor-donating) and
//     asynchronous signalling (§3.4);
//   * Kernel-Privileged Sections (§3.5) — short non-preemptible segments
//     with interrupts masked, instead of whole modules in kernel mode;
//   * pluggable domain scheduling (§3.3) so the share+EDF discipline can be
//     compared against timesharing baselines.
#ifndef PEGASUS_SRC_NEMESIS_KERNEL_H_
#define PEGASUS_SRC_NEMESIS_KERNEL_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/nemesis/domain.h"
#include "src/nemesis/events.h"
#include "src/nemesis/memory.h"
#include "src/nemesis/scheduler.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace pegasus::nemesis {

// Fixed overheads of kernel mechanisms, in simulated time. Tests that verify
// exact allocation arithmetic pass Zero(); benches use the defaults, which
// are in the right ballpark for early-90s RISC workstations.
struct KernelCosts {
  sim::DurationNs context_switch = sim::Microseconds(10);
  sim::DurationNs activation = sim::Microseconds(3);
  sim::DurationNs kps_enter = sim::Nanoseconds(300);
  sim::DurationNs kps_exit = sim::Nanoseconds(300);

  static KernelCosts Zero() { return KernelCosts{0, 0, 0, 0}; }
};

class Kernel {
 public:
  Kernel(sim::Simulator* sim, std::unique_ptr<Scheduler> scheduler, KernelCosts costs = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Simulator* simulator() const { return sim_; }
  Scheduler* scheduler() const { return scheduler_.get(); }
  const KernelCosts& costs() const { return costs_; }

  // Registers a domain. Returns false if scheduler admission rejects it.
  bool AddDomain(Domain* domain);
  // Removes a domain. If it is the one on the CPU it is descheduled first,
  // exactly as a preemption (partial segment charged, run-end cancelled) —
  // callers cannot be asked to know which domain the schedule put on the
  // CPU at departure time.
  void RemoveDomain(Domain* domain);

  // Changes a domain's QoS contract (used by the QoS manager). Returns false
  // if the scheduler finds the new contract infeasible.
  bool UpdateQos(Domain* domain, const QosParams& qos);

  // Domain models call this when work arrives for a domain from outside its
  // own execution (timer expiry, device data, job release).
  void NotifyWork(Domain* domain);

  // --- Events ---
  EventChannel* CreateChannel(Domain* source, Domain* destination, bool synchronous);
  // Signals `channel`. Must be called from the running domain's segment
  // boundary (OnRunEnd/OnActivate) or from outside any domain (devices use
  // RaiseInterrupt instead). Synchronous channels make the sender yield and
  // attempt a direct switch to the destination.
  void SendEvent(EventChannel* channel);

  // Creates an inter-domain call channel (shared queues + event pair).
  IpcChannel* CreateIpcChannel(Domain* client, Domain* server, size_t slots, size_t slot_size,
                               bool synchronous);

  // --- Interrupts ---
  // Signals `channel` from interrupt context. If the CPU is inside a
  // privileged section the delivery is deferred until the section exits; the
  // deferral time is recorded in interrupt_latency().
  void RaiseInterrupt(EventChannel* channel);

  // Starts dispatching. Idempotent.
  void Start();

  // --- Introspection ---
  Domain* running() const { return running_; }
  uint64_t context_switches() const { return context_switches_; }
  uint64_t activation_count() const { return activation_count_; }
  uint64_t preemptions() const { return preemptions_; }
  sim::DurationNs idle_time() const;
  // Raise-to-delivery latency of interrupts, ns.
  const sim::Summary& interrupt_latency() const { return interrupt_latency_; }
  const std::vector<Domain*>& domains() const { return domains_; }

  // Scheduler timers call this when their ordering changed asynchronously.
  void RequestReschedule();

 private:
  struct DeferredInterrupt {
    EventChannel* channel;
    sim::TimeNs raised_at;
  };

  void ScheduleDispatch();
  void Dispatch();
  // Deferred preemption check, run from a fresh event context.
  void RescheduleCheck();
  void BeginRun(const SchedDecision& decision, const RunRequest& request, bool pre_activated);
  // Performs the activation upcall (event delivery + activation vector).
  void Activate(Domain* domain, ActivationReason reason);
  void OnRunEnd();
  // Stops the current run immediately, charging the partial segment.
  void Preempt();
  // Re-evaluates a domain's runnability with the scheduler.
  void UpdateRunnable(Domain* domain);
  // Drains the DIB into closure invocations at activation time.
  void DeliverPendingEvents(Domain* domain);
  void PostEvent(EventChannel* channel);
  void DeliverInterrupt(EventChannel* channel, sim::TimeNs raised_at);

  sim::Simulator* sim_;
  std::unique_ptr<Scheduler> scheduler_;
  KernelCosts costs_;
  AddressSpace address_space_;
  std::vector<Domain*> domains_;
  std::vector<std::unique_ptr<EventChannel>> channels_;
  std::vector<std::unique_ptr<IpcChannel>> ipc_channels_;
  DomainId next_domain_id_ = 1;

  // --- CPU state ---
  Domain* running_ = nullptr;
  Domain* last_on_cpu_ = nullptr;
  SchedDecision current_decision_;
  RunRequest current_request_;
  sim::TimeNs run_started_ = 0;
  sim::DurationNs run_overhead_ = 0;   // switch/activation/KPS cost in this run
  sim::DurationNs run_planned_ = 0;    // segment time planned after overhead
  sim::EventId run_end_event_;
  bool dispatch_scheduled_ = false;
  bool reschedule_scheduled_ = false;
  bool in_privileged_ = false;
  Domain* direct_switch_hint_ = nullptr;
  bool started_ = false;

  std::deque<DeferredInterrupt> deferred_interrupts_;

  // --- Statistics ---
  uint64_t context_switches_ = 0;
  uint64_t activation_count_ = 0;
  uint64_t preemptions_ = 0;
  sim::TimeNs idle_since_ = 0;
  sim::DurationNs idle_accum_ = 0;
  bool idle_ = true;
  sim::Summary interrupt_latency_;
};

}  // namespace pegasus::nemesis

#endif  // PEGASUS_SRC_NEMESIS_KERNEL_H_
