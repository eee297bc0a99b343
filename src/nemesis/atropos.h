// The Nemesis domain scheduler (§3.3): weighted shares with EDF selection.
//
// Each domain holds a contract of `slice` nanoseconds per `period`. The
// scheduler keeps, per domain, the credit remaining in the current period and
// the period's deadline. Among runnable domains that still have credit it
// runs the one with the *earliest deadline* — EDF is optimal for meeting the
// implicit deadline "use your slice before the period ends", which is how the
// paper turns weighted allocation into timely multimedia scheduling.
//
// When no credited domain is runnable, remaining time is shared out to
// domains that opted into extra time, in least-recently-served order (the
// paper notes the slack policy was "still the subject of investigation";
// LRS round-robin is our documented choice, ablated in bench E04).
#ifndef PEGASUS_SRC_NEMESIS_ATROPOS_H_
#define PEGASUS_SRC_NEMESIS_ATROPOS_H_

#include <map>
#include <string>

#include "src/nemesis/scheduler.h"
#include "src/sim/event_queue.h"

namespace pegasus::nemesis {

class AtroposScheduler : public Scheduler {
 public:
  // How to choose among runnable domains that still hold credit. kEdf is the
  // paper's design; kRoundRobin is the ablation of bench E04 (weighted
  // shares without deadline ordering).
  enum class CreditPolicy { kEdf, kRoundRobin };

  // `capacity` is the admissible sum of slice/period utilisations (leave
  // headroom below 1.0 when kernel costs are non-zero). The best-effort
  // quantum bounds how long a slack run may go unreviewed.
  explicit AtroposScheduler(double capacity = 1.0,
                            sim::DurationNs best_effort_quantum = sim::Milliseconds(5),
                            CreditPolicy credit_policy = CreditPolicy::kEdf);
  ~AtroposScheduler() override;

  std::string name() const override { return "atropos"; }
  void Attach(Kernel* kernel) override;
  bool Admit(Domain* domain) override;
  void Remove(Domain* domain) override;
  void SetRunnable(Domain* domain, bool runnable) override;
  bool UpdateQos(Domain* domain, const QosParams& qos) override;
  SchedDecision PickNext(sim::TimeNs now) override;
  SchedDecision DecisionFor(Domain* domain, sim::TimeNs now) override;
  bool ShouldPreempt(Domain* current, const SchedDecision& decision, sim::TimeNs now) override;
  void Charge(Domain* domain, const SchedDecision& decision, sim::TimeNs start,
              sim::DurationNs ran) override;
  double AdmittedUtilization() const override;
  double Capacity() const override { return capacity_; }

 private:
  struct SDom {
    sim::TimeNs deadline = 0;
    sim::DurationNs remain = 0;
    bool runnable = false;
    sim::EventId replenish_timer;
    // Least-recently-served stamp for slack rotation.
    uint64_t served_stamp = 0;
    // Time of the most recent period rollover, for split charging.
    sim::TimeNs last_replenish = 0;
    // Set when the period rolled over while the domain was on the CPU: its
    // running budget is stale and the kernel should re-decide.
    bool budget_stale = false;
  };

  void ScheduleReplenish(Domain* domain, SDom& sd);
  void Replenish(Domain* domain);

  Kernel* kernel_ = nullptr;
  double capacity_;
  sim::DurationNs be_quantum_;
  CreditPolicy credit_policy_;
  std::map<Domain*, SDom> sdoms_;
  uint64_t serve_counter_ = 0;
};

}  // namespace pegasus::nemesis

#endif  // PEGASUS_SRC_NEMESIS_ATROPOS_H_
