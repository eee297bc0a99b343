#include "src/nemesis/atropos.h"

#include <algorithm>

#include "src/nemesis/kernel.h"

namespace pegasus::nemesis {

AtroposScheduler::AtroposScheduler(double capacity, sim::DurationNs best_effort_quantum,
                                   CreditPolicy credit_policy)
    : capacity_(capacity), be_quantum_(best_effort_quantum), credit_policy_(credit_policy) {}

AtroposScheduler::~AtroposScheduler() = default;

void AtroposScheduler::Attach(Kernel* kernel) { kernel_ = kernel; }

double AtroposScheduler::AdmittedUtilization() const {
  double total = 0.0;
  for (const auto& [d, sd] : sdoms_) {
    (void)sd;
    total += d->qos().Utilization();
  }
  return total;
}

bool AtroposScheduler::Admit(Domain* domain) {
  if (domain->qos().slice < 0 || domain->qos().period <= 0) {
    return false;
  }
  if (AdmittedUtilization() + domain->qos().Utilization() > capacity_ + 1e-9) {
    return false;
  }
  SDom sd;
  sd.deadline = kernel_->simulator()->now() + domain->qos().period;
  sd.remain = domain->qos().slice;
  auto [it, inserted] = sdoms_.emplace(domain, sd);
  if (!inserted) {
    return false;
  }
  if (domain->qos().slice > 0) {
    ScheduleReplenish(domain, it->second);
  }
  return true;
}

void AtroposScheduler::Remove(Domain* domain) {
  auto it = sdoms_.find(domain);
  if (it == sdoms_.end()) {
    return;
  }
  kernel_->simulator()->Cancel(it->second.replenish_timer);
  sdoms_.erase(it);
}

void AtroposScheduler::SetRunnable(Domain* domain, bool runnable) {
  auto it = sdoms_.find(domain);
  if (it != sdoms_.end()) {
    it->second.runnable = runnable;
  }
}

bool AtroposScheduler::UpdateQos(Domain* domain, const QosParams& qos) {
  auto it = sdoms_.find(domain);
  if (it == sdoms_.end()) {
    return false;
  }
  if (qos.slice < 0 || qos.period <= 0) {
    return false;
  }
  const double other = AdmittedUtilization() - domain->qos().Utilization();
  if (other + qos.Utilization() > capacity_ + 1e-9) {
    return false;
  }
  SDom& sd = it->second;
  // The new contract takes full effect at the next period boundary; the rest
  // of the current period keeps (clamped) credit so guarantees never jump
  // retroactively.
  sd.remain = std::min(sd.remain, qos.slice);
  kernel_->simulator()->Cancel(sd.replenish_timer);
  sd.replenish_timer = sim::EventId{};
  // Note: Domain::set_qos is applied by the kernel after this returns; use
  // the new period for the next replenishment by scheduling from `qos` here.
  if (qos.slice > 0) {
    Domain* d = domain;
    sd.replenish_timer =
        kernel_->simulator()->ScheduleAt(sd.deadline, [this, d]() { Replenish(d); });
  }
  return true;
}

void AtroposScheduler::ScheduleReplenish(Domain* domain, SDom& sd) {
  sd.replenish_timer =
      kernel_->simulator()->ScheduleAt(sd.deadline, [this, domain]() { Replenish(domain); });
}

void AtroposScheduler::Replenish(Domain* domain) {
  auto it = sdoms_.find(domain);
  if (it == sdoms_.end()) {
    return;
  }
  SDom& sd = it->second;
  const sim::TimeNs now = kernel_->simulator()->now();
  sd.remain = domain->qos().slice;
  sd.deadline += domain->qos().period;
  // Guard against a deadline that fell behind (e.g. after a QoS shrink).
  while (sd.deadline <= now) {
    sd.deadline += domain->qos().period;
  }
  sd.last_replenish = now;
  if (kernel_->running() == domain) {
    sd.budget_stale = true;
  }
  if (domain->qos().slice > 0) {
    ScheduleReplenish(domain, sd);
  }
  kernel_->RequestReschedule();
}

SchedDecision AtroposScheduler::PickNext(sim::TimeNs now) {
  (void)now;
  // EDF among runnable domains with credit (or LRS rotation in the ablated
  // configuration).
  Domain* best = nullptr;
  const SDom* best_sd = nullptr;
  for (const auto& [d, sd] : sdoms_) {
    if (!sd.runnable || sd.remain <= 0) {
      continue;
    }
    const bool better =
        best == nullptr || (credit_policy_ == CreditPolicy::kEdf
                                ? sd.deadline < best_sd->deadline
                                : sd.served_stamp < best_sd->served_stamp);
    if (better) {
      best = d;
      best_sd = &sd;
    }
  }
  if (best != nullptr) {
    return SchedDecision{best, best_sd->remain, ActivationReason::kAllocation, true};
  }
  // Slack: least-recently-served runnable domain that wants extra time.
  for (const auto& [d, sd] : sdoms_) {
    if (!sd.runnable || !d->qos().extra_time) {
      continue;
    }
    if (best == nullptr || sd.served_stamp < best_sd->served_stamp) {
      best = d;
      best_sd = &sd;
    }
  }
  if (best != nullptr) {
    return SchedDecision{best, be_quantum_, ActivationReason::kExtraTime, false};
  }
  return SchedDecision{};
}

SchedDecision AtroposScheduler::DecisionFor(Domain* domain, sim::TimeNs now) {
  (void)now;
  auto it = sdoms_.find(domain);
  if (it == sdoms_.end() || !it->second.runnable) {
    return SchedDecision{};
  }
  const SDom& sd = it->second;
  if (sd.remain > 0) {
    return SchedDecision{domain, sd.remain, ActivationReason::kAllocation, true};
  }
  if (domain->qos().extra_time) {
    return SchedDecision{domain, be_quantum_, ActivationReason::kExtraTime, false};
  }
  return SchedDecision{};
}

bool AtroposScheduler::ShouldPreempt(Domain* current, const SchedDecision& decision,
                                     sim::TimeNs now) {
  (void)now;
  auto cur_it = sdoms_.find(current);
  if (cur_it == sdoms_.end()) {
    return true;
  }
  const SDom& cur = cur_it->second;
  if (cur.budget_stale) {
    // The current domain's own period rolled over mid-run; re-decide with a
    // fresh budget (the kernel will usually re-pick the same domain).
    return true;
  }
  if (decision.guaranteed) {
    if (credit_policy_ == CreditPolicy::kRoundRobin) {
      return false;  // ablation: no deadline ordering among credit holders
    }
    for (const auto& [d, sd] : sdoms_) {
      if (d == current || !sd.runnable || sd.remain <= 0) {
        continue;
      }
      if (sd.deadline < cur.deadline) {
        return true;
      }
    }
    return false;
  }
  // Extra-time run: any credited runnable domain preempts it.
  for (const auto& [d, sd] : sdoms_) {
    if (sd.runnable && sd.remain > 0 && d->qos().slice > 0) {
      return true;
    }
  }
  return false;
}

void AtroposScheduler::Charge(Domain* domain, const SchedDecision& decision, sim::TimeNs start,
                              sim::DurationNs ran) {
  auto it = sdoms_.find(domain);
  if (it == sdoms_.end()) {
    return;
  }
  SDom& sd = it->second;
  sd.served_stamp = ++serve_counter_;
  sd.budget_stale = false;
  if (!decision.guaranteed) {
    return;
  }
  sim::DurationNs debit = ran;
  if (sd.last_replenish > start) {
    // The period rolled over mid-run: only the part after the replenishment
    // counts against the fresh slice (the earlier part consumed the previous
    // period's credit, which has already been discarded).
    debit = std::max<sim::DurationNs>(0, start + ran - sd.last_replenish);
  }
  sd.remain = std::max<sim::DurationNs>(0, sd.remain - debit);
}

}  // namespace pegasus::nemesis
