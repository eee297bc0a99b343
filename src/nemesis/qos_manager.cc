#include "src/nemesis/qos_manager.h"

#include <algorithm>
#include <cmath>

#include "src/nemesis/kernel.h"

namespace pegasus::nemesis {

namespace {

// CPU the review itself costs per epoch.
constexpr sim::DurationNs kReviewCost = sim::Microseconds(200);

}  // namespace

const char* GrantReasonName(GrantReason reason) {
  switch (reason) {
    case GrantReason::kContention:
      return "contention";
    case GrantReason::kReclaim:
      return "reclaim";
    case GrantReason::kRestore:
      return "restore";
  }
  return "unknown";
}

QosManagerDomain::QosManagerDomain(sim::Simulator* sim, std::string name, QosParams own_qos,
                                   Options options)
    : Domain(std::move(name), own_qos), sim_(sim), options_(options) {}

void QosManagerDomain::Register(Domain* client, double weight, QosParams requested,
                                GrantCallback on_grant) {
  ClientState st;
  st.weight = std::max(weight, 1e-6);
  st.requested = requested;
  st.granted_util = client->qos().Utilization();
  st.last_cpu_total = client->cpu_total();
  st.on_grant = std::move(on_grant);
  clients_[client] = st;
}

void QosManagerDomain::Unregister(Domain* client) { clients_.erase(client); }

double QosManagerDomain::GrantedUtilization(Domain* client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0.0 : it->second.granted_util;
}

void QosManagerDomain::OnAttached() {
  last_review_at_ = sim_->now();
  sim_->ScheduleAfter(options_.epoch, [this]() {
    pending_work_ = kReviewCost;
    kernel()->NotifyWork(this);
  });
}

RunRequest QosManagerDomain::NextRun(sim::TimeNs now) {
  (void)now;
  return RunRequest{pending_work_, false, false};
}

void QosManagerDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  if (pending_work_ == 0) {
    return;
  }
  pending_work_ -= std::min(pending_work_, ran);
  if (pending_work_ > 0) {
    return;
  }
  Review();
  sim_->ScheduleAfter(options_.epoch, [this]() {
    pending_work_ = kReviewCost;
    kernel()->NotifyWork(this);
  });
}

void QosManagerDomain::Review() {
  ++reviews_;
  const sim::TimeNs now = sim_->now();
  const double window = static_cast<double>(std::max<sim::DurationNs>(1, now - last_review_at_));
  last_review_at_ = now;

  // Observe client behaviour over the elapsed epoch (EWMA-smoothed).
  for (auto& [client, st] : clients_) {
    const sim::DurationNs used = client->cpu_total() - st.last_cpu_total;
    st.last_cpu_total = client->cpu_total();
    const double inst = static_cast<double>(used) / window;
    st.observed_util = 0.5 * st.observed_util + 0.5 * inst;
  }

  // Each client's demand: its requested utilisation, optionally trimmed
  // towards what it has actually been using.
  std::map<Domain*, double> demand;
  std::map<Domain*, bool> trimmed;
  // Headroom multiplier over observed usage when reclaiming.
  constexpr double kReclaimHeadroom = 1.25;
  for (auto& [client, st] : clients_) {
    const double requested = st.requested.Utilization();
    double want = requested;
    if (options_.reclaim_unused && st.observed_util > 0.0) {
      want = std::min(want, std::max(st.observed_util * kReclaimHeadroom, 0.01));
    }
    demand[client] = want;
    trimmed[client] = want < requested - 1e-9;
  }

  // Weighted water-filling: hand out target_utilization; clients capped at
  // their demand, surplus redistributed by weight among the unsatisfied.
  std::map<Domain*, double> grant;
  std::map<Domain*, bool> capped;
  for (auto& [client, st] : clients_) {
    (void)st;
    grant[client] = 0.0;
    capped[client] = false;
  }
  double available = options_.target_utilization;
  for (int iter = 0; iter < 16 && available > 1e-9; ++iter) {
    double weight_sum = 0.0;
    for (auto& [client, st] : clients_) {
      if (!capped[client]) {
        weight_sum += st.weight;
      }
    }
    if (weight_sum <= 0.0) {
      break;
    }
    bool any_capped = false;
    double distributed = 0.0;
    for (auto& [client, st] : clients_) {
      if (capped[client]) {
        continue;
      }
      const double fair = available * st.weight / weight_sum;
      const double headroom = demand[client] - grant[client];
      if (headroom <= fair) {
        grant[client] += std::max(0.0, headroom);
        distributed += std::max(0.0, headroom);
        capped[client] = true;
        any_capped = true;
      } else {
        grant[client] += fair;
        distributed += fair;
      }
    }
    available -= distributed;
    if (!any_capped) {
      break;
    }
  }

  // Smooth and apply — shrinking contracts first so that admission control
  // never transiently sees more than the target utilisation. Grant
  // callbacks are collected and fired only after the iteration: a callback
  // may Unregister or re-Register its client (closing or renegotiating a
  // stream), which mutates clients_.
  std::vector<std::pair<GrantCallback, GrantUpdate>> notifications;
  auto apply = [this, &notifications, &trimmed, &grant, &demand](Domain* client,
                                                                 ClientState& st, double next) {
    QosParams qos = client->qos();
    qos.period = st.requested.period;
    qos.extra_time = st.requested.extra_time;
    qos.slice = static_cast<sim::DurationNs>(next * static_cast<double>(qos.period));
    if (kernel()->UpdateQos(client, qos)) {
      const double previous = st.granted_util;
      st.granted_util = next;
      if (st.on_grant && std::abs(next - previous) > 1e-9) {
        GrantUpdate update;
        update.granted_util = next;
        update.steady_state_util = grant[client];
        // Self-limited = the water-filling satisfied the (trimmed) demand in
        // full; the binding constraint is the client's own idleness. When
        // contention squeezes the grant below even the trimmed demand, that
        // is a genuine capacity cut regardless of the trim.
        update.self_limited =
            trimmed[client] && grant[client] >= demand[client] - 1e-9;
        if (next > previous) {
          update.reason = GrantReason::kRestore;
        } else if (update.self_limited) {
          update.reason = GrantReason::kReclaim;
        } else {
          update.reason = GrantReason::kContention;
        }
        notifications.emplace_back(st.on_grant, update);
      }
    }
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& [client, st] : clients_) {
      const double next = st.granted_util + options_.smoothing * (grant[client] - st.granted_util);
      const bool shrinking = next <= st.granted_util;
      if ((pass == 0) == shrinking) {
        apply(client, st, next);
      }
    }
  }
  for (auto& [callback, update] : notifications) {
    callback(update);
  }
}

}  // namespace pegasus::nemesis
