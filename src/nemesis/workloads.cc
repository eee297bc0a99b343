#include "src/nemesis/workloads.h"

#include <algorithm>

#include "src/nemesis/kernel.h"

namespace pegasus::nemesis {

// --- PeriodicDomain ---

PeriodicDomain::PeriodicDomain(sim::Simulator* sim, std::string name, QosParams qos,
                               sim::DurationNs job_cost, sim::DurationNs job_period)
    : Domain(std::move(name), qos), sim_(sim), job_cost_(job_cost), job_period_(job_period) {}

void PeriodicDomain::OnAttached() {
  sim_->ScheduleAfter(0, [this]() { ReleaseJob(); });
}

void PeriodicDomain::ReleaseJob() {
  if (stopped_) {
    return;
  }
  const sim::TimeNs release = sim_->now();
  if (current_release_ < 0) {
    current_release_ = release;
    remaining_ = job_cost_;
  } else {
    backlog_.push_back(release);
  }
  if (kernel() != nullptr) {
    kernel()->NotifyWork(this);
  }
  sim_->ScheduleAfter(job_period_, [this]() { ReleaseJob(); });
}

RunRequest PeriodicDomain::NextRun(sim::TimeNs now) {
  (void)now;
  return RunRequest{remaining_, false, false};
}

void PeriodicDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  remaining_ -= std::min(remaining_, ran);
  if (remaining_ > 0 || current_release_ < 0) {
    return;
  }
  const sim::TimeNs now = kernel()->simulator()->now();
  const sim::TimeNs release = current_release_;
  ++jobs_completed_;
  completion_latency_.Add(static_cast<double>(now - release));
  if (now > release + job_period_) {
    ++deadline_misses_;
  }
  if (on_job_complete) {
    on_job_complete(release, now);
  }
  if (!backlog_.empty()) {
    current_release_ = backlog_.front();
    backlog_.pop_front();
    remaining_ = job_cost_;
  } else {
    current_release_ = -1;
  }
}

// --- BatchDomain ---

BatchDomain::BatchDomain(std::string name, QosParams qos, sim::DurationNs chunk)
    : Domain(std::move(name), qos), chunk_(chunk) {}

RunRequest BatchDomain::NextRun(sim::TimeNs now) {
  (void)now;
  return RunRequest{chunk_, false, false};
}

void BatchDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  consumed_ += ran;
}

// --- ServerDomain ---

ServerDomain::ServerDomain(std::string name, QosParams qos, sim::DurationNs service_cost)
    : Domain(std::move(name), qos), service_cost_(service_cost) {}

void ServerDomain::BindChannel(IpcChannel* channel) {
  channel_ = channel;
  channel_->request_event()->set_closure(
      [this](sim::TimeNs posted_at, sim::TimeNs delivered_at) {
        (void)posted_at;
        (void)delivered_at;
        DrainRequests();
      });
}

void ServerDomain::DrainRequests() {
  while (auto req = channel_->ReceiveRequest()) {
    queue_.push_back(std::move(*req));
  }
  if (remaining_ == 0 && !queue_.empty()) {
    current_ = std::move(queue_.front());
    queue_.pop_front();
    remaining_ = service_cost_;
  }
}

RunRequest ServerDomain::NextRun(sim::TimeNs now) {
  (void)now;
  return RunRequest{remaining_, false, false};
}

void ServerDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  if (remaining_ == 0) {
    return;
  }
  remaining_ -= std::min(remaining_, ran);
  if (remaining_ > 0) {
    return;
  }
  ++requests_served_;
  channel_->SendReply(current_);  // echo the request as the reply
  if (!queue_.empty()) {
    current_ = std::move(queue_.front());
    queue_.pop_front();
    remaining_ = service_cost_;
  }
}

// --- ClientDomain ---

ClientDomain::ClientDomain(sim::Simulator* sim, std::string name, QosParams qos,
                           sim::DurationNs call_cost, int64_t total_calls,
                           sim::DurationNs think_time, sim::DurationNs post_send_work)
    : Domain(std::move(name), qos),
      sim_(sim),
      call_cost_(call_cost),
      total_calls_(total_calls),
      think_time_(think_time),
      post_send_work_(post_send_work) {}

void ClientDomain::BindChannel(IpcChannel* channel) {
  channel_ = channel;
  channel_->reply_event()->set_closure([this](sim::TimeNs posted_at, sim::TimeNs delivered_at) {
    (void)posted_at;
    if (!waiting_reply_) {
      return;
    }
    while (channel_->ReceiveReply()) {
    }
    waiting_reply_ = false;
    ++calls_completed_;
    round_trip_.Add(static_cast<double>(delivered_at - sent_at_));
    if (think_time_ == 0) {
      MaybeStartNextCall();
    } else {
      think_elapsed_ = false;
      sim_->ScheduleAfter(think_time_, [this]() {
        think_elapsed_ = true;
        MaybeStartNextCall();
        kernel()->NotifyWork(this);
      });
    }
  });
}

void ClientDomain::OnAttached() {
  sim_->ScheduleAfter(0, [this]() {
    MaybeStartNextCall();
    kernel()->NotifyWork(this);
  });
}

void ClientDomain::MaybeStartNextCall() {
  if (calls_started_ >= total_calls_ || phase_ != Phase::kIdle || waiting_reply_ ||
      !think_elapsed_) {
    return;
  }
  ++calls_started_;
  phase_ = Phase::kPrepare;
  remaining_ = call_cost_;
}

RunRequest ClientDomain::NextRun(sim::TimeNs now) {
  (void)now;
  return RunRequest{remaining_, false, false};
}

void ClientDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  if (remaining_ == 0) {
    return;
  }
  remaining_ -= std::min(remaining_, ran);
  if (remaining_ > 0) {
    return;
  }
  if (phase_ == Phase::kPrepare) {
    // Call prepared: ship it, then do local bookkeeping (if any) while the
    // reply is outstanding.
    waiting_reply_ = true;
    sent_at_ = kernel()->simulator()->now();
    channel_->SendRequest({0xCA, 0x11});
    if (post_send_work_ > 0) {
      phase_ = Phase::kPostSend;
      remaining_ = post_send_work_;
    } else {
      phase_ = Phase::kIdle;
      MaybeStartNextCall();
    }
    return;
  }
  if (phase_ == Phase::kPostSend) {
    phase_ = Phase::kIdle;
    MaybeStartNextCall();
  }
}

// --- DemuxDomain ---

DemuxDomain::DemuxDomain(std::string name, QosParams qos, sim::DurationNs per_packet_cost)
    : Domain(std::move(name), qos), per_packet_cost_(per_packet_cost) {}

void DemuxDomain::BindPacketChannel(EventChannel* channel) {
  channel->set_closure([this](sim::TimeNs posted_at, sim::TimeNs delivered_at) {
    (void)posted_at;
    (void)delivered_at;
    ++pending_packets_;
    if (remaining_ == 0) {
      remaining_ = per_packet_cost_;
    }
  });
}

void DemuxDomain::AddClientChannel(EventChannel* channel) { clients_.push_back(channel); }

RunRequest DemuxDomain::NextRun(sim::TimeNs now) {
  (void)now;
  return RunRequest{remaining_, false, false};
}

void DemuxDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  if (remaining_ == 0) {
    return;
  }
  remaining_ -= std::min(remaining_, ran);
  if (remaining_ > 0) {
    return;
  }
  // Packet classified: signal the owning client and move to the next one.
  --pending_packets_;
  ++packets_processed_;
  if (!clients_.empty()) {
    kernel()->SendEvent(clients_[next_client_ % clients_.size()]);
    ++next_client_;
  }
  if (pending_packets_ > 0) {
    remaining_ = per_packet_cost_;
  }
}

// --- DriverDomain ---

DriverDomain::DriverDomain(std::string name, QosParams qos, Mode mode, sim::DurationNs unpriv_cost,
                           sim::DurationNs priv_cost)
    : Domain(std::move(name), qos), mode_(mode), unpriv_cost_(unpriv_cost), priv_cost_(priv_cost) {}

void DriverDomain::BindInterruptChannel(EventChannel* channel) {
  channel->set_closure([this](sim::TimeNs posted_at, sim::TimeNs delivered_at) {
    (void)posted_at;
    (void)delivered_at;
    ++pending_items_;
    if (phase_ == Phase::kIdle) {
      if (mode_ == Mode::kKps) {
        phase_ = Phase::kUnpriv;
        remaining_ = unpriv_cost_;
      } else {
        phase_ = Phase::kPriv;
        remaining_ = unpriv_cost_ + priv_cost_;
      }
    }
  });
}

RunRequest DriverDomain::NextRun(sim::TimeNs now) {
  (void)now;
  if (phase_ == Phase::kIdle) {
    return RunRequest{};
  }
  return RunRequest{remaining_, /*privileged=*/phase_ == Phase::kPriv, false};
}

void DriverDomain::OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) {
  (void)start;
  (void)completed;
  if (phase_ == Phase::kIdle) {
    return;
  }
  remaining_ -= std::min(remaining_, ran);
  if (remaining_ > 0) {
    return;
  }
  if (mode_ == Mode::kKps && phase_ == Phase::kUnpriv) {
    // The short privileged tail of this item.
    phase_ = Phase::kPriv;
    remaining_ = priv_cost_;
    return;
  }
  // Item finished (privileged phase done).
  ++items_done_;
  --pending_items_;
  if (pending_items_ > 0) {
    if (mode_ == Mode::kKps) {
      phase_ = Phase::kUnpriv;
      remaining_ = unpriv_cost_;
    } else {
      phase_ = Phase::kPriv;
      remaining_ = unpriv_cost_ + priv_cost_;
    }
  } else {
    phase_ = Phase::kIdle;
  }
}

}  // namespace pegasus::nemesis
