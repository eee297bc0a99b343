// Domain workload models used by tests, examples and experiments.
//
// Each model translates an application pattern from the paper into run
// segments: a periodic media processor (decode a frame every 40 ms), a batch
// compute hog, an IPC server/client pair, a packet demultiplexer and an
// interrupt-driven device driver. Models are deliberately simple — the
// claims under test concern the *kernel's* behaviour, and simple models make
// the expected arithmetic checkable by hand.
#ifndef PEGASUS_SRC_NEMESIS_WORKLOADS_H_
#define PEGASUS_SRC_NEMESIS_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/nemesis/domain.h"
#include "src/nemesis/events.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace pegasus::nemesis {

// Releases a job of `job_cost` CPU every `job_period`, deadline one period
// after release (the natural contract for frame-rate media processing).
// Tracks completion latency, deadline misses and start latency — the metrics
// behind experiment E04.
class PeriodicDomain : public Domain {
 public:
  PeriodicDomain(sim::Simulator* sim, std::string name, QosParams qos, sim::DurationNs job_cost,
                 sim::DurationNs job_period);

  // Stops releasing new jobs (queued ones still complete).
  void Stop() { stopped_ = true; }

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;
  void OnAttached() override;

  int64_t jobs_completed() const { return jobs_completed_; }
  int64_t deadline_misses() const { return deadline_misses_; }
  // Release-to-completion latency (ns).
  const sim::Summary& completion_latency() const { return completion_latency_; }

  // Invoked on each completion; used by integration tests.
  std::function<void(sim::TimeNs release, sim::TimeNs completion)> on_job_complete;

 private:
  void ReleaseJob();

  sim::Simulator* sim_;
  sim::DurationNs job_cost_;
  sim::DurationNs job_period_;
  bool stopped_ = false;

  std::deque<sim::TimeNs> backlog_;  // release times of jobs not yet started
  sim::TimeNs current_release_ = -1;
  sim::DurationNs remaining_ = 0;

  int64_t jobs_completed_ = 0;
  int64_t deadline_misses_ = 0;
  sim::Summary completion_latency_;
};

// Always has work; consumes whatever CPU it is given in `chunk`-sized
// segments. The antagonist in every contention experiment.
class BatchDomain : public Domain {
 public:
  BatchDomain(std::string name, QosParams qos, sim::DurationNs chunk = sim::Microseconds(500));

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;

  sim::DurationNs consumed() const { return consumed_; }

 private:
  sim::DurationNs chunk_;
  sim::DurationNs consumed_ = 0;
};

// Serves requests arriving on an IpcChannel: each request costs
// `service_cost` CPU, then a reply is sent. Requests are discovered at
// activation time via the request event's closure — the event-driven domain
// pattern of §3.4.
class ServerDomain : public Domain {
 public:
  ServerDomain(std::string name, QosParams qos, sim::DurationNs service_cost);

  // Must be called once, after the kernel created the channel.
  void BindChannel(IpcChannel* channel);

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;

  int64_t requests_served() const { return requests_served_; }

 private:
  void DrainRequests();

  sim::DurationNs service_cost_;
  IpcChannel* channel_ = nullptr;
  std::deque<std::vector<uint8_t>> queue_;
  sim::DurationNs remaining_ = 0;
  std::vector<uint8_t> current_;
  int64_t requests_served_ = 0;
};

// Issues `total_calls` RPC-style calls back to back: prepare (`call_cost`
// CPU), send, optionally do `post_send_work` CPU of local bookkeeping, block
// until the reply event, repeat after `think_time`. Measures round-trip
// latency — the metric of experiment E06. With synchronous signalling the
// send donates the CPU to the server even though post-send work remains;
// with asynchronous signalling the client finishes its bookkeeping first.
class ClientDomain : public Domain {
 public:
  ClientDomain(sim::Simulator* sim, std::string name, QosParams qos, sim::DurationNs call_cost,
               int64_t total_calls, sim::DurationNs think_time = 0,
               sim::DurationNs post_send_work = 0);

  void BindChannel(IpcChannel* channel);

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;
  void OnAttached() override;

  int64_t calls_completed() const { return calls_completed_; }
  bool done() const { return calls_completed_ >= total_calls_; }
  // Send-to-reply-delivery round-trip time (ns).
  const sim::Summary& round_trip() const { return round_trip_; }

 private:
  enum class Phase { kIdle, kPrepare, kPostSend };

  void MaybeStartNextCall();

  sim::Simulator* sim_;
  sim::DurationNs call_cost_;
  int64_t total_calls_;
  sim::DurationNs think_time_;
  sim::DurationNs post_send_work_;
  IpcChannel* channel_ = nullptr;

  Phase phase_ = Phase::kIdle;
  sim::DurationNs remaining_ = 0;
  bool waiting_reply_ = false;
  bool think_elapsed_ = true;
  sim::TimeNs sent_at_ = 0;
  int64_t calls_started_ = 0;
  int64_t calls_completed_ = 0;
  sim::Summary round_trip_;
};

// A protocol demultiplexer (§3.4's asynchronous example): packets arrive as
// interrupt events; each costs `per_packet_cost` CPU, after which the packet
// is signalled onward to one of the bound client channels in round-robin.
// With asynchronous signalling the demux keeps the CPU and drains its queue;
// with synchronous signalling it donates the CPU after every packet.
class DemuxDomain : public Domain {
 public:
  DemuxDomain(std::string name, QosParams qos, sim::DurationNs per_packet_cost);

  // The channel devices raise packet-arrival interrupts on.
  void BindPacketChannel(EventChannel* channel);
  // Downstream per-client channels (sync or async as created).
  void AddClientChannel(EventChannel* channel);

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;

  int64_t packets_processed() const { return packets_processed_; }

 private:
  sim::DurationNs per_packet_cost_;
  std::vector<EventChannel*> clients_;
  int64_t pending_packets_ = 0;
  sim::DurationNs remaining_ = 0;
  size_t next_client_ = 0;
  int64_t packets_processed_ = 0;
};

// An interrupt-driven device driver, the subject of the KPS experiment
// (E15). Each work item costs `unpriv_cost` of ordinary CPU plus `priv_cost`
// that must run with interrupts masked. In kKps mode only the privileged
// part masks interrupts (a short Kernel-Privileged Section); in kMonolithic
// mode the whole item runs in kernel mode, the way a conventional OS would
// run the entire driver module.
class DriverDomain : public Domain {
 public:
  enum class Mode { kKps, kMonolithic };

  DriverDomain(std::string name, QosParams qos, Mode mode, sim::DurationNs unpriv_cost,
               sim::DurationNs priv_cost);

  // The channel devices raise work-arrival interrupts on.
  void BindInterruptChannel(EventChannel* channel);

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;

  int64_t items_done() const { return items_done_; }

 private:
  enum class Phase { kIdle, kUnpriv, kPriv };

  Mode mode_;
  sim::DurationNs unpriv_cost_;
  sim::DurationNs priv_cost_;
  int64_t pending_items_ = 0;
  Phase phase_ = Phase::kIdle;
  sim::DurationNs remaining_ = 0;
  int64_t items_done_ = 0;
};

}  // namespace pegasus::nemesis

#endif  // PEGASUS_SRC_NEMESIS_WORKLOADS_H_
