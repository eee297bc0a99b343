// The Quality-of-Service manager domain (§3.3).
//
// "Above this primitive-level scheduler, and running on a longer time scale
// is a Quality-of-Service-manager domain whose task is to update the
// scheduler weights; this is performed not only in response to applications
// entering or leaving the system, but also adaptively as applications modify
// their behaviour — this is performed on a longer time scale [than] the
// individual scheduling decisions in order to smooth out short-term
// variations in load."
//
// The manager runs *as a Nemesis domain*: every `epoch` it wakes, reviews
// its clients' requests, weights and recent usage, computes new slices by
// weighted water-filling under a target utilisation, smooths them with an
// exponentially weighted moving average, and applies them through
// Kernel::UpdateQos.
#ifndef PEGASUS_SRC_NEMESIS_QOS_MANAGER_H_
#define PEGASUS_SRC_NEMESIS_QOS_MANAGER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/nemesis/domain.h"
#include "src/sim/event_queue.h"

namespace pegasus::nemesis {

// Why a review moved a client's grant. Cross-layer adaptation policies key
// off this: a kContention cut means the CPU the stream asked for is truly
// gone (other layers should shrink with it), a kReclaim cut only mirrors the
// client's own idleness (the other layers' throughput is still deliverable),
// and kRestore means capacity came back.
enum class GrantReason {
  kContention,  // squeezed by competing demand against the target utilisation
  kReclaim,     // trimmed toward the client's own observed (idle) usage
  kRestore,     // the grant grew back toward the request
};

const char* GrantReasonName(GrantReason reason);

// One grant change as reported to a client's callback.
struct GrantUpdate {
  // The utilisation now applied through Kernel::UpdateQos (EWMA-smoothed).
  double granted_util = 0.0;
  // The un-smoothed water-filling target of this epoch — where the smoothed
  // grant will converge if load stays put. Adaptation policies renegotiate
  // toward this once instead of chasing every EWMA step (no thrash).
  double steady_state_util = 0.0;
  GrantReason reason = GrantReason::kContention;
  // True when the steady state is bounded by the client's own (reclaimed)
  // idleness rather than by competing demand: the client would get more the
  // moment it used more. Cross-layer policies must not treat such a grant
  // as a capacity constraint on the other layers.
  bool self_limited = false;
};

class QosManagerDomain : public Domain {
 public:
  struct Options {
    // Review interval — deliberately much longer than scheduler periods.
    // Each review costs the manager a fixed slice of CPU (kReviewCost).
    sim::DurationNs epoch = sim::Milliseconds(250);
    // Total guaranteed utilisation the manager is willing to hand out.
    double target_utilization = 0.9;
    // EWMA smoothing factor for slice changes, in (0, 1]; 1 = no smoothing.
    double smoothing = 0.4;
    // When true, chronically idle clients are trimmed towards their observed
    // usage (plus a fixed 25% headroom) so the surplus can serve others.
    bool reclaim_unused = true;
  };

  QosManagerDomain(sim::Simulator* sim, std::string name, QosParams own_qos, Options options);

  // Invoked after a review changed a client's granted utilisation — the
  // cross-layer hook stream sessions use to learn of degradation and
  // re-negotiate the other layers.
  using GrantCallback = std::function<void(const GrantUpdate& update)>;

  // Registers a client with a policy weight (the "user's current policy")
  // and the QoS it *asks* for. Takes effect at the next epoch.
  void Register(Domain* client, double weight, QosParams requested,
                GrantCallback on_grant = nullptr);
  void Unregister(Domain* client);

  // Granted utilisation for a client, as of the last review.
  double GrantedUtilization(Domain* client) const;
  int64_t reviews() const { return reviews_; }

  RunRequest NextRun(sim::TimeNs now) override;
  void OnRunEnd(sim::TimeNs start, sim::DurationNs ran, bool completed) override;
  void OnAttached() override;

 private:
  struct ClientState {
    double weight = 1.0;
    QosParams requested;
    double granted_util = 0.0;
    // EWMA of observed utilisation.
    double observed_util = 0.0;
    sim::DurationNs last_cpu_total = 0;
    GrantCallback on_grant;
  };

  void Review();

  sim::Simulator* sim_;
  Options options_;
  std::map<Domain*, ClientState> clients_;
  sim::DurationNs pending_work_ = 0;
  sim::TimeNs last_review_at_ = 0;
  int64_t reviews_ = 0;
};

}  // namespace pegasus::nemesis

#endif  // PEGASUS_SRC_NEMESIS_QOS_MANAGER_H_
