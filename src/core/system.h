// Full-system assembly (§2.3, Figure 4).
//
// "An overview of the Pegasus architecture ... a Pegasus multimedia
// workstation, multimedia compute server, storage server and Unix server,
// all interconnected by an ATM network." PegasusSystem wires that picture:
// a backbone switch, workstations with their own local switches, a storage
// node, Unix nodes hosting the control halves of applications. Media paths
// are set up through BuildStream(), the admission-controlled cross-layer
// session API of src/core/stream.h.
#ifndef PEGASUS_SRC_CORE_SYSTEM_H_
#define PEGASUS_SRC_CORE_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/atm/network.h"
#include "src/core/compute_node.h"
#include "src/core/qos_monitor.h"
#include "src/core/storage_node.h"
#include "src/core/stream.h"
#include "src/core/unix_node.h"
#include "src/core/workstation.h"
#include "src/pfs/server.h"

namespace pegasus::core {

class PegasusSystem {
 public:
  // The backbone switch, each workstation's local switch and the links the
  // system wires itself have fixed sizes and rates (constants of system.cc).
  explicit PegasusSystem(sim::Simulator* sim);

  sim::Simulator* simulator() const { return sim_; }
  atm::Network& network() { return network_; }
  atm::Switch* backbone() const { return backbone_; }

  // --- component factories ---
  // A workstation whose local switch uplinks to the next backbone port.
  Workstation* AddWorkstation(const std::string& name);
  // Attach-anywhere variant for generated fabrics: the workstation's local
  // switch uplinks to `attach` port `attach_port` at `uplink_bps` instead of
  // the backbone. The metro-scale topology generator hangs hosts off edge
  // switches this way.
  Workstation* AddWorkstation(const std::string& name, atm::Switch* attach, int attach_port,
                              int64_t uplink_bps);
  StorageNode* AddStorageServer(const pfs::PfsConfig& config,
                                const std::string& name = "storage");
  // Attach-anywhere variant: the storage endpoint hangs off `attach` port
  // `attach_port` at `link_bps` instead of the backbone.
  StorageNode* AddStorageServer(const pfs::PfsConfig& config, const std::string& name,
                                atm::Switch* attach, int attach_port, int64_t link_bps);
  UnixNode* AddUnixNode(const std::string& name = "unix");
  ComputeNode* AddComputeServer(const std::string& name = "compute");
  // A compute server attached to `ws`'s local switch rather than the
  // backbone — an accelerator sitting next to the desk. Pipelines detouring
  // between backbone and local compute nodes revisit the workstation's
  // uplink, so two legs of one contract share a directed link: the case the
  // joint per-link admission accounting exists for.
  ComputeNode* AddComputeServer(const std::string& name, Workstation* ws);

  // --- session management (the device manager's job, §2.2) ---
  // Starts a fluent, admission-controlled stream setup. The returned builder
  // checks network bandwidth on every hop, CPU headroom at each end and PFS
  // disk rate together before binding anything.
  StreamBuilder BuildStream(const std::string& name = "");
  // Takes ownership of a session built by a StreamBuilder. Sessions live
  // until the system dies, even after Close() (pending simulator events may
  // still reference their handler domains).
  StreamSession* AdoptSession(std::unique_ptr<StreamSession> session);
  const std::vector<std::unique_ptr<StreamSession>>& streams() const { return streams_; }

  // --- closed-loop monitoring (opt-in) ---
  // Starts a QosMonitor over every link of the network and every storage
  // server (present and future): congestion and disk budget-pressure
  // signals are thereafter derived from observed queues, drops and play-out
  // lateness instead of explicit SignalCongestion / SignalBudgetPressure
  // calls. Idempotent; returns the (already-)running monitor.
  QosMonitor* EnableQosMonitor();
  // The running monitor, or nullptr when not enabled.
  QosMonitor* qos_monitor() const { return qos_monitor_.get(); }

  const std::vector<std::unique_ptr<Workstation>>& workstations() const {
    return workstations_;
  }

 private:
  sim::Simulator* sim_;
  atm::Network network_;
  atm::Switch* backbone_;
  int next_backbone_port_ = 0;
  std::vector<std::unique_ptr<Workstation>> workstations_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  std::vector<std::unique_ptr<UnixNode>> unix_nodes_;
  std::vector<std::unique_ptr<ComputeNode>> compute_nodes_;
  std::vector<std::unique_ptr<StreamSession>> streams_;
  std::unique_ptr<QosMonitor> qos_monitor_;
  int next_stream_id_ = 1;
};

}  // namespace pegasus::core

#endif  // PEGASUS_SRC_CORE_SYSTEM_H_
