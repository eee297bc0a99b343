#include "src/core/system.h"

namespace pegasus::core {

namespace {

constexpr int kBackbonePorts = 16;
constexpr int64_t kBackboneLinkBps = 155'000'000;
constexpr int kWorkstationPorts = 8;
constexpr int64_t kDeviceLinkBps = 155'000'000;

}  // namespace

PegasusSystem::PegasusSystem(sim::Simulator* sim) : sim_(sim), network_(sim) {
  backbone_ = network_.AddSwitch("backbone", kBackbonePorts);
}

Workstation* PegasusSystem::AddWorkstation(const std::string& name) {
  return AddWorkstation(name, backbone_, next_backbone_port_++, kBackboneLinkBps);
}

Workstation* PegasusSystem::AddWorkstation(const std::string& name, atm::Switch* attach,
                                           int attach_port, int64_t uplink_bps) {
  workstations_.push_back(
      std::make_unique<Workstation>(&network_, name, kWorkstationPorts, kDeviceLinkBps));
  Workstation* ws = workstations_.back().get();
  network_.ConnectSwitches(ws->local_switch(), ws->ClaimPort(), attach, attach_port, uplink_bps);
  return ws;
}

StorageNode* PegasusSystem::AddStorageServer(const pfs::PfsConfig& config,
                                             const std::string& name) {
  return AddStorageServer(config, name, backbone_, next_backbone_port_++, kBackboneLinkBps);
}

StorageNode* PegasusSystem::AddStorageServer(const pfs::PfsConfig& config,
                                             const std::string& name, atm::Switch* attach,
                                             int attach_port, int64_t link_bps) {
  storage_nodes_.push_back(
      std::make_unique<StorageNode>(&network_, attach, attach_port, config, name, link_bps));
  StorageNode* node = storage_nodes_.back().get();
  if (qos_monitor_ != nullptr) {
    qos_monitor_->AddFileServer(node->server());
  }
  return node;
}

QosMonitor* PegasusSystem::EnableQosMonitor() {
  if (qos_monitor_ == nullptr) {
    qos_monitor_ = std::make_unique<QosMonitor>(sim_, &network_);
    for (const auto& node : storage_nodes_) {
      qos_monitor_->AddFileServer(node->server());
    }
  }
  qos_monitor_->Start();
  return qos_monitor_.get();
}

UnixNode* PegasusSystem::AddUnixNode(const std::string& name) {
  const int port = next_backbone_port_++;
  unix_nodes_.push_back(std::make_unique<UnixNode>(&network_, backbone_, port, name));
  return unix_nodes_.back().get();
}

ComputeNode* PegasusSystem::AddComputeServer(const std::string& name) {
  const int port = next_backbone_port_++;
  compute_nodes_.push_back(std::make_unique<ComputeNode>(&network_, backbone_, port, name));
  return compute_nodes_.back().get();
}

ComputeNode* PegasusSystem::AddComputeServer(const std::string& name, Workstation* ws) {
  const int port = ws->ClaimPort();
  compute_nodes_.push_back(
      std::make_unique<ComputeNode>(&network_, ws->local_switch(), port, name));
  return compute_nodes_.back().get();
}

StreamBuilder PegasusSystem::BuildStream(const std::string& name) {
  std::string stream_name = name;
  if (stream_name.empty()) {
    stream_name = "stream-" + std::to_string(next_stream_id_);
  }
  ++next_stream_id_;
  return StreamBuilder(this, std::move(stream_name));
}

StreamSession* PegasusSystem::AdoptSession(std::unique_ptr<StreamSession> session) {
  streams_.push_back(std::move(session));
  return streams_.back().get();
}

}  // namespace pegasus::core
