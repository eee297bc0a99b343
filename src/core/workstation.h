// The Pegasus multimedia workstation (§2, Figure 1).
//
// A conventional host plus a *workstation-controlled* ATM switch; cameras,
// displays and audio nodes attach directly to switch ports. The host's CPU
// manages connections and devices but media data need not pass through it —
// the Desk-Area-Network idea. For the architectural comparison (E03) the
// HostRelay below models the conventional alternative, where every media
// cell crosses the workstation bus and is forwarded by host software.
#ifndef PEGASUS_SRC_CORE_WORKSTATION_H_
#define PEGASUS_SRC_CORE_WORKSTATION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/atm/network.h"
#include "src/atm/transport.h"
#include "src/devices/audio.h"
#include "src/devices/camera.h"
#include "src/devices/display.h"
#include "src/sim/event_queue.h"

namespace pegasus::nemesis {
class Kernel;
}

namespace pegasus::core {

// Forwards cells arriving on one VCI out on another, charging per-cell CPU
// time — the software path media takes in a bus-based workstation. The relay
// serialises: cells queue while the "CPU" is busy.
class HostRelay {
 public:
  HostRelay(sim::Simulator* sim, atm::Endpoint* host, sim::DurationNs per_cell_cost);

  // Relay cells arriving on `in_vci` out with `out_vci`.
  void AddRoute(atm::Vci in_vci, atm::Vci out_vci);

  int64_t cells_relayed() const { return cells_relayed_; }
  sim::DurationNs cpu_time_spent() const { return cpu_time_; }

 private:
  void OnBurst(const atm::Cell* cells, size_t count);

  sim::Simulator* sim_;
  atm::Endpoint* host_;
  sim::DurationNs per_cell_cost_;
  std::map<atm::Vci, atm::Vci> routes_;
  sim::TimeNs cpu_free_at_ = 0;
  int64_t cells_relayed_ = 0;
  sim::DurationNs cpu_time_ = 0;
};

class Workstation {
 public:
  // Creates the local switch with `ports` ports and the host endpoint on
  // port 0. `device_link_bps` is the speed of device-to-switch links.
  Workstation(atm::Network* network, const std::string& name, int ports,
              int64_t device_link_bps = 155'000'000);

  const std::string& name() const { return name_; }
  atm::Switch* local_switch() const { return switch_; }
  atm::Endpoint* host() const { return host_; }
  atm::MessageTransport* host_transport() const { return host_transport_.get(); }

  // The Nemesis kernel modelling this workstation's host CPU, when one is
  // attached (not owned). Stream admission checks per-stream CPU contracts
  // against it; without a kernel, CPU demands are not admissible here.
  void AttachKernel(nemesis::Kernel* kernel) { kernel_ = kernel; }
  nemesis::Kernel* kernel() const { return kernel_; }

  // Reserves the next free switch port (for backbone uplinks).
  int ClaimPort();

  // --- device attachment (each device gets its own switch port) ---
  dev::AtmCamera* AddCamera(const dev::AtmCamera::Config& config);
  dev::AtmDisplay* AddDisplay(int width, int height);
  dev::AudioCapture* AddAudioCapture(int sample_rate = 44'100);
  dev::AudioPlayback* AddAudioPlayback(int sample_rate = 44'100,
                                       sim::DurationNs buffer_depth = sim::Milliseconds(10));
  // The endpoint a device was attached through (same order as creation).
  atm::Endpoint* device_endpoint(const void* device) const;

  // Bus-architecture baseline support.
  HostRelay* EnableHostRelay(sim::DurationNs per_cell_cost = sim::Microseconds(5));

 private:
  atm::Endpoint* NewDevicePort(const std::string& suffix);

  atm::Network* network_;
  std::string name_;
  atm::Switch* switch_;
  atm::Endpoint* host_;
  std::unique_ptr<atm::MessageTransport> host_transport_;
  nemesis::Kernel* kernel_ = nullptr;
  int64_t device_link_bps_;
  int next_port_ = 1;
  std::unique_ptr<HostRelay> relay_;

  std::vector<std::unique_ptr<dev::AtmCamera>> cameras_;
  std::vector<std::unique_ptr<dev::AtmDisplay>> displays_;
  std::vector<std::unique_ptr<dev::AudioCapture>> captures_;
  std::vector<std::unique_ptr<dev::AudioPlayback>> playbacks_;
  std::map<const void*, atm::Endpoint*> device_endpoints_;
};

}  // namespace pegasus::core

#endif  // PEGASUS_SRC_CORE_WORKSTATION_H_
