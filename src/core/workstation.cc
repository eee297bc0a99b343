#include "src/core/workstation.h"

#include <algorithm>

namespace pegasus::core {

HostRelay::HostRelay(sim::Simulator* sim, atm::Endpoint* host, sim::DurationNs per_cell_cost)
    : sim_(sim), host_(host), per_cell_cost_(per_cell_cost) {
  host_->set_cell_handler(
      [this](const atm::Cell* cells, size_t count) { OnBurst(cells, count); });
}

void HostRelay::AddRoute(atm::Vci in_vci, atm::Vci out_vci) { routes_[in_vci] = out_vci; }

void HostRelay::OnBurst(const atm::Cell* cells, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    auto it = routes_.find(cells[i].vci);
    if (it == routes_.end()) {
      continue;
    }
    // The host CPU copies the cell across the bus and back: one serialised
    // unit of per-cell work.
    const sim::TimeNs start = std::max(sim_->now(), cpu_free_at_);
    const sim::TimeNs done = start + per_cell_cost_;
    cpu_free_at_ = done;
    cpu_time_ += per_cell_cost_;
    ++cells_relayed_;
    atm::Cell out = cells[i];
    out.vci = it->second;
    sim_->ScheduleAt(done, [this, out]() { host_->SendCell(out); });
  }
}

Workstation::Workstation(atm::Network* network, const std::string& name, int ports,
                         int64_t device_link_bps)
    : network_(network), name_(name), device_link_bps_(device_link_bps) {
  switch_ = network_->AddSwitch(name + "/switch", ports);
  host_ = network_->AddEndpoint(name + "/host", switch_, 0, device_link_bps);
  host_transport_ = std::make_unique<atm::MessageTransport>(host_);
}

int Workstation::ClaimPort() { return next_port_++; }

atm::Endpoint* Workstation::NewDevicePort(const std::string& suffix) {
  const int port = ClaimPort();
  return network_->AddEndpoint(name_ + "/" + suffix, switch_, port, device_link_bps_);
}

dev::AtmCamera* Workstation::AddCamera(const dev::AtmCamera::Config& config) {
  atm::Endpoint* ep = NewDevicePort("camera" + std::to_string(cameras_.size()));
  cameras_.push_back(
      std::make_unique<dev::AtmCamera>(switch_->simulator(), ep, config));
  device_endpoints_[cameras_.back().get()] = ep;
  return cameras_.back().get();
}

dev::AtmDisplay* Workstation::AddDisplay(int width, int height) {
  atm::Endpoint* ep = NewDevicePort("display" + std::to_string(displays_.size()));
  displays_.push_back(
      std::make_unique<dev::AtmDisplay>(switch_->simulator(), ep, width, height));
  device_endpoints_[displays_.back().get()] = ep;
  return displays_.back().get();
}

dev::AudioCapture* Workstation::AddAudioCapture(int sample_rate) {
  atm::Endpoint* ep = NewDevicePort("audio-in" + std::to_string(captures_.size()));
  captures_.push_back(
      std::make_unique<dev::AudioCapture>(switch_->simulator(), ep, sample_rate));
  device_endpoints_[captures_.back().get()] = ep;
  return captures_.back().get();
}

dev::AudioPlayback* Workstation::AddAudioPlayback(int sample_rate,
                                                  sim::DurationNs buffer_depth) {
  atm::Endpoint* ep = NewDevicePort("audio-out" + std::to_string(playbacks_.size()));
  playbacks_.push_back(std::make_unique<dev::AudioPlayback>(switch_->simulator(), ep,
                                                            sample_rate, buffer_depth));
  device_endpoints_[playbacks_.back().get()] = ep;
  return playbacks_.back().get();
}

atm::Endpoint* Workstation::device_endpoint(const void* device) const {
  auto it = device_endpoints_.find(device);
  return it == device_endpoints_.end() ? nullptr : it->second;
}

HostRelay* Workstation::EnableHostRelay(sim::DurationNs per_cell_cost) {
  if (relay_ == nullptr) {
    // The relay gets its own "bus NIC" endpoint: in a conventional
    // workstation all media crosses this interface and the host CPU.
    atm::Endpoint* bus = NewDevicePort("bus-nic");
    relay_ = std::make_unique<HostRelay>(switch_->simulator(), bus, per_cell_cost);
    device_endpoints_[relay_.get()] = bus;
  }
  return relay_.get();
}

}  // namespace pegasus::core
