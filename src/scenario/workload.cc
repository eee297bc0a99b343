#include "src/scenario/workload.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace pegasus::scenario {

namespace {

// Live sources frame at the classic video cadence; paced frame sizes follow
// the granted rate.
constexpr sim::DurationNs kFrameInterval = sim::Milliseconds(40);

// Nominal contract rate of each session type.
constexpr int64_t kPhoneBps = 2'000'000;
constexpr int64_t kVodBps = 4'000'000;
constexpr int64_t kRecordBps = 3'000'000;
constexpr int64_t kBroadcastBps = 3'000'000;
// Zipf skew of title and channel popularity.
constexpr double kZipfTheta = 0.8;
constexpr double kBroadcastZipfTheta = 0.8;
// Live broadcast channels, ranked by popularity.
constexpr size_t kBroadcastChannels = 8;
// Cadence at which session adaptation counters are polled.
constexpr sim::DurationNs kMetricsPeriod = sim::Milliseconds(100);

double WallNsSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
}

// Stream-derivation tags: arbitrary distinct constants XORed into the user
// seed so the per-purpose streams are mutually independent but still a
// pure function of params.seed.
constexpr uint64_t kArrivalStream = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMixStream = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kHoldingStream = 0x94d049bb133111ebULL;
constexpr uint64_t kFateStream = 0xd6e8feb86659fd93ULL;

}  // namespace

ScenarioEngine::ScenarioEngine(core::PegasusSystem* system, const MetroTopology* topo,
                               WorkloadParams params)
    : system_(system),
      topo_(topo),
      params_(params),
      sim_(system->simulator()),
      arrival_rng_(params.seed ^ kArrivalStream),
      mix_rng_(params.seed ^ kMixStream),
      holding_rng_(params.seed ^ kHoldingStream),
      fate_rng_(params.seed ^ kFateStream) {
  SeedCatalog();
  channels_.resize(kBroadcastChannels);
}

template <typename Admit>
auto ScenarioEngine::TimeAdmission(Admit admit) {
  const auto wall0 = std::chrono::steady_clock::now();
  auto result = admit();
  const double admit_ns = WallNsSince(wall0);
  ++metrics_.admit_calls;
  metrics_.admit_wall_ns_total += admit_ns;
  metrics_.admit_wall_ns_max = std::max(metrics_.admit_wall_ns_max, admit_ns);
  return result;
}

void ScenarioEngine::SeedCatalog() {
  if (params_.vod_weight <= 0.0 || topo_->storage.empty()) {
    return;
  }
  // Storage-major layout: popularity rank i lives on storage node
  // i / files_per_storage, so the head of the Zipf ranking — most of the
  // offered VOD load — lands on the first storage node and makes it hot.
  for (int s = 0; s < static_cast<int>(topo_->storage.size()); ++s) {
    for (int f = 0; f < WorkloadParams::catalog_files_per_storage; ++f) {
      catalog_files_.push_back(topo_->storage[static_cast<size_t>(s)]->SeedContinuousFile(
          WorkloadParams::catalog_records_per_file, WorkloadParams::catalog_record_bytes,
          WorkloadParams::catalog_record_cadence));
      catalog_storage_.push_back(s);
      catalog_busy_.push_back(false);
    }
  }
}

int ScenarioEngine::ProbeCatalog(int rank) {
  const int n = static_cast<int>(catalog_files_.size());
  for (int k = 0; k < n; ++k) {
    const int idx = (rank + k) % n;
    if (!catalog_busy_[static_cast<size_t>(idx)]) {
      return idx;
    }
  }
  return -1;
}

void ScenarioEngine::ScheduleNextArrival() {
  const double gap_ns = arrival_rng_.Exponential(1e9 / params_.arrivals_per_sec);
  const sim::DurationNs gap = std::max<sim::DurationNs>(1, static_cast<sim::DurationNs>(gap_ns));
  sim_->ScheduleAfter(gap, [this]() { OnArrival(); });
}

void ScenarioEngine::RecordBlock(const core::AdmissionReport& report) {
  ++metrics_.blocked;
  if (report.counter_offer.has_value()) {
    ++metrics_.counter_offers;
  }
  switch (report.failure) {
    case core::AdmitFailure::kNetworkBandwidth:
      ++metrics_.blocked_network;
      break;
    case core::AdmitFailure::kDiskBandwidth:
      ++metrics_.blocked_disk;
      break;
    default:
      ++metrics_.blocked_other;
      break;
  }
}

void ScenarioEngine::OnArrival() {
  if (!running_) {
    return;
  }
  ScheduleNextArrival();
  ++metrics_.arrivals;

  // Every arrival draws in a fixed order so a seed replays exactly; each
  // aspect draws from its own stream so they cannot perturb one another.
  const double type_draw = mix_rng_.UniformDouble();
  const sim::DurationNs holding = std::max<sim::DurationNs>(
      sim::Milliseconds(1),
      static_cast<sim::DurationNs>(holding_rng_.Exponential(params_.mean_holding_sec * 1e9)));
  const bool drives_data = fate_rng_.Bernoulli(params_.data_session_fraction);
  const bool renegotiates = fate_rng_.Bernoulli(params_.renegotiate_fraction);

  const int num_hosts = static_cast<int>(topo_->hosts.size());
  const int num_storage = static_cast<int>(topo_->storage.size());
  double phone_w = num_hosts >= 2 ? params_.phone_weight : 0.0;
  double vod_w = (!catalog_files_.empty() && num_hosts >= 1) ? params_.vod_weight : 0.0;
  double record_w = (num_storage >= 1 && num_hosts >= 1) ? params_.record_weight : 0.0;
  // Broadcast needs a head host plus at least one distinct viewer host. The
  // default weight of 0.0 makes every threshold below identical to the
  // legacy three-way mix, so pre-broadcast fleets replay bit-for-bit.
  double broadcast_w =
      (num_hosts >= 2 && !channels_.empty()) ? params_.broadcast_weight : 0.0;
  const double total_w = phone_w + vod_w + record_w + broadcast_w;
  if (total_w <= 0.0) {
    ++metrics_.blocked;
    ++metrics_.blocked_other;
    return;
  }

  const int64_t id = next_session_id_++;
  SessionType type;
  if (type_draw < phone_w / total_w) {
    type = SessionType::kPhone;
  } else if (type_draw < (phone_w + vod_w) / total_w) {
    type = SessionType::kVod;
  } else if (type_draw < (phone_w + vod_w + record_w) / total_w) {
    type = SessionType::kRecord;
  } else {
    type = SessionType::kBroadcast;
  }

  if (type == SessionType::kBroadcast) {
    // Broadcast viewers ride a shared tree, not their own contract: channel
    // choice is Zipf over the popularity-ranked channel list, the viewer
    // host is drawn uniformly. Both draws come from the mix stream in the
    // same fixed order as the other branches. Viewers never renegotiate —
    // the channel, degraded as one unit, owns its contract.
    const int rank = static_cast<int>(
        mix_rng_.Zipf(static_cast<int64_t>(channels_.size()), kBroadcastZipfTheta));
    const int viewer_draw = static_cast<int>(mix_rng_.UniformInt(0, num_hosts - 1));
    OnBroadcastArrival(id, rank, viewer_draw, holding, drives_data);
    return;
  }

  ActiveSession entry;
  entry.type = type;
  core::StreamSpec spec;
  core::StorageNode* storage = nullptr;

  core::StreamBuilder builder = system_->BuildStream();
  switch (type) {
    case SessionType::kPhone: {
      const int a = static_cast<int>(mix_rng_.UniformInt(0, num_hosts - 1));
      int b = static_cast<int>(mix_rng_.UniformInt(0, num_hosts - 2));
      if (b >= a) {
        ++b;
      }
      core::Workstation* src = topo_->hosts[static_cast<size_t>(a)];
      core::Workstation* dst = topo_->hosts[static_cast<size_t>(b)];
      spec = core::StreamSpec::Video(25.0, kPhoneBps);
      builder.FromEndpoint(src, src->host()).ToEndpoint(dst, dst->host());
      entry.source_ws = src;
      break;
    }
    case SessionType::kVod: {
      const int viewer = static_cast<int>(mix_rng_.UniformInt(0, num_hosts - 1));
      const int rank = static_cast<int>(
          mix_rng_.Zipf(static_cast<int64_t>(catalog_files_.size()), kZipfTheta));
      const int idx = ProbeCatalog(rank);
      if (idx < 0) {
        // Whole catalog on the air: the title (and every fallback) is busy.
        ++metrics_.blocked;
        ++metrics_.blocked_content_busy;
        return;
      }
      storage = topo_->storage[static_cast<size_t>(catalog_storage_[static_cast<size_t>(idx)])];
      core::Workstation* dst = topo_->hosts[static_cast<size_t>(viewer)];
      spec = core::StreamSpec::Video(25.0, kVodBps);
      spec.disk_bps = kVodBps / 8;
      builder.FromStorage(storage, catalog_files_[static_cast<size_t>(idx)])
          .ToEndpoint(dst, dst->host());
      entry.catalog_index = idx;
      break;
    }
    case SessionType::kRecord: {
      const int src_idx = static_cast<int>(mix_rng_.UniformInt(0, num_hosts - 1));
      const int st = static_cast<int>(mix_rng_.UniformInt(0, num_storage - 1));
      storage = topo_->storage[static_cast<size_t>(st)];
      core::Workstation* src = topo_->hosts[static_cast<size_t>(src_idx)];
      spec = core::StreamSpec::Video(25.0, kRecordBps);
      spec.disk_bps = kRecordBps / 8;
      builder.FromEndpoint(src, src->host()).ToStorage(storage, static_cast<uint32_t>(id));
      entry.source_ws = src;
      break;
    }
    case SessionType::kBroadcast:
      return;  // dispatched above; never reaches the unicast builder path
  }

  builder.WithSpec(spec).WithAdaptation(WorkloadParams::adaptation);
  core::StreamResult result = TimeAdmission([&builder] { return builder.Open(); });
  if (!result.report.ok()) {
    RecordBlock(result.report);
    return;
  }

  ++metrics_.admitted;
  entry.session = result.session;
  if (entry.catalog_index >= 0) {
    catalog_busy_[static_cast<size_t>(entry.catalog_index)] = true;
  }
  active_[id] = entry;
  metrics_.peak_concurrent =
      std::max(metrics_.peak_concurrent, static_cast<int64_t>(active_.size()));

  sim_->ScheduleAfter(holding, [this, id]() { OnDeparture(id); });
  if (renegotiates) {
    sim_->ScheduleAfter(holding / 2, [this, id]() { OnRenegotiate(id); });
  }
  if (drives_data) {
    if (type == SessionType::kVod) {
      // Real play-out: the storage node streams the title's records onto
      // the session's first-leg VC at the granted pace (bound by Open).
      storage->StartPlayback(entry.session->file(), entry.session->source_vci());
    } else {
      DriveFrames(id);
    }
  }
}

void ScenarioEngine::OnBroadcastArrival(int64_t id, int channel, int viewer_draw,
                                        sim::DurationNs holding, bool drives_data) {
  BroadcastChannel& ch = channels_[static_cast<size_t>(channel)];
  const int num_hosts = static_cast<int>(topo_->hosts.size());
  const int head_idx = channel % num_hosts;

  // Find a seat: starting at the drawn host, probe linearly past the
  // channel's head-end and hosts already watching this channel. A channel
  // every host is already watching is full — the broadcast analogue of the
  // whole catalog being on the air.
  core::Workstation* viewer = nullptr;
  for (int k = 0; k < num_hosts; ++k) {
    const int h = (viewer_draw + k) % num_hosts;
    if (h == head_idx) {
      continue;
    }
    core::Workstation* ws = topo_->hosts[static_cast<size_t>(h)];
    if (ch.session != nullptr && ch.session->SinkVci(ws->host()).has_value()) {
      continue;
    }
    viewer = ws;
    break;
  }
  if (viewer == nullptr) {
    ++metrics_.blocked;
    ++metrics_.blocked_content_busy;
    return;
  }

  core::MulticastSink sink;
  sink.ws = viewer;
  sink.endpoint = viewer->host();

  if (ch.session == nullptr) {
    // First viewer in: open the delivery tree with this viewer as its only
    // leaf. Whether the channel actually moves cells is the channel's fate,
    // fixed now by its first viewer's draw.
    core::Workstation* head = topo_->hosts[static_cast<size_t>(head_idx)];
    core::StreamBuilder builder = system_->BuildStream();
    builder.FromEndpoint(head, head->host())
        .ToMany({sink})
        .WithSpec(core::StreamSpec::Video(25.0, kBroadcastBps))
        .WithAdaptation(WorkloadParams::adaptation);
    core::StreamResult result = TimeAdmission([&builder] { return builder.Open(); });
    if (!result.report.ok()) {
      RecordBlock(result.report);
      return;
    }
    ++metrics_.admitted;
    ++metrics_.mcast_trees_opened;
    ch.session = result.session;
    ch.head = head;
    ch.viewers = 0;
    ++ch.generation;
    if (drives_data) {
      DriveChannelFrames(channel, ch.generation);
    }
  } else {
    // Channel already on the air: the graft admits and reserves only the
    // branch from the existing tree to this viewer.
    const core::AdmissionReport report =
        TimeAdmission([&ch, &sink] { return ch.session->AddSink(sink); });
    if (!report.ok()) {
      RecordBlock(report);
      return;
    }
    ++metrics_.admitted;
    ++metrics_.mcast_grafts;
  }
  ++ch.viewers;
  metrics_.mcast_peak_leaves =
      std::max(metrics_.mcast_peak_leaves, static_cast<int64_t>(ch.session->sink_count()));

  ActiveSession entry;
  entry.type = SessionType::kBroadcast;
  entry.channel = channel;
  entry.viewer_ep = viewer->host();
  active_[id] = entry;
  metrics_.peak_concurrent =
      std::max(metrics_.peak_concurrent, static_cast<int64_t>(active_.size()));
  sim_->ScheduleAfter(holding, [this, id]() { OnDeparture(id); });
}

void ScenarioEngine::DriveChannelFrames(int channel, int64_t generation) {
  BroadcastChannel& ch = channels_[static_cast<size_t>(channel)];
  if (!running_ || ch.session == nullptr || ch.generation != generation) {
    return;
  }
  // One chain per channel, not per viewer: the head-end sends each frame
  // exactly once regardless of how many leaves the tree carries.
  SendFrame(ch.head, ch.session, static_cast<uint8_t>(channel + 1));
  sim_->ScheduleAfter(kFrameInterval,
                      [this, channel, generation]() { DriveChannelFrames(channel, generation); });
}

void ScenarioEngine::DriveFrames(int64_t id) {
  auto it = active_.find(id);
  if (it == active_.end() || !running_) {
    return;
  }
  SendFrame(it->second.source_ws, it->second.session, static_cast<uint8_t>(id));
  sim_->ScheduleAfter(kFrameInterval, [this, id]() { DriveFrames(id); });
}

void ScenarioEngine::SendFrame(core::Workstation* ws, core::StreamSession* session,
                               uint8_t fill) {
  const int64_t bps = session->legs().front().granted_bps;
  const size_t bytes = static_cast<size_t>(std::clamp<int64_t>(
      bps / 8 / 25, 64, static_cast<int64_t>(atm::kAal5MaxSduSize) - 64));
  ws->host_transport()->Send(session->source_vci(), std::vector<uint8_t>(bytes, fill), bps);
}

void ScenarioEngine::OnRenegotiate(int64_t id) {
  auto it = active_.find(id);
  if (it == active_.end() || !running_) {
    return;
  }
  // Renegotiating sessions cut every rate of their contract to this share.
  constexpr double kRenegotiateScale = 0.6;
  core::StreamSession* session = it->second.session;
  core::StreamSpec spec = session->contract().granted;
  spec.bandwidth_bps =
      static_cast<int64_t>(static_cast<double>(spec.bandwidth_bps) * kRenegotiateScale);
  for (auto& leg : spec.legs) {
    if (leg.bandwidth_bps > 0) {
      leg.bandwidth_bps =
          static_cast<int64_t>(static_cast<double>(leg.bandwidth_bps) * kRenegotiateScale);
    }
  }
  spec.disk_bps = static_cast<int64_t>(static_cast<double>(spec.disk_bps) * kRenegotiateScale);
  const core::AdmissionReport report = session->Renegotiate(spec);
  if (report.ok()) {
    ++metrics_.renegotiations;
  } else {
    ++metrics_.renegotiations_refused;
  }
}

void ScenarioEngine::Poll(const core::StreamSession* session, AdaptationWatch* watch) {
  if (session == nullptr || !session->has_adaptation()) {
    return;
  }
  const int64_t applied = session->adaptations_applied();
  if (applied > watch->applied_seen) {
    if (watch->first_applied_at < 0) {
      watch->first_applied_at = sim_->now();
    }
    watch->last_applied_at = sim_->now();
    metrics_.adaptation_events += applied - watch->applied_seen;
    watch->applied_seen = applied;
  }
}

void ScenarioEngine::Finish(AdaptationWatch* watch) {
  if (watch->first_applied_at >= 0) {
    ++metrics_.adapting_sessions;
    const sim::DurationNs convergence = watch->last_applied_at - watch->first_applied_at;
    metrics_.convergence_total_ns += convergence;
    metrics_.convergence_max_ns = std::max(metrics_.convergence_max_ns, convergence);
  }
  *watch = AdaptationWatch{};
}

void ScenarioEngine::OnDeparture(int64_t id) {
  auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  ActiveSession& s = it->second;
  if (s.type == SessionType::kBroadcast) {
    BroadcastChannel& ch = channels_[static_cast<size_t>(s.channel)];
    if (ch.session != nullptr) {
      if (ch.viewers > 1) {
        if (ch.session->RemoveSink(s.viewer_ep)) {
          ++metrics_.mcast_prunes;
        }
        --ch.viewers;
      } else {
        // Last viewer out: the whole tree comes down with it.
        Poll(ch.session, &ch.watch);
        Finish(&ch.watch);
        ch.session->Close();
        ch.session = nullptr;
        ch.head = nullptr;
        ch.viewers = 0;
      }
    }
    ++metrics_.departed;
    active_.erase(it);
    return;
  }
  Poll(s.session, &s.watch);
  Finish(&s.watch);
  if (s.catalog_index >= 0) {
    catalog_busy_[static_cast<size_t>(s.catalog_index)] = false;
  }
  s.session->Close();
  ++metrics_.departed;
  active_.erase(it);
}

void ScenarioEngine::OnMetricsTick() {
  if (!running_) {
    return;
  }
  for (auto& [id, s] : active_) {
    (void)id;
    Poll(s.session, &s.watch);
  }
  for (BroadcastChannel& ch : channels_) {
    Poll(ch.session, &ch.watch);
  }
  sim_->ScheduleAfter(kMetricsPeriod, [this]() { OnMetricsTick(); });
}

const FleetMetrics& ScenarioEngine::Run(sim::DurationNs duration) {
  const auto wall0 = std::chrono::steady_clock::now();
  uint64_t cells0 = 0;
  uint64_t drops0 = 0;
  for (const auto& link : system_->network().links()) {
    cells0 += link->cells_sent();
    drops0 += link->cells_dropped();
  }
  int64_t played0 = 0;
  int64_t recorded0 = 0;
  for (core::StorageNode* node : topo_->storage) {
    played0 += node->records_played();
    recorded0 += node->records_recorded();
  }
  const int64_t rej_bw0 = system_->network().admission_rejections_bandwidth();
  const int64_t rej_np0 = system_->network().admission_rejections_no_path();

  if (params_.enable_qos_monitor) {
    system_->EnableQosMonitor();
  }
  running_ = true;
  end_time_ = sim_->now() + duration;
  ScheduleNextArrival();
  sim_->ScheduleAfter(kMetricsPeriod, [this]() { OnMetricsTick(); });
  // A sharded network is driven through its shard group: every control
  // event (arrival, departure, tick...) becomes a global sync point with
  // all shards quiesced at that instant, so this code may touch any shard's
  // state exactly as it does single-simulator.
  if (sim::ShardGroup* group = system_->network().shard_group(); group != nullptr) {
    group->RunUntil(end_time_);
  } else {
    sim_->RunUntil(end_time_);
  }
  running_ = false;

  // Final sweep: sessions still on the air contribute their adaptation
  // history even though they never departed.
  for (auto& [id, s] : active_) {
    (void)id;
    Poll(s.session, &s.watch);
    Finish(&s.watch);
  }
  for (BroadcastChannel& ch : channels_) {
    Poll(ch.session, &ch.watch);
    Finish(&ch.watch);
  }
  metrics_.concurrent_at_end = static_cast<int64_t>(active_.size());
  metrics_.sim_duration_ns = duration;

  uint64_t cells1 = 0;
  uint64_t drops1 = 0;
  for (const auto& link : system_->network().links()) {
    cells1 += link->cells_sent();
    drops1 += link->cells_dropped();
  }
  metrics_.link_cells_sent = cells1 - cells0;
  metrics_.link_cells_dropped = drops1 - drops0;
  for (core::StorageNode* node : topo_->storage) {
    metrics_.records_played += node->records_played();
    metrics_.records_recorded += node->records_recorded();
  }
  metrics_.records_played -= played0;
  metrics_.records_recorded -= recorded0;
  metrics_.net_rejections_bandwidth =
      system_->network().admission_rejections_bandwidth() - rej_bw0;
  metrics_.net_rejections_no_path = system_->network().admission_rejections_no_path() - rej_np0;
  metrics_.run_wall_seconds = WallNsSince(wall0) / 1e9;
  return metrics_;
}

}  // namespace pegasus::scenario
