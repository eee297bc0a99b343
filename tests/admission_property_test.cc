// Admission invariants under randomized churn.
//
// Whatever sequence of open / renegotiate / close the system sees — point-
// to-point streams, compute pipelines, recordings with disk reservations,
// accepted counter-offers — the granted contracts never overcommit any
// layer: per-link reserved bandwidth stays within capacity, per-kernel
// admitted utilisation within the scheduler's capacity, and the PFS stream
// budget is never exceeded. And closing everything returns all three
// layers to their initial free capacity, exactly.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/compute_node.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"
#include "src/sim/random.h"

namespace pegasus::core {
namespace {

using nemesis::QosParams;
using sim::Milliseconds;

class AdmissionChurnProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  AdmissionChurnProperty() : system_(&sim_) {
    for (int i = 0; i < 3; ++i) {
      Workstation* ws = system_.AddWorkstation("ws" + std::to_string(i));
      kernels_.push_back(std::make_unique<nemesis::Kernel>(
          &sim_, std::make_unique<nemesis::AtroposScheduler>(1.0)));
      ws->AttachKernel(kernels_.back().get());
      dev::AtmCamera::Config cfg;
      cfg.width = 64;
      cfg.height = 64;
      cameras_.push_back(ws->AddCamera(cfg));
      displays_.push_back(ws->AddDisplay(640, 480));
      workstations_.push_back(ws);
    }
    compute_ = system_.AddComputeServer();
    kernels_.push_back(std::make_unique<nemesis::Kernel>(
        &sim_, std::make_unique<nemesis::AtroposScheduler>(1.0)));
    compute_->AttachKernel(kernels_.back().get());

    pfs::PfsConfig pfs_cfg;
    pfs_cfg.segment_size = 64 << 10;
    pfs_cfg.block_size = 8 << 10;
    pfs_cfg.geometry.capacity_bytes = 64 << 20;
    storage_ = system_.AddStorageServer(pfs_cfg);
  }

  void CheckInvariants(const char* when) {
    for (const auto& link : system_.network().links()) {
      const int64_t reserved = system_.network().ReservedBps(link.get());
      ASSERT_GE(reserved, 0) << when;
      ASSERT_LE(reserved, link->bits_per_second()) << when;
    }
    for (const auto& kernel : kernels_) {
      const double admitted = kernel->scheduler()->AdmittedUtilization();
      ASSERT_GE(admitted, -1e-9) << when;
      ASSERT_LE(admitted, kernel->scheduler()->Capacity() + 1e-9) << when;
    }
    const int64_t disk = storage_->server()->reserved_stream_bps();
    ASSERT_GE(disk, 0) << when;
    ASSERT_LE(disk, storage_->server()->StreamBudgetBps()) << when;
  }

  // The network's flat (link-id-indexed) reservation ledger must agree with
  // a shadow ledger rebuilt from first principles: the sum of every open
  // VC's granted peak rate over the links it traverses. Catches any drift
  // between the dense counters and the actual set of reservations.
  void CheckShadowLedger(const std::vector<StreamSession*>& open, const char* when) {
    std::map<const atm::Link*, int64_t> shadow;
    for (StreamSession* s : open) {
      for (const auto& leg : s->legs()) {
        const atm::VcDescriptor* vc = system_.network().GetVc(leg.vc);
        ASSERT_NE(vc, nullptr) << when;
        if (vc->qos.peak_bps <= 0) {
          continue;
        }
        const std::vector<atm::Link*>* links = system_.network().VcLinks(leg.vc);
        ASSERT_NE(links, nullptr) << when;
        for (const atm::Link* l : *links) {
          shadow[l] += vc->qos.peak_bps;
        }
      }
    }
    for (const auto& link : system_.network().links()) {
      auto it = shadow.find(link.get());
      const int64_t expected = it == shadow.end() ? 0 : it->second;
      ASSERT_EQ(system_.network().ReservedBps(link.get()), expected)
          << when << " on " << link->name();
    }
  }

  // Closes `session` and checks that no VC id any churn has closed — its
  // legs' and every earlier one — resolves again: the network reuses closed
  // VCs' records for later opens, never their ids.
  void CloseAndCheckIds(StreamSession* session) {
    for (const auto& leg : session->legs()) {
      closed_vcs_.push_back(leg.vc);
    }
    session->Close();
    atm::Network& network = system_.network();
    for (atm::VcId id : closed_vcs_) {
      ASSERT_EQ(network.GetVc(id), nullptr) << "VC " << id;
      ASSERT_EQ(network.VcLinks(id), nullptr) << "VC " << id;
      ASSERT_EQ(network.LeafCount(id), 0) << "VC " << id;
      ASSERT_FALSE(network.UpdateVcQos(id, atm::QosSpec{1})) << "VC " << id;
      ASSERT_FALSE(network.CloseVc(id)) << "VC " << id;
    }
  }

  // Grows the fleet mid-churn: a fresh workstation (own local switch, so
  // the network gains a switch, an inter-switch edge and endpoint links
  // after the route cache is warm) that subsequent random opens may use.
  void AddLateWorkstation() {
    Workstation* ws = system_.AddWorkstation("ws-late");
    kernels_.push_back(std::make_unique<nemesis::Kernel>(
        &sim_, std::make_unique<nemesis::AtroposScheduler>(1.0)));
    ws->AttachKernel(kernels_.back().get());
    dev::AtmCamera::Config cfg;
    cfg.width = 64;
    cfg.height = 64;
    cameras_.push_back(ws->AddCamera(cfg));
    displays_.push_back(ws->AddDisplay(640, 480));
    workstations_.push_back(ws);
  }

  QosParams RandomCpu(sim::Rng& rng, double max_fraction) {
    if (rng.Bernoulli(0.3)) {
      return QosParams{0, Milliseconds(100), true};  // no demand
    }
    const int64_t slice_ms =
        rng.UniformInt(1, static_cast<int64_t>(100.0 * max_fraction));
    return QosParams::Guaranteed(Milliseconds(slice_ms), Milliseconds(100));
  }

  StreamResult RandomOpen(sim::Rng& rng, int serial) {
    const int64_t last = static_cast<int64_t>(workstations_.size()) - 1;
    const size_t src = static_cast<size_t>(rng.UniformInt(0, last));
    const size_t dst = static_cast<size_t>(rng.UniformInt(0, last));
    StreamSpec spec = StreamSpec::Video(25, rng.UniformInt(0, 90'000'000));
    spec.source_cpu = RandomCpu(rng, 0.5);
    const bool via_compute = rng.Bernoulli(0.4);
    const bool to_storage = rng.Bernoulli(0.25);
    if (via_compute) {
      spec.legs.resize(2);
      spec.legs[0].compute_cpu = RandomCpu(rng, 0.6);
      if (rng.Bernoulli(0.5)) {
        spec.legs[1].bandwidth_bps = rng.UniformInt(0, 90'000'000);
      }
    }
    StreamBuilder builder = system_.BuildStream("churn-" + std::to_string(serial));
    builder.From(workstations_[src], cameras_[src]);
    if (via_compute) {
      dev::TileProcessor::Config stage;
      builder.Via(compute_, stage);
    }
    if (to_storage) {
      spec.disk_bps = rng.UniformInt(0, storage_->server()->StreamBudgetBps() / 2);
      builder.ToStorage(storage_);
    } else {
      spec.sink_cpu = RandomCpu(rng, 0.5);
      builder.To(workstations_[dst], displays_[dst]);
    }
    return builder.WithSpec(spec).Open();
  }

  // A random mutation of the session's granted contract.
  StreamSpec RandomRenegotiation(sim::Rng& rng, StreamSession* session) {
    StreamSpec spec = session->contract().granted;
    if (spec.legs.empty()) {
      spec.bandwidth_bps = rng.UniformInt(0, 120'000'000);
    } else {
      for (auto& leg : spec.legs) {
        if (rng.Bernoulli(0.6)) {
          leg.bandwidth_bps = rng.UniformInt(0, 120'000'000);
        }
      }
      if (rng.Bernoulli(0.5)) {
        spec.legs[0].compute_cpu = RandomCpu(rng, 0.8);
      }
    }
    if (rng.Bernoulli(0.4)) {
      spec.source_cpu = RandomCpu(rng, 0.8);
    }
    if (rng.Bernoulli(0.4) && spec.sink_cpu.slice > 0) {
      spec.sink_cpu = RandomCpu(rng, 0.8);
    }
    if (spec.disk_bps > 0 && rng.Bernoulli(0.5)) {
      spec.disk_bps = rng.UniformInt(0, storage_->server()->StreamBudgetBps());
    }
    return spec;
  }

  sim::Simulator sim_;
  PegasusSystem system_;
  std::vector<Workstation*> workstations_;
  std::vector<std::unique_ptr<nemesis::Kernel>> kernels_;
  std::vector<dev::AtmCamera*> cameras_;
  std::vector<dev::AtmDisplay*> displays_;
  ComputeNode* compute_ = nullptr;
  StorageNode* storage_ = nullptr;
  std::vector<atm::VcId> closed_vcs_;
};

TEST_P(AdmissionChurnProperty, GrantsNeverExceedCapacityAndCloseRestoresAll) {
  sim::Rng rng(GetParam());
  const int64_t base_vcs = system_.network().open_vc_count();
  std::vector<StreamSession*> open;
  int accepted = 0;
  int countered = 0;

  for (int op = 0; op < 150; ++op) {
    if (op == 75) {
      // Mid-churn topology mutation: the route cache is warm for every
      // workstation pair by now. The new workstation's routes must be
      // resolvable immediately (cache coherence across the epoch bump),
      // and later random opens exercise mixed old/new pairs.
      AddLateWorkstation();
      StreamBuilder probe = system_.BuildStream("late-probe");
      probe.From(workstations_.back(), cameras_.back());
      probe.To(workstations_[0], displays_[0]);
      auto pr = probe.WithSpec(StreamSpec::Video(25, 1'000'000)).Open();
      ASSERT_TRUE(pr.report.ok()) << "route to freshly added workstation not seen";
      open.push_back(pr.session);
      ASSERT_NO_FATAL_FAILURE(CheckShadowLedger(open, "after mutation"));
    }
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind < 5 || open.empty()) {
      auto r = RandomOpen(rng, op);
      if (r.report.ok()) {
        open.push_back(r.session);
        ++accepted;
      } else if (r.report.verdict == AdmitVerdict::kCounterOffer && rng.Bernoulli(0.5)) {
        // A joint counter-offer must itself be admissible, immediately.
        ASSERT_TRUE(r.report.counter_offer.has_value());
        StreamBuilder retry = system_.BuildStream("counter-" + std::to_string(op));
        // Rebuild the same topology the counter was computed for.
        // (Counter specs carry explicit legs, so a 2-leg offer needs the
        // compute detour again.)
        const size_t src = 0;
        retry.From(workstations_[src], cameras_[src]);
        if (r.report.counter_offer->legs.size() == 2) {
          dev::TileProcessor::Config stage;
          retry.Via(compute_, stage);
        }
        if (r.report.counter_offer->disk_bps > 0 ||
            (r.report.counter_offer->sink_cpu.slice == 0 && rng.Bernoulli(0.5))) {
          retry.ToStorage(storage_);
        } else {
          retry.To(workstations_[1], displays_[1]);
        }
        auto r2 = retry.WithSpec(*r.report.counter_offer).Open();
        // The retry may legitimately bounce off a *different* path than the
        // one the counter was computed on (we rebuilt with fixed hosts);
        // what may not happen is an over-commitment — checked below.
        if (r2.report.ok()) {
          open.push_back(r2.session);
          ++countered;
        }
      }
    } else if (kind < 8) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1));
      StreamSession* session = open[pick];
      auto report = session->Renegotiate(RandomRenegotiation(rng, session));
      if (!report.ok() && report.verdict == AdmitVerdict::kCounterOffer) {
        // A renegotiation counter-offer is admissible on the same session.
        ASSERT_TRUE(report.counter_offer.has_value());
        ASSERT_TRUE(session->Renegotiate(*report.counter_offer).ok())
            << "joint renegotiation counter-offer was not admissible";
      }
    } else {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1));
      ASSERT_NO_FATAL_FAILURE(CloseAndCheckIds(open[pick]));
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_NO_FATAL_FAILURE(CheckInvariants("after op"));
    ASSERT_NO_FATAL_FAILURE(CheckShadowLedger(open, "after op"));
  }
  // The run must actually have exercised admission both ways.
  EXPECT_GT(accepted, 0);

  // Closing everything returns every layer to its initial free capacity.
  for (StreamSession* session : open) {
    ASSERT_NO_FATAL_FAILURE(CloseAndCheckIds(session));
  }
  for (const auto& link : system_.network().links()) {
    EXPECT_EQ(system_.network().ReservedBps(link.get()), 0);
  }
  for (const auto& kernel : kernels_) {
    EXPECT_EQ(kernel->scheduler()->AdmittedUtilization(), 0.0);
  }
  EXPECT_EQ(storage_->server()->reserved_stream_bps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
  EXPECT_EQ(compute_->active_stages(), 0);
}

// The tree analogue: randomized multicast open / graft / prune /
// renegotiate / close, interleaved with unicast churn on the same fabric.
// The shadow ledger rebuilds reservations as (tree rate) x (each tree link
// ONCE) — any per-leaf double-charging of a shared edge, or a prune
// releasing a link a remaining leaf still needs, breaks the comparison
// immediately. Closing everything must restore all layers exactly.
TEST_P(AdmissionChurnProperty, MulticastChurnChargesSharedEdgesOnce) {
  sim::Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  const int64_t base_vcs = system_.network().open_vc_count();

  struct Tree {
    StreamSession* session = nullptr;
    std::vector<size_t> leaves;  // workstation indices, graft order
  };
  std::vector<Tree> trees;
  std::vector<StreamSession*> unicast;
  int trees_opened = 0;
  int grafts = 0;
  int prunes = 0;

  auto all_sessions = [&]() {
    std::vector<StreamSession*> all = unicast;
    for (const Tree& t : trees) {
      all.push_back(t.session);
    }
    return all;
  };
  auto make_sink = [&](size_t ws) {
    MulticastSink sink;
    sink.ws = workstations_[ws];
    sink.display = displays_[ws];
    return sink;
  };

  for (int op = 0; op < 150; ++op) {
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind < 2 || trees.empty()) {
      // Open a tree: random source host endpoint, a random non-empty set of
      // the OTHER workstations' displays as leaves.
      const size_t src = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(workstations_.size()) - 1));
      Tree tree;
      std::vector<MulticastSink> sinks;
      for (size_t ws = 0; ws < workstations_.size(); ++ws) {
        if (ws != src && rng.Bernoulli(0.6)) {
          sinks.push_back(make_sink(ws));
          tree.leaves.push_back(ws);
        }
      }
      if (sinks.empty()) {
        const size_t ws = (src + 1) % workstations_.size();
        sinks.push_back(make_sink(ws));
        tree.leaves.push_back(ws);
      }
      StreamSpec spec = StreamSpec::Video(25, rng.UniformInt(1'000'000, 40'000'000));
      spec.sink_cpu = RandomCpu(rng, 0.2);
      StreamBuilder builder = system_.BuildStream("mcast-" + std::to_string(op));
      builder.FromEndpoint(workstations_[src], workstations_[src]->host());
      auto r = builder.ToMany(sinks).WithSpec(spec).Open();
      if (r.report.ok()) {
        tree.session = r.session;
        trees.push_back(tree);
        ++trees_opened;
      }
    } else if (kind < 4) {
      // Unicast churn rides alongside: shared links must carry the sum of
      // both worlds' reservations.
      auto r = RandomOpen(rng, op);
      if (r.report.ok()) {
        unicast.push_back(r.session);
      }
    } else if (kind < 6) {
      // Graft: a workstation not yet watching this tree joins.
      Tree& tree = trees[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(trees.size()) - 1))];
      std::vector<size_t> candidates;
      for (size_t ws = 0; ws < workstations_.size(); ++ws) {
        bool watching = false;
        for (size_t leaf : tree.leaves) {
          watching = watching || leaf == ws;
        }
        if (!watching &&
            tree.session->SinkVci(workstations_[ws]->device_endpoint(displays_[ws])) ==
                std::nullopt) {
          candidates.push_back(ws);
        }
      }
      if (!candidates.empty()) {
        const size_t ws = candidates[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
        if (tree.session->AddSink(make_sink(ws)).ok()) {
          tree.leaves.push_back(ws);
          ++grafts;
        }
      }
    } else if (kind < 7) {
      // Prune: a random leaf leaves; the last leaf must be refused.
      Tree& tree = trees[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(trees.size()) - 1))];
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(tree.leaves.size()) - 1));
      const size_t ws = tree.leaves[pick];
      const bool removed =
          tree.session->RemoveSink(workstations_[ws]->device_endpoint(displays_[ws]));
      if (tree.leaves.size() == 1) {
        ASSERT_FALSE(removed) << "pruning the last leaf must be refused";
      } else {
        ASSERT_TRUE(removed);
        tree.leaves.erase(tree.leaves.begin() + static_cast<std::ptrdiff_t>(pick));
        ++prunes;
      }
    } else if (kind < 8) {
      // Renegotiate the whole tree as one unit.
      Tree& tree = trees[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(trees.size()) - 1))];
      StreamSpec spec = tree.session->contract().granted;
      spec.bandwidth_bps = rng.UniformInt(1'000'000, 60'000'000);
      auto report = tree.session->Renegotiate(spec);
      if (!report.ok() && report.verdict == AdmitVerdict::kCounterOffer) {
        ASSERT_TRUE(report.counter_offer.has_value());
        ASSERT_TRUE(tree.session->Renegotiate(*report.counter_offer).ok())
            << "multicast renegotiation counter-offer was not admissible";
      }
    } else if (kind < 9 && !unicast.empty()) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(unicast.size()) - 1));
      ASSERT_NO_FATAL_FAILURE(CloseAndCheckIds(unicast[pick]));
      unicast.erase(unicast.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(trees.size()) - 1));
      ASSERT_NO_FATAL_FAILURE(CloseAndCheckIds(trees[pick].session));
      trees.erase(trees.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_NO_FATAL_FAILURE(CheckInvariants("after mcast op"));
    ASSERT_NO_FATAL_FAILURE(CheckShadowLedger(all_sessions(), "after mcast op"));
  }
  EXPECT_GT(trees_opened, 0);
  EXPECT_GT(grafts, 0);
  EXPECT_GT(prunes, 0);

  for (StreamSession* session : all_sessions()) {
    ASSERT_NO_FATAL_FAILURE(CloseAndCheckIds(session));
  }
  for (const auto& link : system_.network().links()) {
    EXPECT_EQ(system_.network().ReservedBps(link.get()), 0);
  }
  for (const auto& kernel : kernels_) {
    EXPECT_EQ(kernel->scheduler()->AdmittedUtilization(), 0.0);
  }
  EXPECT_EQ(storage_->server()->reserved_stream_bps(), 0);
  EXPECT_EQ(system_.network().open_vc_count(), base_vcs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmissionChurnProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace pegasus::core
