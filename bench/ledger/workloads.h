// The ledger's workloads, driven only through public library APIs:
// StreamBuilder/StreamSession, ScenarioEngine, BuildMetroTopology,
// Simulator, ShardGroup (Options::shards only), Network::ResolveRoute /
// ReservedBps, the Link/Switch/Endpoint/Transport counters and QosMonitor
// introspection.
//
//   metro-fleet          metro-large fleet, unsharded: engine + data plane
//   metro-fleet-sharded  the same inputs through a 4-shard ShardGroup
//   admission-churn      contract ops on the idle metro-large fabric
//   closed-loop          E05b desk: adapting camera vs a best-effort flood
//   monitor-idle         calibration: monitor ticks over an idle fabric
//
// Every workload measures a warm-up and then a fixed amount of simulated
// work, scaled by RunOptions::seconds, in 100 sim-ms intervals.
#ifndef PEGASUS_BENCH_LEDGER_WORKLOADS_H_
#define PEGASUS_BENCH_LEDGER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace pegasus::ledger {

struct RunOptions {
  std::string workload;
  uint64_t seed = 16;
  // Length of the measured window: the simulated work that takes about
  // this many host seconds on the reference 4-core host. Fixed per value,
  // so the fingerprint depends only on (workload, seed, seconds, quick).
  int seconds = 10;
  // 1/20 of the normal length, same checks.
  bool quick = false;
};

// What one run reports. Every metric carries its unit; run.py selects the
// end-to-end or per-layer set named in BENCHMARK.json.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  uint64_t fingerprint = 0;
  JsonObject metrics;
  JsonObject detail;

  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed output check; `ops` of the attempted ops are lost.
  void Fail(const std::string& why, int64_t ops);
};

// Runs `options.workload`; an unknown name returns false.
bool RunWorkload(const RunOptions& options, Trace* trace, Report* report);

}  // namespace pegasus::ledger

#endif  // PEGASUS_BENCH_LEDGER_WORKLOADS_H_
