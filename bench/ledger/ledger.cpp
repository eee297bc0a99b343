// The ledger driver: runs ONE workload in this process and prints one JSON
// line with its metrics, fingerprint and output checks. run.py builds this
// binary and runs every workload in a child process of its own.
//
//   ledger --workload NAME [--seed N] [--seconds S] [--quick] [--trace-out FILE]
//
// --trace-out records spans and counter samples and writes them to FILE as
// JSON lines when the run ends.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

using namespace pegasus::ledger;

namespace {

// VmHWM: the process's peak resident set, in MB.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

JsonObject BuildFacts() {
  JsonObject host;
  host.Int("hardware_concurrency", std::thread::hardware_concurrency());
#if defined(__VERSION__)
  host.Str("compiler", __VERSION__);
#endif
#if defined(NDEBUG)
  host.Bool("ndebug", true);
#else
  host.Bool("ndebug", false);
#endif
#if defined(__OPTIMIZE__)
  host.Bool("optimize", true);
#else
  host.Bool("optimize", false);
#endif
  return host;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ledger --workload {metro-fleet|metro-fleet-sharded|admission-churn|"
               "closed-loop|monitor-idle} [--seed N] [--seconds S] [--quick] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--quick") {
      options.quick = true;
    } else {
      return Usage();
    }
  }
  if (options.seconds < 1 || options.seconds > 600) {
    return Usage();
  }

  Trace trace(!trace_out.empty());
  Report report;
  if (!RunWorkload(options, &trace, &report)) {
    return Usage();
  }
  if (trace.enabled() && !trace.Write(trace_out, options.workload)) {
    report.Fail("could not write the trace to " + trace_out, 0);
  }
  report.Metric("run.peak_rss_mb", PeakRssMb(), "MB");

  std::string failures;
  for (const std::string& f : report.failures) {
    failures += (failures.empty() ? "" : "; ") + f;
  }
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(report.fingerprint));
  JsonObject out;
  out.Str("workload", options.workload)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Bool("traced", trace.enabled())
      .Bool("correct", report.failures.empty())
      .Int("attempted", report.attempted)
      .Int("failed", report.failed)
      .Str("fingerprint", fingerprint)
      .Str("failures", failures)
      .Obj("metrics", report.metrics)
      .Obj("detail", report.detail)
      .Obj("host", BuildFacts());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
