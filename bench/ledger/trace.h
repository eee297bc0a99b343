// Benchmark-side tracing and output helpers for the ledger driver.
//
// The traced run records spans around the benchmark's own calls into each
// layer's public functions — setup steps, 100 sim-ms run intervals bracketed
// by marker events, one span per admission op, Simulator::RunUntil steps and
// the flood handlers under them — plus counter samples. Nothing inside src/
// is instrumented. Spans and samples stay in memory and are written as JSON
// lines once the run is over, so the write never lands in a measured
// interval. With tracing off, Open() returns -1 without reading the clock.
#ifndef PEGASUS_BENCH_LEDGER_TRACE_H_
#define PEGASUS_BENCH_LEDGER_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/stats.h"

namespace pegasus::ledger {

// Host wall clock (steady), in nanoseconds.
int64_t WallNs();

class Trace {
 public:
  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span under `parent` (-1 = none) and returns its id, or -1 when
  // tracing is off. `name` must be a string literal.
  int Open(const char* name, int parent = -1);
  void Close(int id);
  // Records a span whose wall-clock bounds the caller already took; returns
  // its id like Open().
  int Add(const char* name, int parent, int64_t start_ns, int64_t end_ns);
  // A counter snapshot at the current instant (no-op when tracing is off).
  void Sample(const char* counter, double value);

  // Durations in ns of every closed span called `name` that started at or
  // after `since_ns` (a WallNs() instant).
  sim::Summary Durations(const char* name, int64_t since_ns = 0) const;
  // Per span name: summed self time (duration minus direct children) in ns.
  std::map<std::string, double> SelfNs() const;

  // Writes every span and sample as one JSON line each, tagged `workload`.
  bool Write(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    int64_t start;
    int64_t end;
    const char* name;
    int parent;
  };
  struct CounterSample {
    int64_t at;
    const char* name;
    double value;
  };

  bool enabled_;
  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<CounterSample> samples_;
};

// Minimal JSON object builder for the driver's single-line reports. Numbers
// print with every significant digit.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string body_;
};

}  // namespace pegasus::ledger

#endif  // PEGASUS_BENCH_LEDGER_TRACE_H_
