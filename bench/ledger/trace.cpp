#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace pegasus::ledger {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Trace::Trace(bool enabled) : enabled_(enabled), origin_ns_(WallNs()) {}

int Trace::Open(const char* name, int parent) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{WallNs(), -1, name, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::Close(int id) {
  if (id >= 0) {
    spans_[static_cast<size_t>(id)].end = WallNs();
  }
}

int Trace::Add(const char* name, int parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{start_ns, end_ns, name, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::Sample(const char* counter, double value) {
  if (enabled_) {
    samples_.push_back(CounterSample{WallNs(), counter, value});
  }
}

sim::Summary Trace::Durations(const char* name, int64_t since_ns) const {
  sim::Summary out;
  for (const Span& s : spans_) {
    if (s.end >= 0 && s.start >= since_ns && std::strcmp(s.name, name) == 0) {
      out.Add(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

std::map<std::string, double> Trace::SelfNs() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) {
      continue;
    }
    const double dur = static_cast<double>(s.end - s.start);
    self[i] += dur;
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= dur;
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end >= 0) {
      by_name[spans_[i].name] += self[i];
    }
  }
  return by_name;
}

bool Trace::Write(const std::string& path, const std::string& workload) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"type\":\"span\",\"workload\":\"%s\",\"id\":%zu,\"parent\":%d,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 workload.c_str(), i, s.parent, s.name,
                 static_cast<long long>(s.start - origin_ns_),
                 static_cast<long long>(s.end < 0 ? -1 : s.end - origin_ns_));
  }
  for (const CounterSample& c : samples_) {
    std::fprintf(f,
                 "{\"type\":\"counter\",\"workload\":\"%s\",\"name\":\"%s\",\"at_ns\":%lld,"
                 "\"value\":%.17g}\n",
                 workload.c_str(), c.name, static_cast<long long>(c.at - origin_ns_), c.value);
  }
  return std::fclose(f) == 0;
}

namespace {

// A JSON number with every significant digit; null when not finite.
std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += "\"" + key + "\": " + json;
  return *this;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  return Raw(key, Number(value));
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  std::string escaped;
  for (char c : value) {
    if (c == '"' || c == '\\') {
      escaped += '\\';
    }
    escaped += (c == '\n') ? ' ' : c;
  }
  return Raw(key, "\"" + escaped + "\"");
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Nums(const std::string& key, const std::vector<double>& values) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Number(values[i]);
  }
  return Raw(key, json + "]");
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  return Raw(key, value.str());
}

}  // namespace pegasus::ledger
