#include "measure.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "util/json.h"

namespace dnabench {

void LogHistogram::add(double value) {
  const double scaled = std::max(value, kMin) / kMin;
  const size_t bucket =
      static_cast<size_t>(std::log(scaled) / std::log(kGrowth));
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t b = 0; b < other.buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (rank < static_cast<double>(below + buckets_[b])) {
      const double lo = kMin * std::pow(kGrowth, static_cast<double>(b));
      const double within =
          (rank - static_cast<double>(below) + 0.5) / static_cast<double>(buckets_[b]);
      return lo * (1 + (kGrowth - 1) * within);
    }
    below += buckets_[b];
  }
  return kMin * std::pow(kGrowth, static_cast<double>(buckets_.size()));
}

namespace {

/// The layer a span name belongs to, for self-time accounting.
std::string layer_of(const std::string& name) {
  const auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (starts("op.") || starts("svc.") || starts("query.")) return "service";
  if (starts("stage.config-diff") || starts("stage.ospf") ||
      starts("stage.bgp") || starts("stage.fib") ||
      starts("stage.control-plane")) {
    return "controlplane";
  }
  if (starts("stage.ec-index") || starts("stage.verify") ||
      starts("stage.data-plane")) {
    return "dataplane";
  }
  if (starts("analytics.")) return "analytics";
  if (starts("scenario.")) return "scenario";
  if (starts("setup.")) return "setup";
  return "core";  // core.*, whatif.*, reject.validate, stage.subtract
}

}  // namespace

std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans) {
    uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> intervals;
      for (const SpanRecord* child : it->second) {
        const uint64_t lo = std::max(child->start_ns, span.start_ns);
        const uint64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      uint64_t reach = 0;
      for (const auto& [lo, hi] : intervals) {
        const uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    const uint64_t dur = span.end_ns - span.start_ns;
    self[layer_of(span.name)] +=
        static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return self;
}

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  dna::util::JsonWriter json;
  json.begin_object();
  json.key("self_ms_by_layer").begin_object();
  for (const auto& [layer, ms] : self_ms_by_layer(spans)) {
    json.key(layer).value(ms);
  }
  json.end_object();
  json.key("spans").begin_array();
  for (const SpanRecord& span : spans) {
    json.begin_object();
    json.key("id").value(span.id);
    json.key("parent").value(span.parent);
    json.key("name").value(span.name);
    json.key("start_ns").value(span.start_ns);
    json.key("end_ns").value(span.end_ns);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  if (!out) std::cerr << "dnabench: could not write spans to " << path << "\n";
}

void Checker::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The first few failures are enough to debug; the count says the rest.
  if (failures_ < 20) std::cerr << "dnabench: CHECK FAILED: " << what << "\n";
  ++failures_;
}

std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace dnabench
