// Measurement plumbing for dnabench: sample sets, the span tracer, the
// correctness checker, and the result line the benchmark prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace dnabench {

/// Nanoseconds on the steady clock since the first call in this process.
inline uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

inline double seconds_between(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// A set of measurements. quantile() interpolates linearly between the two
/// nearest ranks, as numpy's default and Python's statistics module do.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
  }
  double median() const { return quantile(0.5); }
  double mean() const {
    if (values_.empty()) return 0;
    double sum = 0;
    for (double value : values_) sum += value;
    return sum / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// Latencies in a log-bucketed histogram (buckets 0.5% wide): constant
/// memory however many reads a run makes, so the benchmark's own footprint
/// does not grow with the throughput it measures. quantile() interpolates
/// by rank inside the bucket, which keeps its error below 0.5%.
class LogHistogram {
 public:
  void add(double value);
  void merge(const LogHistogram& other);
  uint64_t size() const { return count_; }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  static constexpr double kMin = 1e-3;     // smallest resolved value
  static constexpr double kGrowth = 1.005;  // bucket width ratio
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// One recorded span: a call into a layer, timed from the benchmark's side
/// (or a service leg copied from the service's own trace).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Spans kept in memory while the benchmark runs and written out as JSON
/// at the end. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t add(std::string name, uint64_t parent, uint64_t start_ns,
               uint64_t end_ns) {
    if (!enabled_) return 0;
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({id, parent, std::move(name), start_ns, end_ns});
    return id;
  }

  /// Copies the spans of a service trace under `parent`, re-based at
  /// `epoch_ns` (the benchmark-side instant the traced call started), each
  /// named `prefix + leg`.
  void add_service(const dna::obs::Trace& trace, uint64_t parent, uint64_t epoch_ns,
                   const std::string& prefix) {
    if (!enabled_) return;
    for (const dna::obs::Span& span : trace.spans()) {
      add(prefix + span.name, parent, epoch_ns + span.start_ns,
          epoch_ns + span.start_ns + span.dur_ns);
    }
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Self time of every span (its duration minus the union of its children's
/// intervals), summed per layer, in milliseconds.
std::map<std::string, double> self_ms_by_layer(
    const std::vector<SpanRecord>& spans);

/// Writes spans plus the per-layer self-time summary as one JSON file.
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

/// Collects correctness failures; the run's `correct` is "none recorded".
class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void fail(const std::string& what);
  bool ok() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_ == 0;
  }

 private:
  mutable std::mutex mutex_;
  size_t failures_ = 0;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Process peak resident set size in MB (VmHWM).
double peak_rss_mb();

}  // namespace dnabench
