// dnabench: the repository's end-to-end benchmark.
//
//   dnabench --workload <narrow-edits|routing-churn|read-flood> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Builds a fattree-k8 with its host-reachability invariants, stands up an
// in-process service::DnaService (journal without fsync, 3 query workers),
// drives one seeded workload against it for a number of rounds set by
// --seconds (about that long on the reference runner), checks every answer
// against an independent oracle, and prints one JSON result line last on
// stdout. --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every layer call, times sampled changes on standalone engines and
// reports the per-layer metrics (see README.md).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analytics/risk.h"
#include "core/engine.h"
#include "fabric.h"
#include "measure.h"
#include "scenario/report.h"
#include "scenario/spec.h"
#include "service/query.h"
#include "service/service.h"
#include "topo/generators.h"

namespace dnabench {
namespace {

namespace fs = std::filesystem;
using dna::core::DnaEngine;
using dna::core::Mode;
using dna::core::NetworkDiff;
using dna::service::CommitResult;
using dna::service::DnaService;
using dna::service::QueryResult;

constexpr int kFatTreeK = 8;
constexpr size_t kQueryWorkers = 3;
constexpr int kSetups = 11;            // set-ups per run; setup_s is the median
constexpr size_t kReadSetSize = 256;
constexpr size_t kReaders = 3;         // + 1 client = 4 generator threads
// read_ops_per_s is kReaders times the median rate of a reader over a block
// of this many consecutive reads (~2 ms). The runner's stalls hit a share of
// the blocks and leave the median alone; over one-second windows or whole
// read phases they moved the figure up to 2x between runs (see README.md).
constexpr uint64_t kReadBlock = 64;
constexpr double kFloodShare = 0.6;    // read-flood: share of --seconds flooded
constexpr uint64_t kCommitPeriodNs = 25'000'000;  // read-flood committer pace
// Seconds one round takes on the reference runner. A run makes
// round(--seconds / this) rounds: a count set by --seconds alone, so every
// run attempts the same operations (and fails the same probes) however fast
// the program is, and a faster program finishes sooner.
constexpr double kNarrowRoundS = 1.5;
constexpr double kRoutingRoundS = 2.5;
constexpr double kSerialRoundS = 1.1;  // read-flood, after the flood
constexpr size_t kTraceEveryNthRead = 16;
// Commits and what-ifs checked against a monolithic engine, drawn
// uniformly over the run (more in a traced run, which also times them).
constexpr size_t kOracleSamples = 4;
constexpr size_t kTracedOracleSamples = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

/// What one generator thread measured. Aligned so the readers' entries,
/// side by side in a vector, share no cache line.
struct alignas(64) OpStats {
  Samples commit_ms, reject_ms, whatif_ms, risk_ms;
  LogHistogram read_us;
  Samples commit_apply_ms, commit_publish_us, risk_scenarios;
  Samples read_block_rate;  // one reader's reads per second over a block
  // Service legs of the traced reads, summed (traced runs only).
  double queue_us = 0, fanout_us = 0, eval_us = 0;
  uint64_t traced_reads = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void merge(const OpStats& other) {
    commit_ms.merge(other.commit_ms);
    reject_ms.merge(other.reject_ms);
    whatif_ms.merge(other.whatif_ms);
    risk_ms.merge(other.risk_ms);
    read_us.merge(other.read_us);
    commit_apply_ms.merge(other.commit_apply_ms);
    commit_publish_us.merge(other.commit_publish_us);
    risk_scenarios.merge(other.risk_scenarios);
    read_block_rate.merge(other.read_block_rate);
    queue_us += other.queue_us;
    fanout_us += other.fanout_us;
    eval_us += other.eval_us;
    traced_reads += other.traced_reads;
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// An accepted commit kept for the monolithic oracle, with a lease on the
/// version it was applied to.
struct CommitSample {
  dna::service::VersionHandle before;
  std::string text;
  CommitResult result;
};

/// A what-if kept for the oracle, with a lease on the version it ran at.
struct WhatIfSample {
  dna::service::VersionHandle version;
  std::string change;  // the text after "whatif "
  std::string body;
};

/// Uniform reservoir of K items over a stream of unknown length, seeded:
/// the same seed and stream give the same sample.
template <typename T>
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : capacity_(capacity), rng_(seed) {}
  /// Whether the next item of the stream should be offered to put().
  bool wants_next() {
    ++seen_;
    if (items_.size() < capacity_) {
      slot_ = items_.size();
      return true;
    }
    slot_ = rng_.below(seen_);
    return slot_ < capacity_;
  }
  void put(T item) {
    if (slot_ == items_.size()) {
      items_.push_back(std::move(item));
    } else {
      items_[slot_] = std::move(item);
    }
  }
  const std::vector<T>& items() const { return items_; }

 private:
  size_t capacity_;
  dna::Rng rng_;
  uint64_t seen_ = 0;
  size_t slot_ = 0;
  std::vector<T> items_;
};

/// Read answers already checked, keyed by (read index, body hash): answers
/// are pure functions of (query, version), so each distinct answer is
/// checked once and every later identical answer is covered by it.
using ReadMemo = std::unordered_set<uint64_t>;

/// The commit tail percentile of a workload: the highest with at least ten
/// samples beyond it at the counts a 25 s run produces (272 commits in
/// narrow-edits, 40 in routing-churn), and no higher than p75 beside the
/// flood, whose commits share the CPUs with three readers: their p90 moved
/// 1.5x between runs with the runner's load (see README.md).
double commit_tail_quantile(const std::string& workload) {
  return workload == "narrow-edits" ? 0.95 : 0.75;
}

class Bench;

/// kReaders closed-loop readers: each sends its next read as soon as the
/// previous answer arrives. phase(n) runs n reads per reader and returns
/// when all are answered; start_flood()/stop_flood() run them until told
/// to stop. Threads park between phases.
class ReaderCrew {
 public:
  ReaderCrew(Bench& bench, uint64_t seed);
  ~ReaderCrew();
  ReaderCrew(const ReaderCrew&) = delete;
  ReaderCrew& operator=(const ReaderCrew&) = delete;

  void phase(uint64_t reads_each);
  void start_flood();
  void stop_flood();
  /// Every reader's measurements (call while the crew is parked).
  OpStats merged() const;

 private:
  void release(uint64_t quota);
  void wait_parked();
  void loop(size_t reader);

  Bench& bench_;
  std::vector<OpStats> stats_;
  std::vector<ReadMemo> memos_;
  std::vector<dna::Rng> rngs_;
  std::vector<uint64_t> counters_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable parked_;
  uint64_t generation_ = 0;  // bumped to release the readers
  uint64_t quota_ = 0;       // reads per reader; 0 = until stop_
  size_t running_ = 0;
  bool exit_ = false;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: starts after the state above
};

class Bench {
 public:
  Bench(const Args& args, Tracer& tracer, Checker& checker)
      : args_(args),
        tracer_(tracer),
        checker_(checker),
        commit_samples_(args.trace ? kTracedOracleSamples : kOracleSamples,
                        args.seed + 101),
        whatif_samples_(args.trace ? kTracedOracleSamples : kOracleSamples,
                        args.seed + 202) {}

  void setup();
  void run_workload();
  void verify();
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  void shutdown();

  uint64_t attempted() const { return stats_.attempted; }
  uint64_t failed() const { return stats_.failed; }

 private:
  friend class ReaderCrew;

  // ---- operations (each counts as attempted) ------------------------------
  void commit(const std::string& text, OpStats& stats);
  void reject(OpStats& stats);
  void whatif(const std::string& line, OpStats& stats);
  void risk(const std::string& node, OpStats& stats);
  void read(size_t index, OpStats& stats, ReadMemo& memo, uint64_t& counter);
  void probes(OpStats& stats);
  /// Not an operation: the `version` and `hash` answers still match the
  /// last accepted commit (what-ifs and rejects must not move the head).
  void expect_head_unchanged();

  void narrow_edits(ReaderCrew& crew);
  void routing_churn(ReaderCrew& crew);
  void read_flood(ReaderCrew& crew);

  QueryResult query(const std::string& line, bool traced, uint64_t* start,
                    uint64_t* end);
  std::unique_ptr<DnaEngine> verify_head();
  void check_commit(const CommitSample& sample);
  void check_whatif(const WhatIfSample& sample);
  void replay_analytics(DnaEngine& engine);
  void time_boundaries();
  /// Rounds in a run whose `share` of --seconds is spent on rounds of
  /// `round_s` nominal seconds each (at least one).
  uint64_t rounds(double round_s, double share = 1) const {
    return std::max<uint64_t>(1, std::llround(args_.seconds * share / round_s));
  }
  std::unique_ptr<DnaEngine> make_engine(const dna::topo::Snapshot& snapshot) const;
  std::string journal_dir(int setup) const;

  struct HistDelta {
    const char* name;
    dna::obs::Histogram::Snapshot start;
    double count = 0;
    double sum = 0;  // raw units (ns, or a count)
    double mean() const { return count == 0 ? 0 : sum / count; }
  };
  void registry_mark();
  void registry_delta();

  const Args& args_;
  Tracer& tracer_;
  Checker& checker_;

  dna::topo::Snapshot base_;
  std::vector<dna::core::Invariant> invariants_;
  std::unique_ptr<FatTree> fabric_;
  std::unique_ptr<DnaService> service_;
  std::vector<Read> reads_;
  dna::Rng rng_{1};

  // Set-up timings (one per set-up).
  Samples setup_s_, setup_snapshot_s_, setup_verify_s_, setup_warm_s_;

  OpStats stats_;  // the client's operations, then the readers' merged in
  double peak_rss_mb_ = 0;
  uint64_t reject_index_ = 0;
  uint64_t expected_version_ = 0;
  std::string expected_hash_;
  std::string last_risk_node_;

  Reservoir<CommitSample> commit_samples_;
  Reservoir<WhatIfSample> whatif_samples_;

  // Registry legs over the timed region.
  std::vector<HistDelta> hists_;
  uint64_t cache_hits_start_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t commits_start_ = 0;
  uint64_t commits_ = 0;  // accepted, timed or not
  size_t replicas_ = 0;

  // Per-layer figures from the oracle engines and boundary timings.
  Samples advance_ms_, invariants_ms_, affected_ecs_, total_ecs_;
  Samples mono_ms_, forward_ms_, rewind_ms_;
  std::map<std::string, Samples> stage_ms_;
  Samples plan_ms_, analyze_ms_, validate_us_, parse_us_;
};

// ---- reader crew ---------------------------------------------------------------

ReaderCrew::ReaderCrew(Bench& bench, uint64_t seed)
    : bench_(bench),
      stats_(kReaders),
      memos_(kReaders),
      counters_(kReaders, 0) {
  for (size_t i = 0; i < kReaders; ++i) {
    rngs_.emplace_back(seed * 1000003 + i);
    counters_[i] = i;  // stagger which reads a traced run samples
  }
  for (size_t i = 0; i < kReaders; ++i) {
    threads_.emplace_back(&ReaderCrew::loop, this, i);
  }
}

ReaderCrew::~ReaderCrew() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exit_ = true;
    stop_.store(true);
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ReaderCrew::release(uint64_t quota) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    quota_ = quota;
    running_ = kReaders;
    stop_.store(false);
    ++generation_;
  }
  wake_.notify_all();
}

void ReaderCrew::wait_parked() {
  std::unique_lock<std::mutex> lock(mutex_);
  parked_.wait(lock, [&] { return running_ == 0; });
}

void ReaderCrew::phase(uint64_t reads_each) {
  release(reads_each);
  wait_parked();
}

void ReaderCrew::start_flood() { release(0); }

void ReaderCrew::stop_flood() {
  stop_.store(true);  // a reader's open block is partial and not counted
  wait_parked();
}

OpStats ReaderCrew::merged() const {
  OpStats all;
  for (const OpStats& stats : stats_) all.merge(stats);
  return all;
}

void ReaderCrew::loop(size_t reader) {
  uint64_t seen = 0;
  for (;;) {
    uint64_t quota = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return exit_ || generation_ != seen; });
      if (exit_) return;
      seen = generation_;
      quota = quota_;
    }
    uint64_t block_start = now_ns();
    for (uint64_t n = 0; quota == 0 ? !stop_.load(std::memory_order_relaxed)
                                    : n < quota;
         ++n) {
      bench_.read(rngs_[reader].below(bench_.reads_.size()), stats_[reader],
                  memos_[reader], counters_[reader]);
      if ((n + 1) % kReadBlock == 0) {
        const uint64_t now = now_ns();
        stats_[reader].read_block_rate.add(kReadBlock /
                                           seconds_between(block_start, now));
        block_start = now;
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) parked_.notify_all();
  }
}

std::string Bench::journal_dir(int setup) const {
  return args_.work_dir + "/journal-" + args_.workload + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(setup);
}

std::unique_ptr<DnaEngine> Bench::make_engine(
    const dna::topo::Snapshot& snapshot) const {
  auto engine = std::make_unique<DnaEngine>(snapshot);
  for (const auto& invariant : invariants_) engine->add_invariant(invariant);
  return engine;
}

// ---- set-up ------------------------------------------------------------------

void Bench::setup() {
  fs::create_directories(args_.work_dir);
  for (int i = 0; i < kSetups; ++i) {
    service_.reset();  // the previous set-up's service, if any
    if (i > 0) fs::remove_all(journal_dir(i - 1));
    const uint64_t t0 = now_ns();
    dna::topo::Snapshot snapshot = dna::topo::make_fattree(kFatTreeK);
    std::vector<dna::core::Invariant> invariants =
        dna::scenario::host_reachability_invariants(snapshot);
    const uint64_t t1 = now_ns();
    fs::remove_all(journal_dir(i));
    dna::service::ServiceOptions options;
    options.num_threads = kQueryWorkers;
    options.journal_dir = journal_dir(i);
    options.journal_fsync = dna::service::FsyncPolicy::kNever;
    service_ = std::make_unique<DnaService>(snapshot, invariants, options);
    const uint64_t t2 = now_ns();
    // Warm every replica: the dispatcher's own slot serves a lone query
    // inline; bursts of queries fan out to the pool workers' replicas.
    service_->query("version");
    for (int burst = 0; burst < 200; ++burst) {
      const auto rows = service_->worker_stats();
      bool all_warm = true;
      for (const auto& row : rows) all_warm = all_warm && row.tasks > 0;
      if (all_warm) break;
      std::vector<std::future<QueryResult>> pending;
      for (int q = 0; q < 64; ++q) pending.push_back(service_->submit("version"));
      for (auto& future : pending) future.get();
    }
    const uint64_t t3 = now_ns();
    setup_s_.add(seconds_between(t0, t3));
    setup_snapshot_s_.add(seconds_between(t0, t1));
    setup_verify_s_.add(seconds_between(t1, t2));
    setup_warm_s_.add(seconds_between(t2, t3));
    if (tracer_.enabled()) {
      const uint64_t id = tracer_.add("setup", 0, t0, t3);
      tracer_.add("setup.snapshot", id, t0, t1);
      tracer_.add("setup.base_verify", id, t1, t2);
      tracer_.add("setup.replica_warm", id, t2, t3);
    }
    if (i + 1 == kSetups) {
      base_ = std::move(snapshot);
      invariants_ = std::move(invariants);
      // Engines built: the writer's, plus every replica build, which the
      // service observes as a catch-up (the head has not moved yet).
      replicas_ = 1 + service_->registry()
                          .histogram("service.replica_catchup_seconds")
                          .snapshot()
                          .count;
    }
  }
  for (const auto& row : service_->worker_stats()) {
    checker_.expect(row.tasks > 0, "set-up left a replica cold");
  }
  fabric_ = std::make_unique<FatTree>(base_, kFatTreeK);
  rng_ = dna::Rng(args_.seed * 0x9e3779b97f4a7c15ULL + 17);
  reads_ = make_reads(*fabric_, rng_, kReadSetSize,
                      args_.workload != "routing-churn");
  expected_version_ = service_->head()->id;
  expected_hash_ = service_->query("hash").body;
  service_->set_trace_all(tracer_.enabled());
}

// ---- operations --------------------------------------------------------------

QueryResult Bench::query(const std::string& line, bool traced, uint64_t* start,
                         uint64_t* end) {
  *start = now_ns();
  QueryResult result = service_->query(traced ? "trace:auto " + line : line);
  *end = now_ns();
  return result;
}

void Bench::commit(const std::string& text, OpStats& stats) {
  dna::service::VersionHandle before = service_->head();
  dna::obs::Trace trace;
  const uint64_t t0 = now_ns();
  CommitResult result;
  try {
    result = service_->commit_text(text, tracer_.enabled() ? &trace : nullptr);
  } catch (const std::exception& e) {
    ++stats.attempted;
    ++stats.failed;
    checker_.fail("commit '" + text + "' refused: " + e.what());
    return;
  }
  const uint64_t t1 = now_ns();
  ++stats.attempted;
  stats.commit_ms.add(seconds_between(t0, t1) * 1e3);
  if (tracer_.enabled()) {
    const uint64_t id = tracer_.add("op.commit", 0, t0, t1);
    tracer_.add_service(trace, id, t0, "svc.commit.");
    for (const auto& span : trace.spans()) {
      if (span.name == "apply") stats.commit_apply_ms.add(span.dur_ns * 1e-6);
      if (span.name == "publish") stats.commit_publish_us.add(span.dur_ns * 1e-3);
    }
  }
  checker_.expect(result.version == expected_version_ + 1,
                  "commit published version " + std::to_string(result.version) +
                      " after " + std::to_string(expected_version_));
  expected_version_ = result.version;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "hash %016llx",
                static_cast<unsigned long long>(
                    dna::service::snapshot_digest(*service_->head()->snapshot)));
  expected_hash_ = hex;
  if (commit_samples_.wants_next()) {
    commit_samples_.put({std::move(before), text, result});
  }
}

void Bench::reject(OpStats& stats) {
  const std::string text = rejected_change(reject_index_++);
  const uint64_t head = service_->head()->id;
  bool refused = false;
  const uint64_t t0 = now_ns();
  try {
    service_->commit_text(text);
  } catch (const std::exception&) {
    refused = true;
  }
  const uint64_t t1 = now_ns();
  ++stats.attempted;
  stats.reject_ms.add(seconds_between(t0, t1) * 1e3);
  tracer_.add("op.reject", 0, t0, t1);
  if (!refused) ++stats.failed;
  checker_.expect(refused, "service accepted '" + text + "'");
  checker_.expect(service_->head()->id == head, "reject moved the head");
}

void Bench::whatif(const std::string& line, OpStats& stats) {
  dna::service::VersionHandle version = service_->head();
  uint64_t t0 = 0, t1 = 0;
  QueryResult result = query(line, tracer_.enabled(), &t0, &t1);
  ++stats.attempted;
  stats.whatif_ms.add(seconds_between(t0, t1) * 1e3);
  if (tracer_.enabled()) {
    const uint64_t id = tracer_.add("op.whatif", 0, t0, t1);
    if (auto trace = dna::obs::Trace::decode(result.trace)) {
      tracer_.add_service(*trace, id, t0, "svc.query.");
    }
  }
  if (!result.ok) {
    ++stats.failed;
    checker_.fail("'" + line + "' failed: " + result.body);
    return;
  }
  checker_.expect(result.version == version->id,
                  "'" + line + "' ran at an unexpected version");
  checker_.expect(json_uint(result.body, "reach_lost") >= 0,
                  "what-if answer has no blast radius: " + result.body);
  if (whatif_samples_.wants_next()) {
    whatif_samples_.put({std::move(version), line.substr(std::strlen("whatif ")),
                         std::move(result.body)});
  }
}

void Bench::risk(const std::string& node, OpStats& stats) {
  auto& registry = service_->registry();
  const uint64_t sweeps = registry.counter("service.risk_sweeps_total").value();
  const uint64_t hits = registry.counter("service.risk_cache_hits").value();
  const size_t want = FatTree::sweep_size(*service_->head()->snapshot, node);
  uint64_t t0 = 0, t1 = 0;
  QueryResult result = query("risk node:" + node, tracer_.enabled(), &t0, &t1);
  ++stats.attempted;
  stats.risk_ms.add(seconds_between(t0, t1) * 1e3);
  tracer_.add("op.risk", 0, t0, t1);
  last_risk_node_ = node;
  if (!result.ok) {
    ++stats.failed;
    checker_.fail("risk sweep on " + node + " failed: " + result.body);
    return;
  }
  const long long scenarios = json_uint(result.body, "scenarios");
  stats.risk_scenarios.add(static_cast<double>(scenarios));
  checker_.expect(scenarios == static_cast<long long>(want),
                  "risk node:" + node + " swept " + std::to_string(scenarios) +
                      " scenarios, the node has " + std::to_string(want) +
                      " enabled ports");
  checker_.expect(json_uint(result.body, "failures") == 0,
                  "risk sweep reported failures");
  checker_.expect(
      registry.counter("service.risk_sweeps_total").value() == sweeps + 1 &&
          registry.counter("service.risk_cache_hits").value() == hits,
      "risk sweep on " + node + " was not cold");
}

void Bench::read(size_t index, OpStats& stats, ReadMemo& memo,
                 uint64_t& counter) {
  const Read& spec = reads_[index];
  const bool traced =
      tracer_.enabled() && counter++ % kTraceEveryNthRead == 0;
  uint64_t t0 = 0, t1 = 0;
  QueryResult result = query(spec.line, traced, &t0, &t1);
  ++stats.attempted;
  stats.read_us.add(seconds_between(t0, t1) * 1e6);
  if (traced) {
    const uint64_t id = tracer_.add("op.read", 0, t0, t1);
    if (auto trace = dna::obs::Trace::decode(result.trace)) {
      tracer_.add_service(*trace, id, t0, "svc.query.");
      ++stats.traced_reads;
      for (const auto& span : trace->spans()) {
        const double us = span.dur_ns * 1e-3;
        if (span.name == "queue") stats.queue_us += us;
        if (span.name == "fanout") stats.fanout_us += us;
        if (span.name == "eval") stats.eval_us += us;
      }
    }
  }
  if (!result.ok) {
    ++stats.failed;
    checker_.fail("'" + spec.line + "' failed: " + result.body);
    return;
  }
  const uint64_t key =
      std::hash<std::string>()(result.body) * 0x100000001b3ULL ^ index;
  if (memo.insert(key).second) {
    const std::string problem = check_read(*fabric_, spec, result.body);
    checker_.expect(problem.empty(), "'" + spec.line + "' at version " +
                                         std::to_string(result.version) +
                                         ": " + problem + "; got '" +
                                         result.body + "'");
  }
}

void Bench::probes(OpStats& stats) {
  for (const auto& [line, token] : bad_input_probes()) {
    const QueryResult result = service_->query(line);
    ++stats.attempted;
    if (result.ok || !probe_answer_is_typed(result.body, token)) ++stats.failed;
  }
}

void Bench::expect_head_unchanged() {
  const QueryResult version = service_->query("version");
  checker_.expect(
      version.body.rfind("version " + std::to_string(expected_version_) + " ", 0) == 0,
      "head moved: '" + version.body + "', expected version " +
          std::to_string(expected_version_));
  const QueryResult hash = service_->query("hash");
  checker_.expect(hash.body == expected_hash_,
                  "snapshot hash moved: '" + hash.body + "' vs '" +
                      expected_hash_ + "'");
}

// ---- workloads ---------------------------------------------------------------

// One closed-loop client. A round: 4 groups of {4 narrow commits, each
// followed by 3 narrow what-ifs; 1 rejected commit}, then a read phase of
// 2048 reads per reader and 1 cold risk sweep over an edge switch. The 2
// bad-input probes run once, after the last round.
void Bench::narrow_edits(ReaderCrew& crew) {
  NarrowChanges changes(*fabric_, args_.seed);
  for (uint64_t round = rounds(kNarrowRoundS); round > 0; --round) {
    for (int group = 0; group < 4; ++group) {
      for (int c = 0; c < 4; ++c) {
        commit(changes.next_commit(), stats_);
        for (int w = 0; w < 3; ++w) whatif(changes.next_whatif(), stats_);
      }
      reject(stats_);
      expect_head_unchanged();
    }
    crew.phase(2048);
    risk(fabric_->name(static_cast<int>(rng_.below(fabric_->num_edges()))),
         stats_);
  }
  probes(stats_);
}

// One closed-loop client. A round: a link-cost change, a link failure, its
// recovery and the cost's restore, each followed by 3 single-link what-ifs;
// 2 rejected commits; a read phase of 2048 reads per reader; 1 cold risk
// sweep over an aggregation switch. The first what-if after a commit
// also pays the serving replica's catch-up; with three per commit the
// median stays a plain preview.
void Bench::routing_churn(ReaderCrew& crew) {
  RoutingChanges changes(*fabric_, base_, args_.seed);
  for (uint64_t round = rounds(kRoutingRoundS); round > 0; --round) {
    for (const std::string& text : changes.next_round()) {
      commit(text, stats_);
      for (int w = 0; w < 3; ++w) whatif(changes.next_whatif(), stats_);
    }
    for (int r = 0; r < 2; ++r) reject(stats_);
    expect_head_unchanged();
    crew.phase(2048);
    const int agg = fabric_->num_edges() +
                    static_cast<int>(rng_.below(fabric_->num_aggs()));
    risk(fabric_->name(agg), stats_);
  }
}

// The readers flood beside 1 committer paced at one narrow commit per
// 25 ms, for the first 60% of the run; then the committer alone runs
// rounds of {1 commit, 8 what-ifs, 2 rejects, 1 cold risk sweep}. Only the
// flood's commits are timed: they are the ones that share the CPUs with
// the readers.
void Bench::read_flood(ReaderCrew& crew) {
  NarrowChanges changes(*fabric_, args_.seed);
  const uint64_t flood_start = now_ns();
  const uint64_t flood_end =
      flood_start + static_cast<uint64_t>(args_.seconds * kFloodShare * 1e9);
  crew.start_flood();
  uint64_t late = 0;
  for (uint64_t due = flood_start; due < flood_end; due += kCommitPeriodNs) {
    const uint64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    } else if (now - due > kCommitPeriodNs) {
      ++late;
    }
    commit(changes.next_commit(), stats_);
  }
  crew.stop_flood();
  if (late > 0) {
    std::cerr << "dnabench: committer ran more than one period late " << late
              << " times\n";
  }
  expect_head_unchanged();
  OpStats untimed;
  for (uint64_t round = rounds(kSerialRoundS, 1 - kFloodShare); round > 0;
       --round) {
    commit(changes.next_commit(), untimed);  // a new version: sweeps stay cold
    for (int w = 0; w < 8; ++w) whatif(changes.next_whatif(), stats_);
    for (int r = 0; r < 2; ++r) reject(stats_);
    expect_head_unchanged();
    risk(fabric_->name(static_cast<int>(rng_.below(fabric_->num_edges()))),
         stats_);
  }
  stats_.attempted += untimed.attempted;
  stats_.failed += untimed.failed;
}

void Bench::registry_mark() {
  auto& registry = service_->registry();
  hists_.clear();
  for (const char* name :
       {"service.replica_catchup_seconds", "service.batch_size",
        "service.journal_append_seconds"}) {
    hists_.push_back({name, registry.histogram(name).snapshot()});
  }
  cache_hits_start_ = registry.counter("service.risk_cache_hits").value();
  commits_start_ = registry.counter("service.commits").value();
}

void Bench::registry_delta() {
  auto& registry = service_->registry();
  for (HistDelta& delta : hists_) {
    const auto now = registry.histogram(delta.name).snapshot();
    delta.count = static_cast<double>(now.count - delta.start.count);
    delta.sum = static_cast<double>(now.sum - delta.start.sum);
  }
  cache_hits_ =
      registry.counter("service.risk_cache_hits").value() - cache_hits_start_;
  commits_ = registry.counter("service.commits").value() - commits_start_;
}

void Bench::run_workload() {
  ReaderCrew crew(*this, args_.seed);
  registry_mark();
  const uint64_t start = now_ns();
  if (args_.workload == "narrow-edits") {
    narrow_edits(crew);
  } else if (args_.workload == "routing-churn") {
    routing_churn(crew);
  } else {
    read_flood(crew);
  }
  peak_rss_mb_ = peak_rss_mb();
  registry_delta();
  stats_.merge(crew.merged());
  std::cerr << "dnabench: timed region " << seconds_between(start, now_ns())
            << " s\n";
}

// ---- oracles (outside the timed region) --------------------------------------

// The final head answers a fixed read set exactly as an engine built from
// scratch at that snapshot does. Returns that engine.
std::unique_ptr<DnaEngine> Bench::verify_head() {
  const dna::service::VersionHandle head = service_->head();
  auto fresh = make_engine(*head->snapshot);
  std::vector<std::string> lines = {"version", "hash"};
  for (size_t i = 0; i < 32 && i < reads_.size(); ++i) {
    lines.push_back(reads_[i].line);
  }
  for (const std::string& line : lines) {
    const QueryResult served = service_->query(line);
    const QueryResult scratch = dna::service::eval_query(
        dna::service::parse_query(line), *head, *fresh);
    checker_.expect(served.ok && served.body == scratch.body,
                    "head answers '" + line + "' as '" + served.body +
                        "', a fresh engine as '" + scratch.body + "'");
  }
  return fresh;
}

// Differential == monolithic: an engine at the version the commit was
// applied to advances monolithically to the commit's target; its fib and
// reach change counts must equal what the service's differential commit
// reported. The engine then steps back and advances differentially again,
// timed, for the core and stage figures.
void Bench::check_commit(const CommitSample& sample) {
  auto engine = make_engine(*sample.before->snapshot);
  const dna::topo::Snapshot before = engine->snapshot();
  const dna::topo::Snapshot target =
      dna::service::parse_change_plan(sample.text).apply(before);
  uint64_t t0 = now_ns();
  const NetworkDiff mono = engine->advance(target, Mode::kMonolithic);
  uint64_t t1 = now_ns();
  mono_ms_.add(seconds_between(t0, t1) * 1e3);
  const auto layout = [&](const char* name, const NetworkDiff& diff,
                          uint64_t start, uint64_t end) {
    if (!tracer_.enabled()) return;
    const uint64_t id = tracer_.add(name, 0, start, end);
    // Stages run in order between the two invariant passes; lay them out
    // from half the remaining time in.
    uint64_t at = start + static_cast<uint64_t>(
                              (diff.seconds_total - diff.stages.total()) * 0.5e9);
    for (const auto& stage : diff.stages.entries()) {
      const uint64_t dur = static_cast<uint64_t>(stage.seconds * 1e9);
      tracer_.add("stage." + stage.stage, id, at, at + dur);
      at += dur;
    }
  };
  layout("core.mono_advance", mono, t0, t1);
  const size_t reach = mono.reach_delta.lost.size() + mono.reach_delta.gained.size();
  checker_.expect(mono.fib_delta.total_changes() == sample.result.fib_changes &&
                      reach == sample.result.reach_changes,
                  "commit '" + sample.text + "' (version " +
                      std::to_string(sample.result.version) +
                      "): differential fib/reach changes " +
                      std::to_string(sample.result.fib_changes) + "/" +
                      std::to_string(sample.result.reach_changes) +
                      ", monolithic " +
                      std::to_string(mono.fib_delta.total_changes()) + "/" +
                      std::to_string(reach));

  engine->advance(before, Mode::kDifferential);
  t0 = now_ns();
  const NetworkDiff diff = engine->advance(target, Mode::kDifferential);
  t1 = now_ns();
  layout("core.advance", diff, t0, t1);
  advance_ms_.add(diff.seconds_total * 1e3);
  invariants_ms_.add((diff.seconds_total - diff.stages.total()) * 1e3);
  affected_ecs_.add(static_cast<double>(diff.affected_ecs));
  total_ecs_.add(static_cast<double>(diff.total_ecs));
  for (const auto& stage : diff.stages.entries()) {
    stage_ms_[stage.stage].add(stage.seconds * 1e3);
  }
  checker_.expect(diff.fib_delta.total_changes() == sample.result.fib_changes,
                  "re-advancing '" + sample.text + "' changed " +
                      std::to_string(diff.fib_delta.total_changes()) +
                      " fib entries, the service " +
                      std::to_string(sample.result.fib_changes));
}

// A what-if's blast radius must match a monolithic advance to the
// candidate; a differential preview, split into its forward and rewind
// advances and timed, must match too.
void Bench::check_whatif(const WhatIfSample& sample) {
  auto engine = make_engine(*sample.version->snapshot);
  const dna::topo::Snapshot before = engine->snapshot();
  const dna::topo::Snapshot target =
      dna::service::parse_change_plan(sample.change).apply(before);
  const auto agrees = [&](const NetworkDiff& diff, const char* mode) {
    const auto summary = dna::scenario::summarize_diff(diff);
    const auto field = [&](const char* key) { return json_uint(sample.body, key); };
    const bool same =
        field("reach_lost") == static_cast<long long>(summary.reach_lost) &&
        field("reach_gained") == static_cast<long long>(summary.reach_gained) &&
        field("loops_gained") == static_cast<long long>(summary.loops_gained) &&
        field("blackholes_gained") ==
            static_cast<long long>(summary.blackholes_gained) &&
        field("fib_changes") == static_cast<long long>(summary.fib_changes) &&
        field("invariants_broken") ==
            static_cast<long long>(summary.invariants_broken);
    checker_.expect(same, "whatif " + sample.change + " at version " +
                              std::to_string(sample.version->id) +
                              ": service answered " + sample.body + ", " +
                              mode + " preview disagrees");
  };
  agrees(engine->advance(target, Mode::kMonolithic), "monolithic");
  engine->advance(before, Mode::kDifferential);
  const uint64_t t0 = now_ns();
  const NetworkDiff forward = engine->advance(target, Mode::kDifferential);
  const uint64_t t1 = now_ns();
  engine->advance(before, Mode::kDifferential);
  const uint64_t t2 = now_ns();
  agrees(forward, "differential");
  forward_ms_.add(seconds_between(t0, t1) * 1e3);
  rewind_ms_.add(seconds_between(t1, t2) * 1e3);
  if (tracer_.enabled()) {
    const uint64_t id = tracer_.add("core.preview", 0, t0, t2);
    tracer_.add("whatif.forward", id, t0, t1);
    tracer_.add("whatif.rewind", id, t1, t2);
  }
}

// Times plan_sweep and analyze from outside, running the sweep's previews
// on `engine` in between.
void Bench::replay_analytics(DnaEngine& engine) {
  if (last_risk_node_.empty()) return;
  const auto sweep = dna::analytics::parse_sweep("node:" + last_risk_node_);
  const uint64_t t0 = now_ns();
  const auto plan = dna::analytics::plan_sweep(sweep, engine.snapshot());
  const uint64_t t1 = now_ns();
  std::vector<dna::scenario::ScenarioResult> results(plan.specs.size());
  for (size_t i = 0; i < plan.specs.size(); ++i) {
    const uint64_t s0 = now_ns();
    results[i] = dna::scenario::summarize_diff(engine.preview(
        plan.specs[i].plan.apply(engine.snapshot()), Mode::kDifferential));
    results[i].index = i;
    results[i].name = plan.specs[i].name;
    tracer_.add("scenario.preview", 0, s0, now_ns());
  }
  std::vector<std::string> descriptions;
  for (const auto& invariant : invariants_) {
    descriptions.push_back(invariant.describe());
  }
  const uint64_t t2 = now_ns();
  const auto report = dna::analytics::analyze(plan, results, descriptions);
  const uint64_t t3 = now_ns();
  plan_ms_.add(seconds_between(t0, t1) * 1e3);
  analyze_ms_.add(seconds_between(t2, t3) * 1e3);
  tracer_.add("analytics.plan", 0, t0, t1);
  tracer_.add("analytics.analyze", 0, t2, t3);
  checker_.expect(report.scenarios == plan.specs.size() && report.failures == 0,
                  "replayed sweep over " + last_risk_node_ + " failed");
}

// Boundary costs timed from outside: parsing a read, and what refusing a
// bad commit needs (parse it and apply it to a copy of the head).
void Bench::time_boundaries() {
  constexpr int kReps = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Read& read : reads_) {
      const uint64_t t0 = now_ns();
      dna::service::parse_query(read.line);
      const uint64_t t1 = now_ns();
      parse_us_.add(seconds_between(t0, t1) * 1e6);
      if (rep == 0) tracer_.add("query.parse", 0, t0, t1);
    }
    for (uint64_t which = 0; which < 2; ++which) {
      const std::string text = rejected_change(which);
      const uint64_t t0 = now_ns();
      bool refused = false;
      try {
        dna::service::parse_change_plan(text).apply(*service_->head()->snapshot);
      } catch (const std::exception&) {
        refused = true;
      }
      const uint64_t t1 = now_ns();
      validate_us_.add(seconds_between(t0, t1) * 1e6);
      tracer_.add("reject.validate", 0, t0, t1);
      checker_.expect(refused, text + " applied cleanly");
    }
  }
}

void Bench::verify() {
  auto head_engine = verify_head();
  for (const CommitSample& sample : commit_samples_.items()) check_commit(sample);
  for (const WhatIfSample& sample : whatif_samples_.items()) check_whatif(sample);
  if (tracer_.enabled()) {
    replay_analytics(*head_engine);
    time_boundaries();
  }
}

// ---- metrics -----------------------------------------------------------------

std::vector<Metric> Bench::end_to_end() const {
  const double read_ops_per_s =
      static_cast<double>(kReaders) * stats_.read_block_rate.median();
  return {
      {"setup_s", setup_s_.median(), "s"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
      {"commit_p50_ms", stats_.commit_ms.median(), "ms"},
      {"commit_tail_ms",
       stats_.commit_ms.quantile(commit_tail_quantile(args_.workload)), "ms"},
      {"reject_p50_ms", stats_.reject_ms.median(), "ms"},
      {"whatif_p50_ms", stats_.whatif_ms.median(), "ms"},
      {"risk_cold_p50_ms", stats_.risk_ms.median(), "ms"},
      {"read_ops_per_s", read_ops_per_s, "1/s"},
      {"read_p50_us", stats_.read_us.median(), "us"},
  };
}

std::vector<Metric> Bench::per_layer() const {
  const auto hist = [&](const char* name) {
    for (const HistDelta& delta : hists_) {
      if (std::strcmp(delta.name, name) == 0) return delta;
    }
    return HistDelta{name, {}};
  };
  const auto stage = [&](const char* name) {
    auto it = stage_ms_.find(name);
    return it == stage_ms_.end() ? 0.0 : it->second.mean();
  };
  const double commits = static_cast<double>(commits_);
  const auto per_read = [&](double sum) {
    return stats_.traced_reads == 0 ? 0 : sum / static_cast<double>(stats_.traced_reads);
  };
  const double scenarios = stats_.risk_scenarios.mean();
  return {
      // core
      {"engine.advance_ms", advance_ms_.mean(), "ms"},
      {"engine.invariants_ms", invariants_ms_.mean(), "ms"},
      {"engine.affected_ecs", affected_ecs_.mean(), "count"},
      {"engine.total_ecs", total_ecs_.mean(), "count"},
      {"engine.mono_advance_ms", mono_ms_.mean(), "ms"},
      {"whatif.forward_ms", forward_ms_.mean(), "ms"},
      {"whatif.rewind_ms", rewind_ms_.mean(), "ms"},
      // controlplane
      {"stage.config-diff_ms", stage("config-diff"), "ms"},
      {"stage.ospf_ms", stage("ospf"), "ms"},
      {"stage.bgp_ms", stage("bgp"), "ms"},
      {"stage.fib_ms", stage("fib"), "ms"},
      // dataplane
      {"stage.ec-index_ms", stage("ec-index"), "ms"},
      {"stage.verify_ms", stage("verify"), "ms"},
      // service
      {"svc.queue_wait_us", per_read(stats_.queue_us), "us"},
      {"svc.fanout_us", per_read(stats_.fanout_us), "us"},
      {"svc.eval_us", per_read(stats_.eval_us), "us"},
      {"svc.batch_mean", hist("service.batch_size").mean(), "count"},
      {"svc.catchup_ms", hist("service.replica_catchup_seconds").mean() * 1e-6, "ms"},
      {"svc.catchups_per_commit",
       commits == 0 ? 0 : hist("service.replica_catchup_seconds").count / commits,
       "count"},
      {"svc.replicas", static_cast<double>(replicas_), "count"},
      {"svc.journal_append_us",
       hist("service.journal_append_seconds").mean() * 1e-3, "us"},
      {"svc.commit_apply_ms", stats_.commit_apply_ms.mean(), "ms"},
      {"svc.commit_publish_us", stats_.commit_publish_us.mean(), "us"},
      {"svc.risk_cache_hits", static_cast<double>(cache_hits_), "count"},
      {"reject.validate_us", validate_us_.mean(), "us"},
      {"query.parse_us", parse_us_.mean(), "us"},
      // scenario / analytics
      {"risk.scenarios", scenarios, "count"},
      {"risk.scenario_ms",
       scenarios == 0 ? 0 : stats_.risk_ms.median() / scenarios, "ms"},
      {"analytics.plan_ms", plan_ms_.mean(), "ms"},
      {"analytics.analyze_ms", analyze_ms_.mean(), "ms"},
      // set-up
      {"setup.snapshot_s", setup_snapshot_s_.median(), "s"},
      {"setup.base_verify_s", setup_verify_s_.median(), "s"},
      {"setup.replica_warm_s", setup_warm_s_.median(), "s"},
      // the traced run's own end-to-end figures (overhead = these minus
      // the untraced run's)
      {"traced.commit_p50_ms", stats_.commit_ms.median(), "ms"},
      {"traced.whatif_p50_ms", stats_.whatif_ms.median(), "ms"},
      {"traced.read_p50_us", stats_.read_us.median(), "us"},
  };
}

void Bench::shutdown() {
  if (service_) service_->shutdown();
  service_.reset();
  fs::remove_all(journal_dir(kSetups - 1));
}

int usage(const char* message) {
  std::cerr << "dnabench: " << message
            << "\nusage: dnabench --workload <narrow-edits|routing-churn|"
               "read-flood> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n";
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "narrow-edits" && args.workload != "routing-churn" &&
      args.workload != "read-flood") {
    return usage("unknown workload");
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  Tracer tracer(args.trace);
  Checker checker;
  Bench bench(args, tracer, checker);
  bench.setup();
  bench.run_workload();
  bench.verify();
  const std::vector<Metric> metrics =
      args.trace ? bench.per_layer() : bench.end_to_end();
  bench.shutdown();
  if (args.trace) {
    const auto spans = tracer.spans();
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    write_spans(path, spans);
    std::cerr << "dnabench: " << spans.size() << " spans written to " << path
              << "\ndnabench: self time by layer (ms):";
    for (const auto& [layer, ms] : self_ms_by_layer(spans)) {
      std::cerr << " " << layer << "=" << ms;
    }
    std::cerr << "\n";
  }
  std::cout << result_line(checker.ok(), bench.attempted(), bench.failed(),
                           metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace dnabench

int main(int argc, char** argv) {
  try {
    return dnabench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dnabench: " << e.what() << "\n";
    return 1;
  }
}
