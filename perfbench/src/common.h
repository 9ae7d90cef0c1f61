// Shared pieces of the rodb benchmark: command line, latency samples,
// the metric report, the span recorder, the resident-memory sampler,
// registry counter deltas, the reference oracle and provenance.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/predicate.h"
#include "server/query_request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

/// Aborts the run (exit 3) with a message when an operation the
/// benchmark relies on fails. Such a failure is not a measurement.
void Require(const rodb::Status& status, const char* what);
void Require(bool ok, const char* what);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for tables, the span file and the report.
  std::string work_dir;
  /// Negative control: flips one expected digest so every comparison
  /// against it must fail.
  bool corrupt_reference = false;
};

/// Latency (or other) samples of one class.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Add(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  /// Harrell-Davis estimate of the p-th quantile, p in [0, 1]; 0 when
  /// empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;

 private:
  std::vector<double> v_;
};

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count, percentile, why not applicable ...
};

/// Everything a run reports: the end-to-end and per-layer metrics, the
/// operation tally and free-form JSON fields (provenance, span summary).
class Report {
 public:
  void E2E(std::string name, double value, std::string unit,
           std::string note = "");
  void Layer(std::string name, double value, std::string unit,
             std::string note = "");
  /// An end-to-end figure that is printed and recorded but is not one of
  /// the benchmark's gated metrics (see README.md for why).
  void Extra(std::string name, double value, std::string unit,
             std::string note = "");
  /// Adds a JSON value (already serialized) under `key` in the report.
  void Info(std::string key, std::string json);
  /// Adds a field of the workload's state (tuple counts, table bytes,
  /// cache size, ...) to the provenance.
  void State(std::string key, std::string json);
  const std::vector<std::pair<std::string, std::string>>& state() const {
    return state_;
  }

  /// One operation attempted; `ok` false counts it as failed.
  void Tally(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// Records one wrong or failed result with a description (first few
  /// kept for the report).
  void Mismatch(const std::string& what);
  uint64_t mismatches() const { return mismatches_.load(); }

  /// The final line: {"correct","attempted","failed","metrics"} with the
  /// per-layer metrics when `layer` is set, else the end-to-end ones.
  std::string ResultLine(bool layer) const;
  /// Human-readable table of every metric, to stderr.
  void Print(const std::string& title) const;
  /// The whole report as one JSON object.
  std::string ToJson() const;

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> extra_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::string>> state_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::mutex mu_;
  std::vector<std::string> mismatch_notes_;
};

/// Note for a percentile value: "p95 of 240 samples, 12 beyond".
std::string PercentileNote(double p, size_t n);

/// Spans recorded in the benchmark's own code around each call into a
/// layer. Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = root
    uint64_t request = 0;  ///< spans of one request share this
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Stores one finished span (no-op when disabled). `id` 0 draws one.
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end,
                  uint64_t id = 0);

  /// Per span name: count, total and self milliseconds (self = duration
  /// minus the union of its children's intervals), as JSON.
  std::string SummaryJson() const;
  /// Mean share of each root span's duration its children cover.
  double RootCoverage() const;
  /// Writes every span as one JSON object per line.
  rodb::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: times its scope and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t parent,
             uint64_t request)
      : rec_(rec), name_(name), parent_(parent), request_(request) {
    if (rec_->enabled()) {
      id_ = rec_->NewId();
      start_ = Clock::now();
    }
  }
  ~ScopedSpan() {
    if (rec_->enabled()) {
      rec_->Record(name_, parent_, request_, start_, Clock::now(), id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_ = 0;
  Clock::time_point start_;
};

/// Samples this process's resident set every few milliseconds between
/// construction and Stop(), keeping the peak. Construction first returns
/// the heap's free pages to the system (malloc_trim).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  /// Stops sampling and returns the peak in MiB.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;
};

/// Current resident set of this process in bytes.
uint64_t ResidentBytes();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it and
/// the part the hypervisor gave to other guests (steal).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  static CpuTimes Read();
  /// Share of the ticks since `earlier` that were stolen; 0 when none
  /// passed.
  double StealShareSince(const CpuTimes& earlier) const;
};

/// The gated figures come from the quiet windows of the timed phase. A
/// window in which the hypervisor gave more than kQuietSteal of the
/// machine's CPU time to other guests runs measurably slower (5-12% steal
/// made queries 20-50% slower), so it is left out. When fewer than half
/// of the windows are that quiet, the half with the least steal is kept.
constexpr double kQuietSteal = 0.03;

/// Indices of the windows to keep, ascending, given each one's steal.
std::vector<size_t> QuietWindows(const std::vector<double>& steal);

/// "kept 9 of 10 windows (steal <= 3%)": the note of a filtered figure.
std::string QuietNote(const std::vector<size_t>& kept, size_t windows);

/// The numbers as a JSON array.
std::string JsonArray(const std::vector<double>& values);

/// Samples split by window of the timed phase.
class WindowedSamples {
 public:
  void Add(size_t window, double v);
  /// The samples of the windows in `windows`.
  Samples Select(const std::vector<size_t>& windows) const;

 private:
  std::vector<Samples> by_window_;
};

/// Measures the machine's steal share in fixed windows of the timed
/// phase, from a background thread that wakes once per window.
class StealTimeline {
 public:
  StealTimeline(Clock::time_point start, double window_s);
  ~StealTimeline();
  StealTimeline(const StealTimeline&) = delete;
  StealTimeline& operator=(const StealTimeline&) = delete;
  /// Window of time point `t` (0 before the start).
  size_t WindowOf(Clock::time_point t) const;
  /// Stops sampling and returns the steal share of every window that
  /// began, the last one cut at the time of the call.
  std::vector<double> Stop();

 private:
  const Clock::time_point start_;
  const double window_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::vector<double> steal_;
  std::thread thread_;
};

/// Point-in-time copy of every counter of the default metrics registry.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  uint64_t Get(const std::string& name) const;
  /// this - earlier, per counter.
  uint64_t Since(const CounterSnapshot& earlier,
                 const std::string& name) const {
    return Get(name) - earlier.Get(name);
  }

 private:
  std::map<std::string, uint64_t> values_;
};

/// Expected answer of one query, from the reference evaluation.
struct Expected {
  uint64_t rows = 0;
  uint64_t digest = 0;    ///< order-independent (QueryResult::row_digest)
  uint64_t checksum = 0;  ///< ordered (QueryResult::output_checksum)
};

/// The reference path: evaluates a set of (projection, predicates)
/// queries in one serial, unpruned pass over raw tuples produced by the
/// seeded tuple function -- no storage, codec, I/O or operator code.
class ReferenceEval {
 public:
  ReferenceEval(const rodb::Schema& schema,
                std::vector<std::pair<std::vector<int>,
                                      std::vector<rodb::Predicate>>>
                    queries);
  /// Feeds the next tuple in table order.
  void Add(const uint8_t* tuple);
  /// Expected result of query i over every tuple fed so far.
  Expected Result(size_t i) const;

 private:
  struct Query {
    std::vector<int> projection;
    std::vector<rodb::Predicate> predicates;
    Expected acc;
  };
  const rodb::Schema& schema_;
  std::vector<Query> queries_;
  std::vector<uint8_t> out_;
};

/// Compares one timed result with its expected answer; the row digest
/// is compared when the execution path produces one (parallel runs do
/// not), the ordered checksum only when delivery is in table order.
bool Matches(const rodb::QueryResult& got, const Expected& want,
             bool table_order);

/// Provenance of a run as a JSON object: source identity, CPU model,
/// nproc, build type, kernel ISA, fsync level, seed and `extra` fields
/// (already-serialized JSON values keyed by name).
std::string ProvenanceJson(
    const Args& args,
    const std::vector<std::pair<std::string, std::string>>& extra);

/// Bytes of every regular file in `dir` whose name starts with `prefix`
/// followed by '.' or "__" (a table's data, metadata and sidecars).
uint64_t TableDiskBytes(const std::string& dir, const std::string& prefix);

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Removes and recreates `dir`.
void FreshDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
