// ingest_live: one writer and one reader share an ingest-attached column
// table that starts from a seeded ROS generation. The writer calls
// Database::Ingest on seeded batches at a fixed offered rate, with
// auto-freeze and a background merge every few frozen segments, until it
// has appended kAppendRate x --seconds tuples; the reader sends snapshot
// queries (a pruned range on the sort key and an unclustered predicate)
// at a fixed rate until the writer is done. The appended volume, and with it
// the table the reader scans and every merge rewrites, does not depend on
// how fast Ingest is. Fsync stays at the default kCommit level. It
// uses the storage and io layers scan_sweep uses, but for writes next to
// reads: a change that speeds reads by costing merges, memory or write
// amplification shows here. Over ten runs of the same code its latency
// figures spread by 0.38-1.10 (quartile distance / median), so it is not
// one of the gated workloads of BENCHMARK.json (see README.md); run.py
// still runs it.
//
// Tuples are ORDERS rows from OrdersGenerator(seed) in append order, so
// every snapshot query is checked against the append-order prefix of
// snapshot_tuples tuples, and the run ends with a full-scan digest of
// everything appended.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "probes.h"
#include "server/query_engine.h"
#include "storage/database.h"
#include "tpch/generator.h"
#include "tpch/tpch_schema.h"
#include "wos/ingest_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

const char* const kTable = "live";
constexpr int kInstances = 4;
constexpr double kTail = 0.9;
constexpr int kSetups = 3;
constexpr uint64_t kBatch = 1000;  ///< tuples per Database::Ingest call
constexpr size_t kMergeEvery = 4;  ///< frozen segments that trigger a merge
/// Frozen segments at which the writer waits for the running merge.
constexpr size_t kMaxFrozen = 8;
/// Offered append rate, tuples per second. rodb keeps up with
/// it: each merge takes well under the time the writer needs to fill
/// kMergeEvery segments.
constexpr double kAppendRate = 40'000;
/// Offered reader rate, queries per second. A closed-loop reader ran
/// 50-180 queries/s and competed with the merge for the CPU, so its
/// figures moved by up to 75% between runs of the same code; at a fixed
/// rate it samples the table's states evenly in time.
constexpr double kReadRate = 25;
/// Length of a window of the contention filter (QuietWindows).
constexpr double kWindowS = 1.0;

struct IngestConfig {
  uint64_t ros_tuples = 300'000;
  uint64_t freeze_tuples = 16 * 1024;
  bool reader = true;
};

using QuerySpec = std::pair<std::vector<int>, std::vector<rodb::Predicate>>;

struct ReaderQuery {
  bool range = false;  ///< pruned range on the sort key (else unclustered)
  rodb::QueryRequest request;
};

struct SnapshotCheck {
  uint64_t tuples = 0;  ///< snapshot_tuples of the result
  size_t query = 0;
  uint64_t rows = 0;
  uint64_t digest = 0;
};

struct Interval {
  Clock::time_point start, end;
};

/// Everything one ingest run measured.
struct IngestRun {
  std::vector<double> setup_s;
  uint64_t appended = 0;  ///< tuples appended in the timed phase
  double seconds = 0;
  Samples append_us;
  Samples freeze_ms;
  Samples segments;  ///< frozen segments after each batch
  std::vector<Interval> batches;
  std::vector<Interval> merges;
  uint64_t merged_tuples = 0;
  double backpressure_s = 0;   ///< writer time spent waiting for merges
  uint64_t bytes_written = 0;  ///< segment + generation bytes
  uint64_t table_bytes = 0;    ///< on disk at the end, all folded in
  uint64_t live_tuples = 0;
  double peak_rss_mb = 0;
  // Reader, by window of the timed phase.
  WindowedSamples all_ms, range_ms, unclustered_ms;
  std::vector<double> window_steal;
  Samples traced_ms, untraced_ms;
  Samples lag_ms;  ///< how late the reader sent each query
  double traced_s = 0, untraced_s = 0;
  QueryLayerStats layers;
  TraceStats phases;
  double files_per_query = 0;
};

rodb::Schema LiveSchema() {
  auto schema = rodb::tpch::OrdersSchema();
  Require(schema.status(), "ORDERS schema");
  return *schema;
}

std::vector<uint8_t> NextBatch(rodb::tpch::OrdersGenerator* gen,
                               uint64_t count) {
  std::vector<uint8_t> data(count * 32);
  for (uint64_t i = 0; i < count; ++i) gen->NextTuple(data.data() + i * 32);
  return data;
}

rodb::Status Append(rodb::Database* db, rodb::tpch::OrdersGenerator* gen,
                    uint64_t count) {
  rodb::IngestRequest request;
  request.table = kTable;
  request.count = count;
  request.data = NextBatch(gen, count);
  return db->Ingest(request).status();
}

/// Records the data bytes of every segment and generation table the
/// snapshot references that has not been seen before.
void NoteWrittenTables(const rodb::Snapshot& snap, std::set<std::string>* seen,
                       uint64_t* bytes) {
  const auto note = [&](const rodb::OpenTable& t) {
    if (seen->insert(t.meta().name).second) *bytes += t.meta().TotalBytes();
  };
  if (snap.ros() != nullptr) note(*snap.ros());
  for (size_t i = 0; i < snap.num_frozen(); ++i) note(snap.frozen(i));
}

/// Reader queries: kInstances pruned 1% ranges on O_ORDERDATE (the sort
/// key) and kInstances ~1% unclustered O_CUSTKEY predicates, plus the
/// final full scan as the last reference query.
std::vector<ReaderQuery> DrawReaderQueries(uint64_t seed,
                                           std::vector<QuerySpec>* specs) {
  using rodb::CompareOp;
  using rodb::Predicate;
  rodb::Random rng(seed * 31337 + 17);
  std::vector<ReaderQuery> queries;
  const auto add = [&](bool range, std::vector<int> projection,
                       std::vector<Predicate> preds) {
    ReaderQuery q;
    q.range = range;
    q.request.table = kTable;
    q.request.projection = projection;
    q.request.predicates = preds;
    queries.push_back(std::move(q));
    specs->emplace_back(std::move(projection), std::move(preds));
  };
  const int32_t width = rodb::tpch::kOrderdateDomain / 100;
  for (int i = 0; i < kInstances; ++i) {
    const int32_t lo = static_cast<int32_t>(
        rng.Uniform(rodb::tpch::kOrderdateDomain - width));
    add(true, {0, 1, 5},
        {Predicate::Int32(rodb::tpch::kOOrderdate, CompareOp::kGe, lo),
         Predicate::Int32(rodb::tpch::kOOrderdate, CompareOp::kLt, lo + width)});
    const int32_t c = static_cast<int32_t>(
        rodb::tpch::kCustkeyDomain * (0.008 + 0.004 * rng.NextDouble()));
    add(false, {1, 2, 5},
        {Predicate::Int32(rodb::tpch::kOCustkey, CompareOp::kLt, c)});
  }
  specs->emplace_back(std::vector<int>{0, 1, 2, 3, 4, 5, 6},
                      std::vector<Predicate>{});
  return queries;
}

/// Builds the store (seeded ROS) in `dir`, runs the writer (and reader)
/// until kAppendRate x `seconds` tuples are appended, and checks every
/// reader result and the final contents.
IngestRun RunIngest(const std::string& base_dir, uint64_t seed,
                    double seconds, const IngestConfig& config,
                    SpanRecorder* spans, Report* report,
                    bool corrupt_reference) {
  IngestRun run;
  const rodb::Schema schema = LiveSchema();
  rodb::IngestOptions options;
  options.sort_attr = rodb::tpch::kOOrderdate;
  options.layout = rodb::Layout::kColumn;
  options.freeze_tuples = config.freeze_tuples;
  options.merge_segments = 0;  // the writer triggers merges itself

  // --- set-up: seed the ROS kSetups times; keep the last ---------------
  rodb::Database db;
  std::shared_ptr<rodb::IngestStore> store;
  std::string dir;
  rodb::tpch::OrdersGenerator gen(seed);
  for (int s = 0; s < kSetups; ++s) {
    dir = base_dir + "_" + std::to_string(s);
    FreshDir(dir);
    gen = rodb::tpch::OrdersGenerator(seed);
    const Clock::time_point t0 = Clock::now();
    auto opened = rodb::Database::Open(dir);
    Require(opened.status(), "Database::Open");
    db = std::move(*opened);
    Require(db.EnsureIngest(kTable, schema, options), "EnsureIngest");
    store = db.ingest(kTable);
    for (uint64_t done = 0; done < config.ros_tuples;) {
      const uint64_t n = std::min<uint64_t>(16 * 1024, config.ros_tuples - done);
      Require(Append(&db, &gen, n), "seeding Ingest");
      done += n;
    }
    Require(store->Freeze(), "seeding Freeze");
    Require(store->Merge(), "seeding Merge");
    run.setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (s + 1 < kSetups) {
      store.reset();
      db = rodb::Database();
      std::filesystem::remove_all(dir);
    }
  }

  std::vector<QuerySpec> specs;
  const std::vector<ReaderQuery> queries = DrawReaderQueries(seed, &specs);

  std::set<std::string> seen;
  {
    uint64_t ignored = 0;
    NoteWrittenTables(store->Acquire(), &seen, &ignored);
  }

  // --- timed phase -----------------------------------------------------------
  const CounterSnapshot timed_start = CounterSnapshot::Take();
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Clock::time_point> merge_starts;  // guarded by mu
  bool merge_pending = false;                  // guarded by mu
  bool writer_done = false;                    // guarded by mu
  std::vector<SnapshotCheck> checks;
  const Clock::time_point start = Clock::now();
  StealTimeline steal(start, kWindowS);
  const uint64_t batches = std::max<uint64_t>(
      1, static_cast<uint64_t>(kAppendRate * seconds / kBatch + 0.5));
  const auto traced_at = [&](Clock::time_point t) {
    return spans->enabled() &&
           static_cast<int64_t>(SecondsBetween(start, t)) % 2 == 1;
  };
  RssSampler rss;

  std::thread merge_timer([&] {
    while (true) {
      Clock::time_point begin;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !merge_starts.empty() || writer_done; });
        if (merge_starts.empty()) return;
        begin = merge_starts.front();
        merge_starts.pop_front();
      }
      store->WaitMergeIdle();
      const Clock::time_point end = Clock::now();
      const rodb::Status status = store->last_merge_status();
      report->Tally(status.ok());
      if (!status.ok()) report->Mismatch("merge failed: " + status.ToString());
      spans->Record("wos.merge", 0, spans->NewId(), begin, end);
      std::lock_guard<std::mutex> lock(mu);
      run.merges.push_back({begin, end});
      merge_pending = false;
      cv.notify_all();
    }
  });

  std::thread writer([&] {
    const rodb::obs::Counter* freezes =
        rodb::obs::MetricsRegistry::Default().GetCounter("rodb.ingest.freezes");
    uint64_t last_epoch = store->epoch();
    uint64_t request = 0;
    for (uint64_t b = 0; b < batches; ++b) {
      // Open loop: batch b is due b / (kAppendRate / kBatch) seconds in.
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(b * kBatch) / kAppendRate)));
      const uint64_t freezes_before = freezes->Value();
      rodb::IngestRequest req;
      req.table = kTable;
      req.count = kBatch;
      req.data = NextBatch(&gen, kBatch);
      const Clock::time_point t0 = Clock::now();
      const bool traced = traced_at(t0);
      const uint64_t root = traced ? spans->NewId() : 0;
      rodb::Result<rodb::IngestResult> result = [&] {
        if (!traced) return db.Ingest(req);
        ScopedSpan call(spans, "db.ingest", root, ++request);
        return db.Ingest(req);
      }();
      const Clock::time_point t1 = Clock::now();
      if (traced) spans->Record("live.batch", 0, request, t0, t1, root);
      report->Tally(result.ok());
      if (!result.ok()) {
        report->Mismatch("Ingest failed: " + result.status().ToString());
        break;
      }
      run.appended += kBatch;
      run.append_us.Add(MsBetween(t0, t1) * 1e3);
      run.batches.push_back({t0, t1});
      run.segments.Add(static_cast<double>(result->frozen_segments));
      if (freezes->Value() != freezes_before) {
        run.freeze_ms.Add(MsBetween(t0, t1));
      }
      if (result->epoch != last_epoch) {
        last_epoch = result->epoch;
        NoteWrittenTables(store->Acquire(), &seen, &run.bytes_written);
      }
      if (result->frozen_segments >= kMergeEvery) {
        std::unique_lock<std::mutex> lock(mu);
        if (result->frozen_segments >= kMaxFrozen && merge_pending) {
          // Backpressure: rodb itself never stalls appends, so without
          // this the table outgrows every merge and memory.
          const Clock::time_point w0 = Clock::now();
          cv.wait(lock, [&] { return !merge_pending; });
          run.backpressure_s += SecondsBetween(w0, Clock::now());
        }
        if (!merge_pending && store->TriggerMerge()) {
          merge_pending = true;
          merge_starts.push_back(Clock::now());
          cv.notify_all();
        }
      }
    }
  });

  std::thread reader;
  if (config.reader) {
    reader = std::thread([&] {
      rodb::Random rng(seed * 613 + 7);
      for (uint64_t n = 0;; ++n) {
        // Paced: query n is due n / kReadRate seconds in. Its latency is
        // its service time; how late it was sent is the lag.
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(n) / kReadRate));
        std::this_thread::sleep_until(due);
        if (stop.load(std::memory_order_acquire)) break;
        const size_t qi = 2 * rng.Uniform(kInstances) + (n % 2);
        const ReaderQuery& q = queries[qi];
        rodb::QueryRequest request = q.request;
        const Clock::time_point t0 = Clock::now();
        run.lag_ms.Add(MsBetween(due, t0));
        const bool traced = traced_at(t0);
        rodb::obs::QueryTrace qtrace;
        request.trace = traced ? &qtrace : nullptr;
        const uint64_t root = traced ? spans->NewId() : 0;
        rodb::Result<rodb::QueryResult> result = [&] {
          if (!traced) return db.Execute(request);
          ScopedSpan call(spans, "db.execute", root, root);
          return db.Execute(request);
        }();
        const Clock::time_point t1 = Clock::now();
        if (traced) spans->Record("live.query", 0, root, t0, t1, root);
        report->Tally(result.ok());
        if (!result.ok()) {
          report->Mismatch("snapshot query failed: " +
                           result.status().ToString());
          continue;
        }
        const double ms = MsBetween(t0, t1);
        const size_t window = steal.WindowOf(due);
        run.all_ms.Add(window, ms);
        (q.range ? run.range_ms : run.unclustered_ms).Add(window, ms);
        (traced ? run.traced_ms : run.untraced_ms).Add(ms);
        (traced ? run.traced_s : run.untraced_s) += ms / 1e3;
        run.layers.Add(*result, ms, q.range);
        if (traced) run.phases.Add(qtrace, false);
        checks.push_back({result->snapshot_tuples, qi, result->rows,
                          result->row_digest});
      }
    });
  }

  writer.join();
  stop.store(true, std::memory_order_release);
  if (reader.joinable()) reader.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
    cv.notify_all();
  }
  merge_timer.join();
  run.seconds = SecondsBetween(start, Clock::now());
  run.peak_rss_mb = rss.Stop();
  run.window_steal = steal.Stop();
  NoteWrittenTables(store->Acquire(), &seen, &run.bytes_written);
  run.merged_tuples = CounterSnapshot::Take().Since(timed_start,
                                                    "rodb.ingest.merged_tuples");
  if (config.reader) {
    run.files_per_query =
        static_cast<double>(run.layers.counters.files_read) /
        std::max<double>(1, static_cast<double>(run.layers.queries));
  }

  // --- checks ------------------------------------------------------------------
  Require(store->Freeze(), "final Freeze");
  rodb::QueryRequest full;
  full.table = kTable;
  full.projection = specs.back().first;
  auto final_result = db.Execute(full);
  report->Tally(final_result.ok());
  Require(final_result.status(), "final full scan");
  run.live_tuples = final_result->snapshot_tuples;
  run.table_bytes = TableDiskBytes(dir, kTable);
  checks.push_back({final_result->snapshot_tuples, specs.size() - 1,
                    final_result->rows, final_result->row_digest});

  std::sort(checks.begin(), checks.end(),
            [](const SnapshotCheck& a, const SnapshotCheck& b) {
              return a.tuples < b.tuples;
            });
  ReferenceEval oracle(schema, specs);
  rodb::tpch::OrdersGenerator replay(seed);
  std::vector<uint8_t> tuple(32);
  uint64_t fed = 0;
  for (const SnapshotCheck& c : checks) {
    while (fed < c.tuples) {
      replay.NextTuple(tuple.data());
      oracle.Add(tuple.data());
      ++fed;
    }
    Expected want = oracle.Result(c.query);
    if (corrupt_reference && c.query == specs.size() - 1) want.digest ^= 1;
    if (c.rows != want.rows || c.digest != want.digest) {
      report->Mismatch("snapshot of " + std::to_string(c.tuples) +
                       " tuples, query " + std::to_string(c.query) +
                       ": " + std::to_string(c.rows) + " rows, expected " +
                       std::to_string(want.rows));
    }
  }
  if (run.live_tuples != config.ros_tuples + run.appended) {
    report->Mismatch("final snapshot holds " + std::to_string(run.live_tuples) +
                     " tuples, appended " +
                     std::to_string(config.ros_tuples + run.appended));
  }

  if (spans->enabled() && config.reader) {
    // merge phase of a parallel plan over the current ROS generation
    const rodb::Snapshot snap = store->Acquire();
    if (snap.ros() != nullptr) {
      for (const ReaderQuery& q : queries) {
        rodb::QueryRequest request = q.request;
        rodb::obs::QueryTrace qtrace;
        request.table = snap.ros()->meta().name;
        request.mode = rodb::QueryMode::kExclusive;
        request.parallelism = 4;
        request.trace = &qtrace;
        ScopedSpan span(spans, "engine.sample", 0, spans->NewId());
        auto result = db.Execute(request);
        report->Tally(result.ok());
        if (!result.ok()) {
          report->Mismatch("parallel sample failed: " +
                           result.status().ToString());
          continue;
        }
        run.phases.Add(qtrace, true);
      }
      ProbeIo(dir + "/" + snap.ros()->meta().name + ".col0",
              rodb::kDefaultPageSize, spans, report);
    }
  }
  store.reset();
  db = rodb::Database();
  return run;
}

double MaxOverlapping(const std::vector<Interval>& batches,
                      const std::vector<Interval>& merges) {
  double worst = 0;
  for (const Interval& b : batches) {
    for (const Interval& m : merges) {
      if (b.start < m.end && m.start < b.end) {
        worst = std::max(worst, MsBetween(b.start, b.end));
        break;
      }
    }
  }
  return worst;
}

void ReportWos(const IngestRun& run, double tail, Report* report) {
  Samples merge_s;
  double merge_total = 0;
  for (const Interval& m : run.merges) {
    merge_s.Add(SecondsBetween(m.start, m.end));
    merge_total += SecondsBetween(m.start, m.end);
  }
  report->Layer("wos.append_us.p50", run.append_us.Median(), "us",
                "Database::Ingest of one batch; p50 of " +
                    std::to_string(run.append_us.size()));
  report->Layer("wos.append_us.tail", run.append_us.Percentile(tail), "us",
                PercentileNote(tail, run.append_us.size()));
  report->Layer("wos.append_stall_ms", MaxOverlapping(run.batches, run.merges),
                "ms", "longest batch during a merge");
  report->Layer("wos.freeze_ms", run.freeze_ms.Median(), "ms",
                "batches that froze a segment; p50 of " +
                    std::to_string(run.freeze_ms.size()));
  report->Layer("wos.merges", static_cast<double>(run.merges.size()), "count");
  report->Layer("wos.backpressure_s", run.backpressure_s, "s",
                "writer time waiting for a merge at " +
                    std::to_string(kMaxFrozen) +
                    " frozen segments");
  report->Layer("wos.merged_tuples_per_s",
                merge_total == 0 ? 0 : static_cast<double>(run.merged_tuples) /
                                           merge_total,
                "1/s", "tuples folded per second of merge");
  report->Layer("wos.segments_per_snapshot", run.segments.Mean(), "count",
                "frozen segments after each batch");
  report->Layer("wos.files_per_snapshot_query", run.files_per_query, "count");
  report->Layer("wos.bytes_written",
                static_cast<double>(run.bytes_written) / (1024.0 * 1024.0),
                "MiB", "segment and generation files");
  report->Layer("wos.append_tuples_per_s",
                static_cast<double>(run.appended) / run.seconds, "1/s");
  report->Layer("wos.merge_s", merge_s.Median(), "s",
                "median of " + std::to_string(merge_s.size()) + " merges");
  report->Layer("wos.write_amp",
                static_cast<double>(run.bytes_written) /
                    (static_cast<double>(run.appended) * 32.0),
                "ratio", "segment + generation bytes / raw bytes appended");
}

}  // namespace

void RunIngestLive(const Args& args, SpanRecorder* spans, Report* report) {
  const CounterSnapshot run_start = CounterSnapshot::Take();
  const IngestConfig config;
  const IngestRun run =
      RunIngest(args.work_dir + "/ingest_live", args.seed, args.seconds, config,
                spans, report, args.corrupt_reference);

  Samples setup_s;
  for (double s : run.setup_s) setup_s.Add(s);
  Samples merge_s;
  for (const Interval& m : run.merges) merge_s.Add(SecondsBetween(m.start, m.end));

  report->E2E("setup_s", setup_s.Median(), "s",
              "median of " + std::to_string(run.setup_s.size()) +
                  " set-ups (attach, append and merge the seeded ROS)");
  const std::vector<size_t> quiet = QuietWindows(run.window_steal);
  const std::string quiet_note =
      "; " + QuietNote(quiet, run.window_steal.size());
  const Samples all = run.all_ms.Select(quiet);
  const Samples range = run.range_ms.Select(quiet);
  const Samples unclustered = run.unclustered_ms.Select(quiet);
  double quiet_s = 0;  // the last window ends with the run
  for (size_t w : quiet) {
    quiet_s += std::clamp(run.seconds - kWindowS * static_cast<double>(w), 0.0,
                          kWindowS);
  }

  report->E2E("qps", static_cast<double>(all.size()) / quiet_s, "1/s",
              "reader snapshot queries" + quiet_note);
  report->E2E("query_p50_ms", all.Median(), "ms",
              "p50 of " + std::to_string(all.size()) + quiet_note);
  report->E2E("query_tail_ms", all.Percentile(kTail), "ms",
              PercentileNote(kTail, all.size()) + quiet_note);
  report->E2E("point_p50_ms", range.Median(), "ms",
              "pruned 1% range on the sort key; p50 of " +
                  std::to_string(range.size()) + quiet_note);
  report->E2E("point_tail_ms", range.Percentile(kTail), "ms",
              PercentileNote(kTail, range.size()) + quiet_note);
  report->E2E("scan_p50_ms", unclustered.Median(), "ms",
              "unclustered O_CUSTKEY predicate; p50 of " +
                  std::to_string(unclustered.size()) + quiet_note);
  report->E2E("scan_tail_ms", unclustered.Percentile(kTail), "ms",
              PercentileNote(kTail, unclustered.size()) + quiet_note);
  report->E2E("space_amp",
              static_cast<double>(run.table_bytes) /
                  (static_cast<double>(run.live_tuples) * 32.0),
              "ratio", "table files on disk / raw bytes of live tuples");
  report->E2E("peak_rss_mb", run.peak_rss_mb, "MiB", "timed phase");
  report->Extra("append_tuples_per_s",
                static_cast<double>(run.appended) / run.seconds, "1/s",
                std::to_string(run.appended) + " tuples in batches of " +
                    std::to_string(kBatch));
  report->Extra("merge_s", merge_s.Median(), "s",
                "median of " + std::to_string(merge_s.size()) + " merges");
  report->Extra("write_amp",
                static_cast<double>(run.bytes_written) /
                    (static_cast<double>(run.appended) * 32.0),
                "ratio", "segment + generation bytes / raw bytes appended");

  ReportQueryLayers(run.layers, run.phases, run_start, run.seconds, 0, report);
  ReportWos(run, kTail, report);
  report->Layer("compression.ratio", 1.0, "ratio",
                "the ingest table is uncompressed");
  report->Layer("bench.send_lag_tail_ms", run.lag_ms.Percentile(kTail), "ms",
                "paced reader: due -> send; " +
                    PercentileNote(kTail, run.lag_ms.size()));
  if (args.trace) {
    ProbeKernelsAndCodec(args.seed, config.ros_tuples, spans, report);
    const std::string load_dir = args.work_dir + "/ingest_live_load";
    FreshDir(load_dir);
    const uint64_t probe_tuples = 60'000;
    ReportLoadStats(LoadLineitemLayouts(load_dir, probe_tuples, args.seed, spans),
                    "probe load of " + std::to_string(probe_tuples) + " tuples",
                    report);
    ReportTraceOverhead(run.untraced_ms, run.untraced_s, run.traced_ms,
                        run.traced_s, spans, report);
  }
  ReportFsyncs(run_start, report);

  report->State("ros_tuples", std::to_string(config.ros_tuples));
  report->State("appended_tuples", std::to_string(run.appended));
  report->State("live_tuples", std::to_string(run.live_tuples));
  report->State("table_bytes", std::to_string(run.table_bytes));
  report->State("block_cache_bytes", "0");
  report->State("batch_tuples", std::to_string(kBatch));
  report->State("freeze_tuples", std::to_string(config.freeze_tuples));
  report->State("merge_every_segments", std::to_string(kMergeEvery));
  report->State("append_rate", JsonNumber(kAppendRate));
  report->State("tail_percentile", JsonNumber(kTail));
  report->State("quiet_windows", std::to_string(quiet.size()));
  report->Info("window_steal", JsonArray(run.window_steal));
}

void ProbeWos(const std::string& dir, uint64_t seed, SpanRecorder* spans,
              Report* report) {
  IngestConfig config;
  config.ros_tuples = 50'000;
  config.freeze_tuples = 8 * 1024;
  config.reader = false;
  const IngestRun run =
      RunIngest(dir, seed, 2.0, config, spans, report, false);
  ReportWos(run, kTail, report);
}

}  // namespace perfbench
