#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void QueryLayerStats::Add(const rodb::QueryResult& r, double rtt, bool point) {
  queries += 1;
  shared += r.shared ? 1 : 0;
  rows += r.rows;
  counters += r.counters;
  const double engine = r.wall_seconds * 1e3;
  rtt_ms.Add(rtt);
  engine_ms.Add(engine);
  wire_ms.Add(rtt - engine);
  (point ? exec_point_ms : exec_scan_ms).Add(engine);
}

void TraceStats::Add(const rodb::obs::QueryTrace& trace, bool parallel_run) {
  using rodb::obs::TracePhase;
  const auto ms = [&](TracePhase p) {
    return static_cast<double>(trace.PhaseNanos(p)) / 1e6;
  };
  if (parallel_run) {
    // Morsel spans sum worker time, so only the merge phase is wall time.
    parallel += 1;
    merge_ms += ms(TracePhase::kMerge);
    return;
  }
  serial += 1;
  open_ms += ms(TracePhase::kOpen);
  io_ms += ms(TracePhase::kIo);
  scan_ms += ms(TracePhase::kScan);
  const std::vector<rodb::obs::SpanNode> nodes = trace.Spans();
  if (nodes.empty() || nodes[0].inclusive_nanos == 0) return;
  uint64_t children = 0;
  for (const rodb::obs::SpanNode& n : nodes) {
    if (n.depth == 1) children += n.inclusive_nanos;
  }
  coverage_sum += static_cast<double>(children) /
                  static_cast<double>(nodes[0].inclusive_nanos);
}

void ReportQueryLayers(const QueryLayerStats& q, const TraceStats& t,
                       const CounterSnapshot& before, double seconds,
                       double parallel_speedup, Report* report) {
  const CounterSnapshot now = CounterSnapshot::Take();
  const rodb::ExecCounters& c = q.counters;
  const double n = static_cast<double>(q.queries);
  const std::string per_query = "per query, " + std::to_string(q.queries) +
                                " queries";

  const double laps =
      static_cast<double>(now.Since(before, "rodb.server.laps"));
  report->Layer("server.rtt_ms", q.rtt_ms.Median(), "ms",
                "median " + std::to_string(q.rtt_ms.size()) + " calls");
  report->Layer("server.engine_ms", q.engine_ms.Median(), "ms",
                "median QueryResult::wall_seconds");
  report->Layer("server.wire_ms", q.wire_ms.Median(), "ms",
                "median of rtt - engine");
  report->Layer("server.shared_share", Ratio(static_cast<double>(q.shared), n),
                "ratio", "queries served by a circulating scan");
  report->Layer("server.laps_per_s", laps / seconds, "1/s");
  report->Layer("server.lap_backend_mb",
                Ratio(static_cast<double>(
                          now.Since(before, "rodb.server.lap_backend_bytes")) /
                          (1024.0 * 1024.0),
                      laps),
                "MiB", "backend bytes per circulation");
  report->Layer("server.attach_per_lap",
                Ratio(static_cast<double>(
                          now.Since(before, "rodb.server.attached_total")),
                      laps),
                "count");
  report->Layer("server.shed",
                static_cast<double>(now.Since(before, "rodb.server.shed")),
                "count");

  report->Layer("engine.exec_ms.point", q.exec_point_ms.Median(), "ms",
                "median of " + std::to_string(q.exec_point_ms.size()));
  report->Layer("engine.exec_ms.scan", q.exec_scan_ms.Median(), "ms",
                "median of " + std::to_string(q.exec_scan_ms.size()));
  report->Layer("engine.rows_examined_per_row",
                Ratio(static_cast<double>(c.tuples_examined),
                      static_cast<double>(q.rows)),
                "ratio", "tuples examined per result row");
  report->Layer("engine.pages_parsed", Ratio(c.pages_parsed, n), "count",
                per_query);
  report->Layer("engine.prune_skip_ratio",
                Ratio(static_cast<double>(c.pages_pruned),
                      static_cast<double>(c.pages_pruned + c.pages_retained)),
                "ratio", "pages pruned / pages planned");
  report->Layer("engine.prune_declined", Ratio(c.prune_declined, n), "count",
                per_query);
  report->Layer("engine.parallel_speedup", parallel_speedup, "ratio",
                "p=1 over p=4 time of the same shapes");
  const double serial = static_cast<double>(t.serial);
  const std::string traced = "mean over " + std::to_string(t.serial) +
                             " traced serial queries";
  report->Layer("engine.open_ms", Ratio(t.open_ms, serial), "ms", traced);
  report->Layer("engine.io_wait_ms", Ratio(t.io_ms, serial), "ms", traced);
  report->Layer("engine.scan_ms", Ratio(t.scan_ms, serial), "ms", traced);
  report->Layer("engine.merge_ms",
                Ratio(t.merge_ms, static_cast<double>(t.parallel)), "ms",
                "mean over " + std::to_string(t.parallel) +
                    " traced parallel queries");
  report->Layer("engine.trace_coverage", Ratio(t.coverage_sum, serial),
                "ratio", "child phases / query wall time, serial queries");

  const double fetched =
      static_cast<double>(c.io_bytes_read + c.io_bytes_from_cache);
  report->Layer("io.streams_per_query", Ratio(c.files_read, n), "count",
                per_query);
  report->Layer("io.bytes_per_row",
                Ratio(fetched, static_cast<double>(q.rows)), "B",
                "backend + cache bytes per result row");
  report->Layer("io.cache_hit_ratio",
                Ratio(static_cast<double>(c.io_cache_hits),
                      static_cast<double>(c.io_cache_hits + c.io_cache_misses)),
                "ratio");

  report->Layer("kernels.batches", Ratio(c.kernel_batches, n), "count",
                per_query);
  report->Layer("kernels.vectorized_share",
                Ratio(static_cast<double>(c.values_scanned_vectorized),
                      static_cast<double>(c.values_scanned_vectorized +
                                          c.predicate_evals)),
                "ratio", "kernel-filtered values / all filtered values");
  report->Layer("kernels.mask_skip_ratio",
                Ratio(static_cast<double>(c.mask_skipped_values),
                      static_cast<double>(c.values_scanned_vectorized)),
                "ratio");

  report->Layer("compression.decoded_bitpack",
                Ratio(c.values_decoded_bitpack, n), "count", per_query);
  report->Layer("compression.decoded_dict", Ratio(c.values_decoded_dict, n),
                "count", per_query);
  report->Layer("compression.decoded_for", Ratio(c.values_decoded_for, n),
                "count", per_query);
  report->Layer("compression.decoded_fordelta",
                Ratio(c.values_decoded_fordelta, n), "count", per_query);
  report->Layer("compression.code_reads", Ratio(c.values_code_reads, n),
                "count", per_query);

  report->Layer("storage.pages_per_query", Ratio(fetched / 4096.0, n),
                "count", "4 KiB pages fetched per query");
}

void ReportFsyncs(const CounterSnapshot& before, Report* report) {
  const CounterSnapshot now = CounterSnapshot::Take();
  const double syncs =
      static_cast<double>(now.Since(before, "rodb.durability.syncs"));
  const double micros =
      static_cast<double>(now.Since(before, "rodb.durability.sync_micros"));
  report->Layer("io.fsyncs", syncs, "count", "whole run, set-up included");
  report->Layer("io.fsync_ms", Ratio(micros / 1e3, syncs), "ms",
                "mean per fsync, whole run");
}

void ReportTraceOverhead(const Samples& untraced_ms, double untraced_s,
                         const Samples& traced_ms, double traced_s,
                         SpanRecorder* spans, Report* report) {
  const double base = untraced_ms.Mean();
  report->Layer("bench.trace_overhead",
                base == 0 ? 0 : traced_ms.Mean() / base - 1, "ratio",
                "mean latency with spans on / off - 1 (" +
                    std::to_string(traced_ms.size()) + " vs " +
                    std::to_string(untraced_ms.size()) + " ops)");
  report->Layer("bench.qps_untraced",
                Ratio(static_cast<double>(untraced_ms.size()), untraced_s),
                "1/s", "operations with spans off");
  report->Layer("bench.qps_traced",
                Ratio(static_cast<double>(traced_ms.size()), traced_s), "1/s",
                "operations with spans on");
  report->Layer("bench.span_coverage", spans->RootCoverage(), "ratio",
                "mean share of each request span its child spans cover");
}

}  // namespace perfbench
