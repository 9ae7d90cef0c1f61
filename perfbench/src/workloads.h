// The three workloads. Each builds its starting state, runs its timed
// phase for Args::seconds, checks every result and fills the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "hwmodel/cpu_model.h"
#include "obs/span.h"

namespace perfbench {

void RunScanSweep(const Args& args, SpanRecorder* spans, Report* report);
void RunServedMix(const Args& args, SpanRecorder* spans, Report* report);
void RunIngestLive(const Args& args, SpanRecorder* spans, Report* report);

/// The wos layer's metrics from a short standalone ingest run (one
/// writer, no reader) in `dir`: the traced run of a workload that
/// bypasses `wos` reports them from here.
void ProbeWos(const std::string& dir, uint64_t seed, SpanRecorder* spans,
              Report* report);

/// Per-layer metrics every workload derives the same way from its
/// executed queries' results.
struct QueryLayerStats {
  uint64_t queries = 0;
  uint64_t shared = 0;
  uint64_t rows = 0;
  rodb::ExecCounters counters;
  Samples rtt_ms;     ///< call into the server layer, as the caller saw it
  Samples engine_ms;  ///< QueryResult::wall_seconds
  Samples wire_ms;    ///< rtt - engine, per query
  Samples exec_point_ms;
  Samples exec_scan_ms;

  void Add(const rodb::QueryResult& r, double rtt_ms, bool point);
};

/// Engine phase times from QueryTrace spans of sampled queries. The
/// filter and project phases are not collected: the scanners filter and
/// project inside their scan phase, so QueryTrace records no time there.
struct TraceStats {
  uint64_t serial = 0;
  uint64_t parallel = 0;
  double open_ms = 0, io_ms = 0, scan_ms = 0;
  double merge_ms = 0;
  double coverage_sum = 0;

  void Add(const rodb::obs::QueryTrace& trace, bool parallel_run);
};

/// Reports the server, engine, io, kernels, compression and storage
/// metrics derivable from `q`, `t` and registry deltas since `before`.
void ReportQueryLayers(const QueryLayerStats& q, const TraceStats& t,
                       const CounterSnapshot& before, double seconds,
                       double parallel_speedup, Report* report);

/// Reports io.fsyncs and io.fsync_ms from registry deltas.
void ReportFsyncs(const CounterSnapshot& before, Report* report);

/// Reports the trace overhead: relative increase of the mean latency of
/// operations run with spans on against those run with spans off, and
/// the throughput of each.
void ReportTraceOverhead(const Samples& untraced_ms, double untraced_s,
                         const Samples& traced_ms, double traced_s,
                         SpanRecorder* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
