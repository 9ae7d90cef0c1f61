#include "engine/executor.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/scope_guard.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rodb {

namespace {

/// Process-wide roll-up of every Execute() call: query count, output
/// volume, and a wall-latency histogram (microsecond buckets, 1us-~1s).
void RecordQueryMetrics(const ExecutionResult& result) {
  auto& reg = obs::MetricsRegistry::Default();
  static obs::Counter* queries = reg.GetCounter("rodb.query.count");
  static obs::Counter* rows = reg.GetCounter("rodb.query.rows");
  static obs::Counter* blocks = reg.GetCounter("rodb.query.blocks");
  static obs::Histogram* latency = reg.GetHistogram(
      "rodb.query.latency_us",
      obs::Histogram::ExponentialBounds(1, 4.0, 10));
  queries->Increment();
  rows->Add(result.rows);
  blocks->Add(result.blocks);
  latency->Record(
      static_cast<uint64_t>(result.measured.wall_seconds * 1e6));
}

}  // namespace

uint64_t Fnv1aExtend(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

Result<ExecutionResult> Execute(Operator* root, ExecStats* stats,
                                const BlockSink& on_block) {
  if (root == nullptr || stats == nullptr) {
    return Status::InvalidArgument("Execute: null dependency");
  }
  ExecutionResult result;
  IntervalTimer timer;
  obs::QueryTrace* trace = stats->trace();
  {
    obs::SpanTimer query_span(trace, obs::TracePhase::kQuery);
    {
      obs::SpanTimer open_span(trace, obs::TracePhase::kOpen);
      RODB_RETURN_IF_ERROR(root->Open());
    }
    // Close on every exit, error returns included: Close() walks the
    // operator tree releasing streams (and with them block-cache pins),
    // and the pending I/O record must be folded or it is lost.
    auto close_guard = MakeScopeGuard([&] {
      root->Close();
      stats->FoldIo();
    });
    uint64_t checksum = kFnv1aSeed;
    const int width = root->output_layout().tuple_width;
    while (true) {
      RODB_RETURN_IF_ERROR(stats->CheckAlive());
      RODB_ASSIGN_OR_RETURN(TupleBlock * block, root->Next());
      if (block == nullptr) break;
      if (block->empty()) continue;
      result.blocks += 1;
      result.rows += block->size();
      checksum = Fnv1aExtend(checksum, block->tuple(0),
                             static_cast<size_t>(block->size()) *
                                 static_cast<size_t>(width));
      if (on_block != nullptr) RODB_RETURN_IF_ERROR(on_block(*block));
    }
    result.output_checksum = checksum;
  }
  result.measured = timer.Lap();
  if (trace != nullptr) trace->FinalizeFromCounters(stats->counters());
  RecordQueryMetrics(result);
  return result;
}

std::vector<StreamSpec> ScanStreams(const OpenTable& table,
                                    const ScanSpec& spec) {
  std::vector<StreamSpec> streams;
  if (table.meta().layout != Layout::kColumn) {
    // Row and PAX tables are one sequential file.
    streams.push_back(StreamSpec{table.FileBytes(0), 1.0, false});
    return streams;
  }
  for (size_t attr : ScanPipelineAttrs(spec)) {
    streams.push_back(StreamSpec{table.FileBytes(attr), 1.0, false});
  }
  return streams;
}

ModeledTiming ModelQueryTiming(const ExecCounters& counters,
                               const HardwareConfig& hw, int prefetch_depth,
                               const std::vector<StreamSpec>& query_streams,
                               const std::vector<StreamSpec>& competing) {
  ModeledTiming t;
  CpuModel cpu_model(hw);
  t.cpu = cpu_model.Breakdown(counters);
  t.cpu_seconds = t.cpu.Total();
  DiskArrayModel disk_model(hw, prefetch_depth);
  t.disk = disk_model.Simulate(query_streams, competing);
  t.io_seconds = t.disk.query_seconds;
  t.elapsed_seconds = std::max(t.cpu_seconds, t.io_seconds);
  t.io_bound = t.io_seconds >= t.cpu_seconds;
  return t;
}

std::vector<StreamSpec> CacheAdjustedStreams(
    std::vector<StreamSpec> streams, const ExecCounters& counters) {
  const uint64_t total = counters.io_bytes_read + counters.io_bytes_from_cache;
  if (total == 0 || counters.io_bytes_from_cache == 0) return streams;
  const double backend_fraction =
      static_cast<double>(counters.io_bytes_read) / static_cast<double>(total);
  std::vector<StreamSpec> adjusted;
  adjusted.reserve(streams.size());
  for (StreamSpec s : streams) {
    s.bytes = static_cast<uint64_t>(
        std::llround(static_cast<double>(s.bytes) * backend_fraction));
    if (s.bytes > 0) adjusted.push_back(s);
  }
  return adjusted;
}

ExecCounters ScaleCounters(const ExecCounters& counters, double factor) {
  auto scale = [factor](uint64_t v) {
    return static_cast<uint64_t>(std::llround(static_cast<double>(v) * factor));
  };
  ExecCounters s;
  s.tuples_examined = scale(counters.tuples_examined);
  s.predicate_evals = scale(counters.predicate_evals);
  s.values_copied = scale(counters.values_copied);
  s.bytes_copied = scale(counters.bytes_copied);
  s.positions_processed = scale(counters.positions_processed);
  s.values_decoded_bitpack = scale(counters.values_decoded_bitpack);
  s.values_decoded_dict = scale(counters.values_decoded_dict);
  s.values_code_reads = scale(counters.values_code_reads);
  s.values_decoded_for = scale(counters.values_decoded_for);
  s.values_decoded_fordelta = scale(counters.values_decoded_fordelta);
  s.pages_parsed = scale(counters.pages_parsed);
  s.blocks_emitted = scale(counters.blocks_emitted);
  s.operator_tuples = scale(counters.operator_tuples);
  s.hash_ops = scale(counters.hash_ops);
  s.sort_comparisons = scale(counters.sort_comparisons);
  s.join_comparisons = scale(counters.join_comparisons);
  s.seq_bytes_touched = scale(counters.seq_bytes_touched);
  s.random_line_accesses = scale(counters.random_line_accesses);
  s.l1_lines_touched = scale(counters.l1_lines_touched);
  s.io_bytes_read = scale(counters.io_bytes_read);
  s.io_requests = scale(counters.io_requests);
  s.files_read = counters.files_read;  // file count does not scale
  s.io_bytes_from_cache = scale(counters.io_bytes_from_cache);
  s.io_cache_hits = scale(counters.io_cache_hits);
  s.io_cache_misses = scale(counters.io_cache_misses);
  return s;
}

}  // namespace rodb
