// Layer probes for the traced run: short timed calls straight into the
// io, kernels, compression and storage layers, each under a span, so
// every traced run reports those layers' costs whether or not its
// workload's timed path exercises them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>

#include "common.h"

namespace perfbench {

/// io.open_stream_us (OpenStream + first Next on a one-page range with
/// default ReadOptions) and io.read_mb_per_s (sequential drain of
/// `file`), through a FileBackend.
void ProbeIo(const std::string& file, size_t page_size, SpanRecorder* spans,
             Report* report);

/// kernels.scan_ns_per_value (codec ScanBatch with a 1% predicate) and
/// compression.decode_ns_per_value (DecodeBatch) over one bit-packed
/// L_PARTKEY column of `values` values generated from `seed`.
void ProbeKernelsAndCodec(uint64_t seed, uint64_t values, SpanRecorder* spans,
                          Report* report);

/// Per-layout bulk-load cost of LINEITEM, reported as
/// storage.load_s.<layout> (seconds per million tuples) and
/// storage.bytes_per_tuple.<layout>.
struct LoadStats {
  double seconds[3] = {0, 0, 0};
  uint64_t bytes[3] = {0, 0, 0};
  uint64_t tuples = 0;
};
/// Table names of the three LINEITEM layouts: row, col, z_col.
extern const char* const kLineitemTables[3];

/// Loads LINEITEM (`tuples`, generator `seed`) in row, col and z_col
/// layouts into `dir`, timing each load.
LoadStats LoadLineitemLayouts(const std::string& dir, uint64_t tuples,
                              uint64_t seed, SpanRecorder* spans);
void ReportLoadStats(const LoadStats& stats, const std::string& note,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
