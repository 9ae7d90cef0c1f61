#ifndef RODB_SERVER_QUERY_REQUEST_H_
#define RODB_SERVER_QUERY_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/predicate.h"
#include "engine/query_context.h"
#include "engine/scan_range.h"
#include "engine/tuple_block.h"
#include "hwmodel/cpu_model.h"
#include "io/read_options.h"
#include "storage/schema.h"

namespace rodb {

namespace obs {
class QueryTrace;
}  // namespace obs

/// How the engine executes a QueryRequest.
enum class QueryMode : uint8_t {
  /// Let the engine pick: a full-table scan query joins the table's
  /// circulating shared scan when scan sharing is enabled; everything
  /// else (explicit ranges, ordered results, parallel plans, traced
  /// runs) executes exclusively.
  kAuto = 0,
  /// One private scan for this query (the paper's one-scan-per-query
  /// model): admission ticket, own scanner, own I/O.
  kExclusive = 1,
  /// Attach to the table's circulating scan mid-flight (Section 2.1.1
  /// scan sharing, pushed to its production conclusion): the query
  /// starts at the scan's current cursor and completes after exactly
  /// one full circulation. Tuples arrive in circulation order, i.e.
  /// table order rotated by the attach position.
  kShared = 2,
};

/// The one public way to ask the engine for data:
///
///   select <projection> from <table> where <predicates>
///
/// plus every execution knob the subsystems underneath understand. This
/// subsumes the previous hand-wired entry points (OpenScanner +
/// Execute, ParallelExecute): callers describe the query,
/// `Database::Execute` / `QueryEngine::Execute` decide how to run it.
struct QueryRequest {
  std::string table;                  ///< catalog name
  std::vector<int> projection;        ///< table attr indices; empty = all
  std::vector<Predicate> predicates;  ///< conjunction, schema-indexed

  QueryMode mode = QueryMode::kAuto;
  /// I/O knobs for exclusive scans (unit size, prefetch, checksums).
  /// The engine supplies its own BlockCache; a cache set here is used
  /// only when the engine has none.
  ReadOptions read;
  /// Slice of the table to scan (exclusive mode only; a non-default
  /// range forces kExclusive under kAuto).
  ScanRange range;
  bool compressed_eval = true;  ///< ScanSpec::compressed_eval
  bool vectorized = true;       ///< ScanSpec::vectorized
  /// Output block granularity for exclusive scans; 0 = the engine's
  /// default. Benches align this with page value counts so parallel
  /// morsel counters merge to exactly the serial ones.
  uint32_t block_tuples = 0;
  /// Zone-map pruning for exclusive predicated scans (declines safely).
  /// Shared circulating scans never prune: the circulating stream must
  /// serve every attached predicate, so it always reads every page.
  bool prune = true;
  /// Morsel parallelism for exclusive scans; <= 1 runs serial. Under
  /// kAuto a parallel request executes exclusively.
  int parallelism = 1;
  /// Require results in table order. Forces kExclusive under kAuto
  /// (shared results arrive in circulation order).
  bool ordered = false;

  /// Materialize qualifying tuples into QueryResult::row_data.
  bool collect_rows = false;
  /// Cap on collected tuples (0 = all). The scan itself always runs to
  /// completion -- a shared query spans one full circulation by
  /// definition -- so counters and checksums cover the whole result.
  uint64_t limit_rows = 0;

  /// Relative deadline; zero = none. Enforced cooperatively at window
  /// (block) boundaries.
  std::chrono::milliseconds timeout{0};
  /// Transient-I/O retries (RetryPolicy::BoundedBackoff); 0 = off.
  int max_retries = 0;
  /// Caller-held cancellation handle: Cancel() stops the query at the
  /// next window boundary with StatusCode::kCancelled.
  CancellationToken cancel;

  /// Optional span tree for exclusive serial runs (borrowed).
  obs::QueryTrace* trace = nullptr;
};

/// What one executed query produced.
struct QueryResult {
  uint64_t rows = 0;    ///< qualifying tuples
  uint64_t blocks = 0;  ///< output blocks observed
  /// FNV-1a chained over the output tuple bytes in delivery order.
  /// Matches the serial-exclusive checksum only when delivery order is
  /// table order (exclusive runs, or a shared run with
  /// attach_position == 0).
  uint64_t output_checksum = 0;
  /// Order-independent digest: the wrapping sum of each output tuple's
  /// FNV-1a hash. Identical across shared and exclusive execution of
  /// the same query regardless of attach position -- the equality the
  /// scan-sharing tests pin.
  uint64_t row_digest = 0;

  bool shared = false;          ///< served by a circulating scan
  uint64_t attach_position = 0; ///< tuple cursor at attach (shared only)
  uint64_t attach_lap = 0;      ///< circulation lap at attach (shared only)
  int morsels = 0;              ///< work units of a parallel run (else 0)

  /// Per-query execution counters. Exclusive runs carry the full record
  /// (I/O included); shared runs carry the query's own evaluation work
  /// (tuples examined, predicate evals, bytes copied) -- the circulating
  /// scan's I/O is shared and reported via rodb.server.* metrics.
  ExecCounters counters;
  double wall_seconds = 0.0;

  /// Collected tuples (collect_rows): `rows_collected` tuples of
  /// `row_layout.tuple_width` bytes back to back, in delivery order.
  BlockLayout row_layout;
  uint64_t rows_collected = 0;
  std::vector<uint8_t> row_data;

  /// Ingest-attached tables only: the manifest epoch the query's
  /// snapshot was pinned at and the number of tuples it could see (the
  /// append-order prefix length -- the value the snapshot-consistency
  /// oracle replays). Both zero for plain bulk-loaded tables.
  uint64_t snapshot_epoch = 0;
  uint64_t snapshot_tuples = 0;

  const uint8_t* collected_tuple(uint64_t i) const {
    return row_data.data() +
           i * static_cast<uint64_t>(row_layout.tuple_width);
  }
};

/// The write-side counterpart of QueryRequest: one batch of raw tuples
/// bound for an ingest-attached table, plus the lifecycle nudges a
/// driver may want after the batch lands. Appends are visible to the
/// very next snapshot; freeze/merge only move tuples between lifecycle
/// stages without changing what any reader sees.
struct IngestRequest {
  std::string table;  ///< ingest table name (not a bulk-loaded table)
  /// Catalog schema text (Schema::AppendTo lines, '\n'-separated),
  /// used to attach the table's ingest lifecycle on first use. May be
  /// empty when the table is already attached.
  std::string schema_text;
  Layout layout = Layout::kRow;  ///< layout of frozen segments and ROS
  int sort_attr = 0;             ///< int32 clustering key
  uint64_t count = 0;            ///< tuples in `data`
  /// `count` raw tuples (attribute bytes back to back), i.e. exactly
  /// count * schema.raw_tuple_width() bytes.
  std::vector<uint8_t> data;
  bool freeze = false;  ///< freeze the active segment after appending
  bool merge = false;   ///< trigger a background merge after appending
};

/// What one ingest batch produced.
struct IngestResult {
  uint64_t appended_total = 0;   ///< store-lifetime appended tuples
  uint64_t epoch = 0;            ///< manifest epoch after the batch
  uint64_t frozen_segments = 0;  ///< frozen segments currently live
};

}  // namespace rodb

#endif  // RODB_SERVER_QUERY_REQUEST_H_
