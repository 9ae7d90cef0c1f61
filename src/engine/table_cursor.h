#ifndef RODB_ENGINE_TABLE_CURSOR_H_
#define RODB_ENGINE_TABLE_CURSOR_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/query_context.h"
#include "io/file_backend.h"
#include "storage/catalog.h"

namespace rodb {

/// Streams every raw tuple of a stored table back in storage order, one
/// block at a time -- the one way to read a whole table (the ingest
/// merge, rodbctl verify and advise). A thin shell over OpenScanner with
/// the full projection, no predicates and no pruning, so each layout's
/// page decoding lives only in its scanner.
///
/// Memory is bounded by pages, not by table size: each file stream
/// buffers kPrefetchDepth + 1 I/O units and the cursor holds one block.
/// That footprint (BufferBytes) is reserved against the context's
/// MemoryBudget for the cursor's lifetime.
///
/// Checks: a data file whose on-disk size differs from the catalog's
/// fails Open with Corruption; a file that holds fewer or more tuples
/// (or, for columns, pages) than the catalog claims fails Next with
/// Corruption; the context's liveness is checked at page boundaries.
class TableCursor {
 public:
  static constexpr int kPrefetchDepth = 4;
  static constexpr uint32_t kBlockTuples = 1024;

  /// `table` and `context` (nullable) are borrowed and must outlive the
  /// cursor. `verify_checksums` checks every page's CRC-32 on the way.
  static Result<std::unique_ptr<TableCursor>> Open(
      const OpenTable& table, const QueryContext* context = nullptr,
      bool verify_checksums = false);

  ~TableCursor();
  TableCursor(const TableCursor&) = delete;
  TableCursor& operator=(const TableCursor&) = delete;

  /// Bytes a cursor over `meta` buffers (what Open reserves).
  static uint64_t BufferBytes(const TableMeta& meta);

  /// The next non-empty block of raw tuples (raw_tuple_width bytes each,
  /// back to back), valid until the following call; nullptr after the
  /// last tuple.
  Result<const TupleBlock*> Next();

  /// Tuples returned so far.
  uint64_t tuples_read() const { return tuples_read_; }

 private:
  explicit TableCursor(const OpenTable& table) : table_(table) {}

  const OpenTable& table_;
  FileBackend backend_;
  ExecStats stats_;
  OperatorPtr scan_;
  MemoryReservation reservation_;
  uint64_t tuples_read_ = 0;
  bool done_ = false;
};

}  // namespace rodb

#endif  // RODB_ENGINE_TABLE_CURSOR_H_
