#include "engine/table_cursor.h"

#include "common/macros.h"
#include "engine/open_scanner.h"

namespace rodb {

Result<std::unique_ptr<TableCursor>> TableCursor::Open(
    const OpenTable& table, const QueryContext* context,
    bool verify_checksums) {
  RODB_RETURN_IF_ERROR(table.CheckFileSizes());
  std::unique_ptr<TableCursor> cursor(new TableCursor(table));
  if (context != nullptr) {
    RODB_ASSIGN_OR_RETURN(cursor->reservation_,
                          context->ReserveMemory(BufferBytes(table.meta())));
  }
  cursor->stats_.set_context(context);
  ScanSpec spec;
  for (size_t a = 0; a < table.schema().num_attributes(); ++a) {
    spec.projection.push_back(static_cast<int>(a));
  }
  spec.read.prefetch_depth = kPrefetchDepth;
  spec.read.verify_checksums = verify_checksums;
  spec.block_tuples = kBlockTuples;
  RODB_ASSIGN_OR_RETURN(cursor->scan_,
                        OpenScanner(table, std::move(spec), &cursor->backend_,
                                    &cursor->stats_));
  RODB_RETURN_IF_ERROR(cursor->scan_->Open());
  return cursor;
}

TableCursor::~TableCursor() {
  if (scan_ != nullptr) scan_->Close();
}

uint64_t TableCursor::BufferBytes(const TableMeta& meta) {
  const uint64_t unit = ReadOptions().io_unit_bytes;
  return meta.file_bytes.size() * (kPrefetchDepth + 1) * unit +
         uint64_t{kBlockTuples} *
             static_cast<uint64_t>(meta.schema.raw_tuple_width());
}

Result<const TupleBlock*> TableCursor::Next() {
  while (!done_) {
    RODB_ASSIGN_OR_RETURN(TupleBlock * block, scan_->Next());
    if (block == nullptr) {
      done_ = true;
      break;
    }
    if (block->empty()) continue;
    tuples_read_ += block->size();
    return block;
  }
  // The scanners fail a file that ends early; a full read must also have
  // produced exactly the catalog's tuples from every catalogued page (a
  // column scan stops at the cardinality, so pages past it go unread).
  const TableMeta& meta = table_.meta();
  if (tuples_read_ != meta.num_tuples) {
    return Status::Corruption(
        meta.name + " holds " + std::to_string(tuples_read_) +
        " tuples but the catalog claims " + std::to_string(meta.num_tuples));
  }
  uint64_t pages = 0;
  for (uint64_t p : meta.file_pages) pages += p;
  if (stats_.counters().pages_parsed != pages) {
    return Status::Corruption(
        meta.name + ": read " +
        std::to_string(stats_.counters().pages_parsed) + " of " +
        std::to_string(pages) +
        " pages; a column is longer than the table cardinality");
  }
  return nullptr;
}

}  // namespace rodb
