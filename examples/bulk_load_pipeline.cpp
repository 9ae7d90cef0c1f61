// The write path of Figure 1: writes land in the write-optimized store
// (an ingest table's in-memory active segment, frozen into sorted
// segments) and periodically merge -- in bulk, sorted on the clustering
// key -- into a fresh read-optimized generation, which the ordinary
// scanners then serve.
//
//   build/examples/bulk_load_pipeline [directory]

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "engine/table_cursor.h"
#include "server/query_engine.h"
#include "storage/database.h"
#include "wos/ingest_store.h"

using namespace rodb;  // NOLINT

namespace {

Status Run(const std::string& dir) {
  RODB_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({
          AttributeDesc::Int32("event_id", CodecSpec::ForDelta(16)),
          AttributeDesc::Int32("amount", CodecSpec::BitPack(10)),
      }));
  RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
  IngestOptions options;
  options.sort_attr = 0;
  options.layout = Layout::kColumn;
  options.freeze_tuples = 0;   // each wave freezes as one segment
  options.merge_segments = 0;  // and merges when this program says so
  RODB_RETURN_IF_ERROR(db.EnsureIngest("events", schema, options));
  std::shared_ptr<IngestStore> store = db.ingest("events");

  // Three load waves; each arrives unsorted and merges into a new
  // generation of the read store.
  int32_t next_id = 1;
  for (int wave = 1; wave <= 3; ++wave) {
    IngestRequest batch;
    batch.table = "events";
    batch.count = 10000;
    batch.data.resize(batch.count * 8);
    batch.freeze = true;
    // Events of this wave arrive shuffled.
    for (int i = 0; i < 10000; ++i) {
      const int32_t id = next_id + 9999 - i;
      StoreLE32s(batch.data.data() + i * 8, id);
      StoreLE32s(batch.data.data() + i * 8 + 4, id % 1000);
    }
    next_id += 10000;
    RODB_ASSIGN_OR_RETURN(IngestResult ingested, db.Ingest(batch));
    std::printf("wave %d: %llu tuples appended, %llu frozen segment(s)\n",
                wave,
                static_cast<unsigned long long>(ingested.appended_total),
                static_cast<unsigned long long>(ingested.frozen_segments));
    RODB_RETURN_IF_ERROR(store->Merge());
    const Snapshot snap = store->Acquire();
    std::printf("  merged into %s: %llu tuples, %llu bytes on disk\n",
                snap.ros()->meta().name.c_str(),
                static_cast<unsigned long long>(snap.ros()->meta().num_tuples),
                static_cast<unsigned long long>(
                    snap.ros()->meta().TotalBytes()));
  }

  // Query the table through the ordinary read path.
  QueryRequest query;
  query.table = "events";
  query.projection = {0, 1};
  query.predicates = {Predicate::Int32(1, CompareOp::kLt, 10)};
  RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(query));
  std::printf("\nscan of events: %llu of %llu tuples qualify (amount < 10)\n",
              static_cast<unsigned long long>(result.rows),
              static_cast<unsigned long long>(result.snapshot_tuples));
  // Verify clustering survived the merges: the final generation must be
  // sorted by id.
  const Snapshot snap = store->Acquire();
  RODB_ASSIGN_OR_RETURN(std::unique_ptr<TableCursor> cursor,
                        TableCursor::Open(*snap.ros()));
  int32_t prev = 0;
  while (true) {
    RODB_ASSIGN_OR_RETURN(const TupleBlock* block, cursor->Next());
    if (block == nullptr) break;
    for (uint32_t i = 0; i < block->size(); ++i) {
      const int32_t id = LoadLE32s(block->tuple(i));
      if (id < prev) return Status::Internal("clustering violated");
      prev = id;
    }
  }
  std::printf("clustering key verified sorted across all %llu tuples.\n",
              static_cast<unsigned long long>(cursor->tuples_read()));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "bulk_load_data";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const Status status = Run(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "bulk_load_pipeline failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
