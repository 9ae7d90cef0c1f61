#ifndef RODB_STORAGE_CATALOG_H_
#define RODB_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "compression/codec.h"
#include "compression/dictionary.h"
#include "compression/row_codec.h"
#include "storage/schema.h"
#include "storage/synopsis.h"

namespace rodb {

/// Per-column statistics gathered during bulk load (int32 attributes).
/// Distinct counts are exact up to kNdvCap and reported as kNdvCap + 1
/// beyond it -- enough for the selectivity estimates physical design
/// needs without a sketch.
struct ColumnStats {
  static constexpr uint64_t kNdvCap = 4096;

  bool valid = false;
  int32_t min = 0;
  int32_t max = 0;
  uint64_t ndv = 0;  ///< distinct values, saturating at kNdvCap + 1
};

/// Table-level zone aggregate for one attribute: the per-file synopsis
/// aggregates (storage/synopsis.h) folded into the catalog entry, in the
/// unsigned key domain. Lets the pruner reject a predicate against the
/// whole table without touching the sidecar.
struct ZoneAggregate {
  bool valid = false;
  uint32_t min_key = 0;
  uint32_t max_key = 0;
};

/// Catalog entry for one stored table.
struct TableMeta {
  std::string name;
  Layout layout = Layout::kRow;
  size_t page_size = 0;
  uint64_t num_tuples = 0;
  Schema schema;
  /// Pages/bytes per physical file: one entry for row layout, one per
  /// attribute for column layout.
  std::vector<uint64_t> file_pages;
  std::vector<uint64_t> file_bytes;
  /// Tuples/values per full page of each physical file, when every page
  /// of that file except the last holds the same count (the bulk loader
  /// records this; it holds unless a codec ended a page early). 0 means
  /// non-uniform or unknown (e.g. metas written before this field
  /// existed). Uniform files admit O(1) position -> page arithmetic,
  /// which partitioned (morsel) scans rely on.
  std::vector<uint32_t> file_page_values;
  /// Stable identity of each physical file (common/file_id.h), parallel
  /// to file_pages/file_bytes. Derived from the full file path when the
  /// table is opened -- not persisted, so metas copied between
  /// directories never carry stale ids -- and used by the block cache to
  /// key cached I/O units.
  std::vector<uint64_t> file_ids;
  /// One entry per attribute (valid only for int32 attributes).
  std::vector<ColumnStats> column_stats;
  /// One entry per attribute; empty for metas written before zone maps
  /// existed (pruning then falls back to the sidecar alone, or to "never
  /// prune" when that is missing too).
  std::vector<ZoneAggregate> zone_aggregates;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (uint64_t b : file_bytes) total += b;
    return total;
  }

  /// Values per full page of file `file`, or 0 when non-uniform/unknown.
  uint32_t PageValues(size_t file) const {
    return file < file_page_values.size() ? file_page_values[file] : 0;
  }
};

/// Minimal persistent catalog: one human-readable meta file per table in
/// the database directory.
class Catalog {
 public:
  static Status SaveTableMeta(const std::string& dir, const TableMeta& meta);
  static Result<TableMeta> LoadTableMeta(const std::string& dir,
                                         const std::string& name);
};

/// A table opened for scanning: catalog entry plus loaded dictionaries.
///
/// Scanners are stateful, so each scanner instance builds its own codecs
/// through the helpers below; the dictionaries are shared (read-only at
/// query time).
class OpenTable {
 public:
  const TableMeta& meta() const { return meta_; }
  const Schema& schema() const { return meta_.schema; }
  const std::string& dir() const { return dir_; }

  /// Physical file behind attribute `attr` (column layout) or the single
  /// row file (row layout; attr ignored).
  std::string FilePath(size_t attr) const;
  /// Bytes of that physical file.
  uint64_t FileBytes(size_t attr) const;
  /// Stable id of that physical file (TableMeta::file_ids), for block-
  /// cache keying.
  uint64_t FileId(size_t attr) const;
  /// Corruption unless every data file is exactly as large as the meta
  /// recorded: anything else is a torn, truncated or lost write. A
  /// missing file counts as zero bytes.
  Status CheckFileSizes() const;

  /// Dictionary for attribute `attr` (nullptr unless kDict).
  Dictionary* dict(size_t attr) const { return dicts_[attr].get(); }

  /// Zone-map synopsis loaded from the `<name>.zmap` sidecar, or nullptr
  /// when the table has none (pre-synopsis tables, or a sidecar that
  /// failed its CRC/staleness checks -- see synopsis_corrupt()).
  const TableSynopsis* synopsis() const { return synopsis_.get(); }
  /// True when a sidecar was present but rejected (corrupt or stale):
  /// scans must degrade to unpruned full scans, never trust it.
  bool synopsis_corrupt() const { return synopsis_corrupt_; }

  /// Fresh stateful codec for one attribute.
  Result<std::unique_ptr<AttributeCodec>> MakeAttrCodec(size_t attr) const;

  /// Fresh per-attribute codecs + RowCodec for scanning compressed row
  /// pages. Returns {nullptr codecs, null RowCodec} for uncompressed
  /// schemas.
  struct RowCodecBundle {
    std::vector<std::unique_ptr<AttributeCodec>> attr_codecs;
    std::unique_ptr<RowCodec> row_codec;  ///< null if schema uncompressed
  };
  Result<RowCodecBundle> MakeRowCodec() const;

  static Result<OpenTable> Open(const std::string& dir,
                                const std::string& name);

 private:
  std::string dir_;
  TableMeta meta_;
  std::vector<std::unique_ptr<Dictionary>> dicts_;
  std::shared_ptr<const TableSynopsis> synopsis_;
  bool synopsis_corrupt_ = false;
};

}  // namespace rodb

#endif  // RODB_STORAGE_CATALOG_H_
