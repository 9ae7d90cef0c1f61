#include "storage/catalog.h"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/file_id.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "io/durable_file.h"
#include "storage/table_files.h"

namespace rodb {

Status Catalog::SaveTableMeta(const std::string& dir, const TableMeta& meta) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "name %s\n", meta.name.c_str());
  out += line;
  std::snprintf(line, sizeof(line), "layout %s\n",
                std::string(LayoutName(meta.layout)).c_str());
  out += line;
  std::snprintf(line, sizeof(line), "page_size %zu\n", meta.page_size);
  out += line;
  std::snprintf(line, sizeof(line), "num_tuples %llu\n",
                static_cast<unsigned long long>(meta.num_tuples));
  out += line;
  std::snprintf(line, sizeof(line), "attrs %zu\n",
                meta.schema.num_attributes());
  out += line;
  meta.schema.AppendTo(&out);
  std::snprintf(line, sizeof(line), "files %zu\n", meta.file_pages.size());
  out += line;
  for (size_t i = 0; i < meta.file_pages.size(); ++i) {
    std::snprintf(line, sizeof(line), "file %zu pages %llu bytes %llu\n", i,
                  static_cast<unsigned long long>(meta.file_pages[i]),
                  static_cast<unsigned long long>(meta.file_bytes[i]));
    out += line;
  }
  std::snprintf(line, sizeof(line), "stats %zu\n", meta.column_stats.size());
  out += line;
  for (size_t i = 0; i < meta.column_stats.size(); ++i) {
    const ColumnStats& s = meta.column_stats[i];
    std::snprintf(line, sizeof(line), "stat %zu %d %d %d %llu\n", i,
                  s.valid ? 1 : 0, s.min, s.max,
                  static_cast<unsigned long long>(s.ndv));
    out += line;
  }
  std::snprintf(line, sizeof(line), "pagevals %zu\n",
                meta.file_page_values.size());
  out += line;
  for (size_t i = 0; i < meta.file_page_values.size(); ++i) {
    std::snprintf(line, sizeof(line), "pageval %zu %u\n", i,
                  meta.file_page_values[i]);
    out += line;
  }
  std::snprintf(line, sizeof(line), "zones %zu\n",
                meta.zone_aggregates.size());
  out += line;
  for (size_t i = 0; i < meta.zone_aggregates.size(); ++i) {
    const ZoneAggregate& z = meta.zone_aggregates[i];
    std::snprintf(line, sizeof(line), "zone %zu %d %u %u\n", i,
                  z.valid ? 1 : 0, z.min_key, z.max_key);
    out += line;
  }
  // The meta file is what makes a table exist, so its replacement must
  // be all-or-nothing: AtomicPublishFile writes the tmp, fsyncs it,
  // renames it over the meta and fsyncs the directory. A crash mid-save
  // leaves either the old meta or none -- never a torn one -- which the
  // ingest lifecycle's recover-to-last-good-generation path relies on.
  return AtomicPublishFile(TablePaths::MetaFile(dir, meta.name), out);
}

Result<TableMeta> Catalog::LoadTableMeta(const std::string& dir,
                                         const std::string& name) {
  RODB_ASSIGN_OR_RETURN(std::string text, ReadFileToString(
                                              TablePaths::MetaFile(dir, name)));
  std::istringstream in(text);
  TableMeta meta;
  std::string key;
  std::string layout_name;
  size_t n_attrs = 0;
  if (!(in >> key >> meta.name) || key != "name") {
    return Status::Corruption("meta: bad name line");
  }
  if (!(in >> key >> layout_name) || key != "layout") {
    return Status::Corruption("meta: bad layout line");
  }
  if (layout_name == "row") {
    meta.layout = Layout::kRow;
  } else if (layout_name == "column") {
    meta.layout = Layout::kColumn;
  } else if (layout_name == "pax") {
    meta.layout = Layout::kPax;
  } else {
    return Status::Corruption("meta: unknown layout " + layout_name);
  }
  if (!(in >> key >> meta.page_size) || key != "page_size") {
    return Status::Corruption("meta: bad page_size line");
  }
  if (!(in >> key >> meta.num_tuples) || key != "num_tuples") {
    return Status::Corruption("meta: bad num_tuples line");
  }
  if (!(in >> key >> n_attrs) || key != "attrs") {
    return Status::Corruption("meta: bad attrs line");
  }
  in.ignore();  // consume end of line
  std::vector<std::string> attr_lines;
  attr_lines.reserve(n_attrs);
  for (size_t i = 0; i < n_attrs; ++i) {
    std::string attr_line;
    if (!std::getline(in, attr_line)) {
      return Status::Corruption("meta: truncated attribute list");
    }
    attr_lines.push_back(std::move(attr_line));
  }
  RODB_ASSIGN_OR_RETURN(meta.schema, Schema::ParseFrom(attr_lines));
  size_t n_files = 0;
  if (!(in >> key >> n_files) || key != "files") {
    return Status::Corruption("meta: bad files line");
  }
  for (size_t i = 0; i < n_files; ++i) {
    size_t idx = 0;
    uint64_t pages = 0, bytes = 0;
    std::string pages_key, bytes_key;
    if (!(in >> key >> idx >> pages_key >> pages >> bytes_key >> bytes) ||
        key != "file" || pages_key != "pages" || bytes_key != "bytes" ||
        idx != i) {
      return Status::Corruption("meta: bad file line");
    }
    meta.file_pages.push_back(pages);
    meta.file_bytes.push_back(bytes);
  }
  const size_t expected_files = meta.layout == Layout::kColumn
                                    ? meta.schema.num_attributes()
                                    : 1;
  if (meta.file_pages.size() != expected_files) {
    return Status::Corruption("meta: file count does not match layout");
  }
  // Optional statistics section (absent in minimal/hand-written metas).
  size_t n_stats = 0;
  if (in >> key >> n_stats) {
    if (key != "stats" || n_stats > meta.schema.num_attributes()) {
      return Status::Corruption("meta: bad stats line");
    }
    meta.column_stats.resize(meta.schema.num_attributes());
    for (size_t i = 0; i < n_stats; ++i) {
      size_t idx = 0;
      int valid = 0;
      ColumnStats s;
      if (!(in >> key >> idx >> valid >> s.min >> s.max >> s.ndv) ||
          key != "stat" || idx >= meta.column_stats.size()) {
        return Status::Corruption("meta: bad stat line");
      }
      s.valid = valid != 0;
      meta.column_stats[idx] = s;
    }
  }
  // Optional per-file uniform page value counts (absent in metas written
  // before partitioned scans existed; PageValues() then reports 0).
  size_t n_pagevals = 0;
  if (in >> key >> n_pagevals) {
    if (key != "pagevals" || n_pagevals > meta.file_pages.size()) {
      return Status::Corruption("meta: bad pagevals line");
    }
    meta.file_page_values.assign(meta.file_pages.size(), 0);
    for (size_t i = 0; i < n_pagevals; ++i) {
      size_t idx = 0;
      uint32_t values = 0;
      if (!(in >> key >> idx >> values) || key != "pageval" ||
          idx >= meta.file_page_values.size()) {
        return Status::Corruption("meta: bad pageval line");
      }
      meta.file_page_values[idx] = values;
    }
  }
  // Optional table-level zone aggregates (absent before zone maps).
  size_t n_zones = 0;
  if (in >> key >> n_zones) {
    if (key != "zones" || n_zones > meta.schema.num_attributes()) {
      return Status::Corruption("meta: bad zones line");
    }
    meta.zone_aggregates.resize(meta.schema.num_attributes());
    for (size_t i = 0; i < n_zones; ++i) {
      size_t idx = 0;
      int valid = 0;
      ZoneAggregate z;
      if (!(in >> key >> idx >> valid >> z.min_key >> z.max_key) ||
          key != "zone" || idx >= meta.zone_aggregates.size()) {
        return Status::Corruption("meta: bad zone line");
      }
      z.valid = valid != 0;
      meta.zone_aggregates[idx] = z;
    }
  }
  return meta;
}

std::string OpenTable::FilePath(size_t attr) const {
  switch (meta_.layout) {
    case Layout::kRow:
      return TablePaths::RowFile(dir_, meta_.name);
    case Layout::kPax:
      return TablePaths::PaxFile(dir_, meta_.name);
    case Layout::kColumn:
      break;
  }
  return TablePaths::ColumnFile(dir_, meta_.name, attr);
}

uint64_t OpenTable::FileBytes(size_t attr) const {
  if (meta_.layout != Layout::kColumn) return meta_.file_bytes[0];
  return meta_.file_bytes[attr];
}

uint64_t OpenTable::FileId(size_t attr) const {
  const size_t file = meta_.layout == Layout::kColumn ? attr : 0;
  if (file < meta_.file_ids.size()) return meta_.file_ids[file];
  return FileIdForPath(FilePath(attr));
}

Status OpenTable::CheckFileSizes() const {
  for (size_t f = 0; f < meta_.file_bytes.size(); ++f) {
    const std::string path = FilePath(f);
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) size = 0;
    if (size != meta_.file_bytes[f]) {
      return Status::Corruption(
          "torn table file " + path + ": " + std::to_string(size) +
          " bytes on disk, meta recorded " +
          std::to_string(meta_.file_bytes[f]));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<AttributeCodec>> OpenTable::MakeAttrCodec(
    size_t attr) const {
  const AttributeDesc& desc = meta_.schema.attribute(attr);
  return MakeCodec(desc.codec, desc.width, dicts_[attr].get());
}

Result<OpenTable::RowCodecBundle> OpenTable::MakeRowCodec() const {
  RowCodecBundle bundle;
  if (!meta_.schema.is_compressed()) return bundle;
  std::vector<AttributeCodec*> raw;
  raw.reserve(meta_.schema.num_attributes());
  for (size_t i = 0; i < meta_.schema.num_attributes(); ++i) {
    RODB_ASSIGN_OR_RETURN(std::unique_ptr<AttributeCodec> codec,
                          MakeAttrCodec(i));
    raw.push_back(codec.get());
    bundle.attr_codecs.push_back(std::move(codec));
  }
  bundle.row_codec = std::make_unique<RowCodec>(std::move(raw));
  return bundle;
}

Result<OpenTable> OpenTable::Open(const std::string& dir,
                                  const std::string& name) {
  OpenTable table;
  table.dir_ = dir;
  RODB_ASSIGN_OR_RETURN(table.meta_, Catalog::LoadTableMeta(dir, name));
  // Stamp each physical file's identity from its full path. Hashing the
  // path at open time (instead of persisting ids) means two databases
  // with identically named tables in different directories never alias
  // each other's block-cache entries.
  const size_t n_files = table.meta_.file_pages.size();
  table.meta_.file_ids.reserve(n_files);
  for (size_t i = 0; i < n_files; ++i) {
    table.meta_.file_ids.push_back(FileIdForPath(table.FilePath(i)));
  }
  const Schema& schema = table.meta_.schema;
  table.dicts_.resize(schema.num_attributes());
  bool any_dict = false;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    any_dict |= schema.attribute(i).codec.kind == CompressionKind::kDict;
  }
  if (any_dict) {
    RODB_ASSIGN_OR_RETURN(
        std::string blob, ReadFileToString(TablePaths::DictFile(dir, name)));
    size_t offset = 0;
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      if (schema.attribute(i).codec.kind != CompressionKind::kDict) continue;
      RODB_ASSIGN_OR_RETURN(Dictionary dict,
                            Dictionary::ParseFrom(blob, &offset));
      if (dict.value_width() != schema.attribute(i).width) {
        return Status::Corruption("dictionary width mismatch for attribute " +
                                  schema.attribute(i).name);
      }
      table.dicts_[i] = std::make_unique<Dictionary>(std::move(dict));
    }
  }
  // Zone-map sidecar: optional (older tables have none), and defensive --
  // a sidecar that fails its CRC or does not match this catalog entry is
  // dropped and remembered as corrupt so scans degrade to full scans
  // instead of trusting a summary that could hide rows.
  const std::string zmap_path = SynopsisPath(dir, name);
  if (FileExists(zmap_path)) {
    auto blob = ReadFileToString(zmap_path);
    if (blob.ok()) {
      auto syn = TableSynopsis::ParseFrom(*blob);
      if (syn.ok() && syn->MatchesMeta(table.meta_)) {
        table.synopsis_ =
            std::make_shared<const TableSynopsis>(std::move(*syn));
      } else {
        table.synopsis_corrupt_ = true;
      }
    } else {
      table.synopsis_corrupt_ = true;
    }
  }
  return table;
}

}  // namespace rodb
