// Failure injection: corrupted files, truncated files, lying catalogs and
// erroring I/O must surface as clean Status errors -- never crashes,
// never silently wrong results.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "common/bytes.h"
#include "common/file_util.h"
#include "engine/column_scanner.h"
#include "io/fault_injection.h"
#include "scan_test_util.h"
#include "wos/ingest_store.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::LoadAllLayouts;
using rodb::testing::MakeScanner;
using rodb::testing::TempDir;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Make(
        {AttributeDesc::Int32("id", CodecSpec::ForDelta(8)),
         AttributeDesc::Int32("val"),
         AttributeDesc::Text("tag", 4, CodecSpec::Dict(2))});
    ASSERT_OK(schema.status());
    schema_ = std::move(schema).value();
    std::vector<std::vector<uint8_t>> tuples;
    for (int i = 0; i < 3000; ++i) {
      std::vector<uint8_t> t(12);
      StoreLE32s(t.data(), i);
      StoreLE32s(t.data() + 4, i % 100);
      std::memcpy(t.data() + 8, i % 2 ? "AAAA" : "BBBB", 4);
      tuples.push_back(std::move(t));
    }
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema_, tuples, 1024));
  }

  /// Overwrites `count` bytes of `path` at `offset`.
  void Clobber(const std::string& path, size_t offset, size_t count,
               uint8_t value) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    for (size_t i = 0; i < count; ++i) {
      f.put(static_cast<char>(value));
    }
  }

  /// Flips one bit of the byte at `offset` -- guaranteed to change the
  /// file, unlike an absolute overwrite.
  void FlipBit(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x10));
  }

  void Truncate(const std::string& path, size_t new_size) {
    std::error_code ec;
    std::filesystem::resize_file(path, new_size, ec);
    ASSERT_FALSE(ec);
  }

  Result<uint64_t> ScanRows(const std::string& table_name, IoBackend* backend,
                            bool verify_checksums = false) {
    auto table = OpenTable::Open(dir_.path(), table_name);
    RODB_RETURN_IF_ERROR(table.status());
    ScanSpec spec;
    spec.projection = {0, 1, 2};
    spec.read.io_unit_bytes = 4096;
    spec.read.verify_checksums = verify_checksums;
    ExecStats stats;
    auto scan = MakeScanner(&*table, spec, backend, &stats);
    RODB_RETURN_IF_ERROR(scan.status());
    auto result = Execute(scan->get(), &stats);
    RODB_RETURN_IF_ERROR(result.status());
    return result->rows;
  }

  TempDir dir_;
  Schema schema_;
  FileBackend backend_;
};

TEST_F(FailureInjectionTest, CorruptPageMagicRejectedByEveryLayout) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    // Smash the second page's trailer magic (first file).
    Clobber(table.FilePath(0), 2 * 1024 - 20, 4, 0xEE);
    auto rows = ScanRows(name, &backend_);
    EXPECT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
  }
}

TEST_F(FailureInjectionTest, OversizedPageCountRejected) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  // Set the first page's tuple count to an absurd value.
  std::vector<uint8_t> big(4);
  StoreLE32(big.data(), 1 << 30);
  std::fstream f(table.FilePath(0),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.write(reinterpret_cast<char*>(big.data()), 4);
  f.close();
  auto rows = ScanRows("t_col", &backend_);
  EXPECT_TRUE(rows.status().IsCorruption());
}

TEST_F(FailureInjectionTest, TruncatedColumnFileDetected) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  // Drop the tail of column 1: the pipelined scanner must notice the
  // column is shorter than the driving position stream.
  Truncate(table.FilePath(1), 1024);
  auto rows = ScanRows("t_col", &backend_);
  EXPECT_FALSE(rows.ok());
}

TEST_F(FailureInjectionTest, MissingColumnFileFailsAtOpen) {
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  std::filesystem::remove(table.FilePath(2));
  auto rows = ScanRows("t_col", &backend_);
  EXPECT_TRUE(rows.status().IsIoError());
}

TEST_F(FailureInjectionTest, MissingDictionarySidecarFailsAtOpen) {
  std::filesystem::remove(TablePaths::DictFile(dir_.path(), "t_row"));
  EXPECT_TRUE(OpenTable::Open(dir_.path(), "t_row").status().IsIoError());
}

TEST_F(FailureInjectionTest, TruncatedDictionarySidecarIsCorruption) {
  const std::string path = TablePaths::DictFile(dir_.path(), "t_pax");
  ASSERT_OK_AND_ASSIGN(std::string blob, ReadFileToString(path));
  ASSERT_OK(WriteStringToFile(path, blob.substr(0, blob.size() / 2)));
  EXPECT_TRUE(OpenTable::Open(dir_.path(), "t_pax").status().IsCorruption());
}

TEST_F(FailureInjectionTest, InjectedIoErrorPropagatesFromEveryScanner) {
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    SCOPED_TRACE(name);
    FaultInjectingBackend flaky(&backend_, FaultSpec::FailAfter(1));
    auto rows = ScanRows(name, &flaky);
    ASSERT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsIoError());
    EXPECT_NE(rows.status().message().find("injected"), std::string::npos);
    EXPECT_GE(flaky.injected_errors(), 1u);
  }
}

TEST_F(FailureInjectionTest, SealedPageBitFlipIsCorruptionInEveryLayout) {
  // End to end: one flipped bit in a sealed page on disk, scanned through
  // the real stack with checksum verification on, must come back as
  // Corruption -- for every physical layout.
  for (const char* name : {"t_row", "t_col", "t_pax"}) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), name));
    // Mid-payload of the first page: geometry stays valid, only the CRC
    // can tell.
    FlipBit(table.FilePath(0), 100);
    auto rows = ScanRows(name, &backend_, /*verify_checksums=*/true);
    EXPECT_FALSE(rows.ok());
    EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
  }
}

TEST_F(FailureInjectionTest, RandomBitFlipsNeverGoUnnoticedWhenVerifying) {
  // Decorator-injected in-flight corruption: with checksums on, every
  // outcome is either a clean Corruption/IoError or (if the flip missed
  // the pages we read) the full, correct row count. Never silently short.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    FaultSpec spec;
    spec.seed = seed;
    spec.bit_flip_probability = 0.5;
    FaultInjectingBackend noisy(&backend_, spec);
    auto rows = ScanRows("t_pax", &noisy, /*verify_checksums=*/true);
    if (rows.ok()) {
      EXPECT_EQ(*rows, 3000u);
    } else {
      EXPECT_TRUE(rows.status().IsCorruption() || rows.status().IsIoError())
          << rows.status().ToString();
    }
    EXPECT_GT(noisy.injected_bit_flips(), 0u);
  }
}

TEST_F(FailureInjectionTest, TracingBackendCountsPerFileReads) {
  TracingBackend tracing(&backend_);
  // A column scan projecting all three attributes opens exactly the three
  // column files, once each, and actually pulls bytes through them.
  ASSERT_OK_AND_ASSIGN(uint64_t rows, ScanRows("t_col", &tracing));
  EXPECT_EQ(rows, 3000u);
  EXPECT_EQ(tracing.total_opens(), 3u);
  EXPECT_EQ(tracing.Paths().size(), 3u);
  ASSERT_OK_AND_ASSIGN(OpenTable col, OpenTable::Open(dir_.path(), "t_col"));
  for (int file = 0; file < 3; ++file) {
    const TracingBackend::PathTrace trace = tracing.Trace(col.FilePath(file));
    EXPECT_EQ(trace.opens, 1u);
    EXPECT_GT(trace.units, 0u);
    EXPECT_GT(trace.bytes, 0u);
  }

  tracing.Reset();
  EXPECT_EQ(tracing.total_opens(), 0u);

  // A row scan reads the single row file, whatever the projection.
  ASSERT_OK_AND_ASSIGN(rows, ScanRows("t_row", &tracing));
  EXPECT_EQ(rows, 3000u);
  ASSERT_OK_AND_ASSIGN(OpenTable row, OpenTable::Open(dir_.path(), "t_row"));
  EXPECT_EQ(tracing.total_opens(), 1u);
  EXPECT_EQ(tracing.Trace(row.FilePath(0)).opens, 1u);
}

TEST_F(FailureInjectionTest, ChecksumCatchesSilentPayloadCorruption) {
  // A payload bit flip keeps the geometry valid -- the hot path cannot
  // see it -- but verification (rodbctl verify's code path) must.
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_row"));
  const std::string path = table.FilePath(0);
  Clobber(path, 100, 1, 0x5A);
  ASSERT_OK_AND_ASSIGN(std::string blob, ReadFileToString(path));
  auto unverified = PageView::Parse(
      reinterpret_cast<const uint8_t*>(blob.data()), 1024, false);
  EXPECT_OK(unverified.status());
  auto verified = PageView::Parse(
      reinterpret_cast<const uint8_t*>(blob.data()), 1024, true);
  EXPECT_TRUE(verified.status().IsCorruption());
}

TEST_F(FailureInjectionTest, MergeRejectsCorruptOldStore) {
  IngestOptions options;
  options.page_size = 1024;
  options.freeze_tuples = 0;
  options.merge_segments = 0;
  ASSERT_OK_AND_ASSIGN(auto store,
                       IngestStore::Open(dir_.path(), "ing", schema_, options));
  uint8_t tuple[12] = {0};
  std::memcpy(tuple + 8, "AAAA", 4);
  for (int i = 0; i < 500; ++i) {
    StoreLE32s(tuple, i);
    ASSERT_OK(store->Append(tuple));
  }
  ASSERT_OK(store->Freeze());
  ASSERT_OK(store->Merge());
  ASSERT_OK(store->Append(tuple));
  ASSERT_OK(store->Freeze());
  const Snapshot snap = store->Acquire();
  Truncate(snap.ros()->FilePath(0), 1024);
  const Status merged = store->Merge();
  EXPECT_TRUE(merged.IsCorruption()) << merged.ToString();
}

TEST_F(FailureInjectionTest, CatalogCardinalityLieDetectedByColumnScan) {
  // Claim more tuples than stored: the column scanner's position stream
  // runs off the end of the shorter columns.
  ASSERT_OK_AND_ASSIGN(TableMeta meta,
                       Catalog::LoadTableMeta(dir_.path(), "t_col"));
  ASSERT_OK_AND_ASSIGN(OpenTable table, OpenTable::Open(dir_.path(), "t_col"));
  // Truncate one column file by a page while the others stay intact.
  Truncate(table.FilePath(0), meta.file_bytes[0] - 1024);
  ScanSpec spec;
  spec.projection = {1, 0};
  spec.predicates = {Predicate::Int32(1, CompareOp::kGe, 0)};
  spec.read.io_unit_bytes = 4096;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(auto scan,
                       ColumnScanner::Make(&table, spec, &backend_, &stats));
  auto result = Execute(scan.get(), &stats);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace rodb
