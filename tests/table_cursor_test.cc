#include "engine/table_cursor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "scan_test_util.h"
#include "test_util.h"

namespace rodb {
namespace {

using rodb::testing::LoadAllLayouts;
using rodb::testing::LayoutSuffix;
using rodb::testing::TempDir;

constexpr Layout kLayouts[] = {Layout::kRow, Layout::kColumn, Layout::kPax};

/// Every codec family: FOR-delta, bit-packed, dictionary text, plain.
Schema CompressedSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("id", CodecSpec::ForDelta(8)),
       AttributeDesc::Int32("val", CodecSpec::BitPack(10)),
       AttributeDesc::Text("tag", 4, CodecSpec::Dict(2)),
       AttributeDesc::Int32("raw")});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<std::vector<uint8_t>> MakeTuples(int n) {
  std::vector<std::vector<uint8_t>> tuples;
  for (int i = 0; i < n; ++i) {
    std::vector<uint8_t> t(16);
    StoreLE32s(t.data(), i);
    StoreLE32s(t.data() + 4, (i * 37) % 1000);
    std::memcpy(t.data() + 8, i % 3 == 0 ? "AAAA" : "BBBB", 4);
    StoreLE32s(t.data() + 12, -i * 11);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

Result<std::vector<std::vector<uint8_t>>> Drain(TableCursor* cursor,
                                                size_t width) {
  std::vector<std::vector<uint8_t>> out;
  while (true) {
    RODB_ASSIGN_OR_RETURN(const TupleBlock* block, cursor->Next());
    if (block == nullptr) return out;
    if (block->empty()) return Status::Internal("cursor returned empty block");
    for (uint32_t i = 0; i < block->size(); ++i) {
      out.emplace_back(block->tuple(i), block->tuple(i) + width);
    }
  }
}

class TableCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = CompressedSchema();
    tuples_ = MakeTuples(3000);
    ASSERT_OK(LoadAllLayouts(dir_.path(), "t", schema_, tuples_,
                             /*page_size=*/1024));
  }

  Result<OpenTable> Open(Layout layout) {
    return OpenTable::Open(dir_.path(), std::string("t") +
                                            LayoutSuffix(layout));
  }

  TempDir dir_;
  Schema schema_;
  std::vector<std::vector<uint8_t>> tuples_;
};

TEST_F(TableCursorTest, ReadsRawTuplesInStorageOrderInEveryLayout) {
  for (Layout layout : kLayouts) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TableCursor> cursor,
                         TableCursor::Open(table));
    ASSERT_OK_AND_ASSIGN(auto got, Drain(cursor.get(), 16));
    EXPECT_EQ(got, tuples_) << LayoutName(layout);
    EXPECT_EQ(cursor->tuples_read(), tuples_.size());
    // Past the end it stays at the end.
    ASSERT_OK_AND_ASSIGN(const TupleBlock* again, cursor->Next());
    EXPECT_EQ(again, nullptr);
  }
}

TEST_F(TableCursorTest, EmptyTableYieldsNothing) {
  ASSERT_OK(LoadAllLayouts(dir_.path(), "empty", schema_, {}, 1024));
  for (Layout layout : kLayouts) {
    ASSERT_OK_AND_ASSIGN(
        OpenTable table,
        OpenTable::Open(dir_.path(),
                        std::string("empty") + LayoutSuffix(layout)));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TableCursor> cursor,
                         TableCursor::Open(table));
    ASSERT_OK_AND_ASSIGN(auto got, Drain(cursor.get(), 16));
    EXPECT_TRUE(got.empty()) << LayoutName(layout);
  }
}

TEST_F(TableCursorTest, PreCancelledContextStopsTheRead) {
  for (Layout layout : kLayouts) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    QueryContext ctx;
    ctx.Cancel();
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TableCursor> cursor,
                         TableCursor::Open(table, &ctx));
    auto block = cursor->Next();
    ASSERT_FALSE(block.ok()) << LayoutName(layout);
    EXPECT_EQ(block.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(TableCursorTest, OnDiskSizeMismatchIsCorruption) {
  for (Layout layout : kLayouts) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    const std::string path = table.FilePath(0);
    const uint64_t bytes = table.meta().file_bytes[0];
    // One page short, then one byte long: both disagree with the meta.
    for (uint64_t size : {bytes - 1024, bytes + 1}) {
      std::filesystem::resize_file(path, size);
      auto cursor = TableCursor::Open(table);
      ASSERT_FALSE(cursor.ok()) << LayoutName(layout) << " size " << size;
      EXPECT_TRUE(cursor.status().IsCorruption());
    }
  }
}

TEST_F(TableCursorTest, FilesLongerThanTheCardinalityAreCorruption) {
  for (Layout layout : kLayouts) {
    // The catalog claims 500 fewer tuples than the files hold -- whole
    // pages' worth for every column, so a column scan that stops at the
    // cardinality leaves pages unread.
    const std::string name = std::string("t") + LayoutSuffix(layout);
    ASSERT_OK_AND_ASSIGN(TableMeta meta,
                         Catalog::LoadTableMeta(dir_.path(), name));
    meta.num_tuples -= 500;
    ASSERT_OK(Catalog::SaveTableMeta(dir_.path(), meta));
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TableCursor> cursor,
                         TableCursor::Open(table));
    auto drained = Drain(cursor.get(), 16);
    ASSERT_FALSE(drained.ok()) << LayoutName(layout);
    EXPECT_TRUE(drained.status().IsCorruption()) << drained.status().ToString();
  }
}

TEST_F(TableCursorTest, VerifyChecksumsCatchesPayloadFlip) {
  for (Layout layout : kLayouts) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    ASSERT_GT(table.meta().file_pages[0], 1u);
    {
      // One bit inside the second page of the first file.
      std::fstream f(table.FilePath(0),
                     std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f.is_open());
      f.seekg(1024 + 100);
      const char c = static_cast<char>(f.get());
      f.seekp(1024 + 100);
      f.put(static_cast<char>(c ^ 0x10));
    }
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TableCursor> cursor,
                         TableCursor::Open(table, nullptr,
                                           /*verify_checksums=*/true));
    auto drained = Drain(cursor.get(), 16);
    ASSERT_FALSE(drained.ok()) << LayoutName(layout);
    EXPECT_TRUE(drained.status().IsCorruption());
  }
}

TEST_F(TableCursorTest, ReservesPageBuffersAgainstTheBudget) {
  for (Layout layout : kLayouts) {
    ASSERT_OK_AND_ASSIGN(OpenTable table, Open(layout));
    const uint64_t need = TableCursor::BufferBytes(table.meta());
    QueryContext ctx;
    ctx.set_memory_budget(std::make_shared<MemoryBudget>(need));
    {
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<TableCursor> cursor,
                           TableCursor::Open(table, &ctx));
      EXPECT_EQ(ctx.memory_budget()->used_bytes(), need);
      ASSERT_OK(Drain(cursor.get(), 16).status());
    }
    EXPECT_EQ(ctx.memory_budget()->used_bytes(), 0u);
    QueryContext tight;
    tight.set_memory_budget(std::make_shared<MemoryBudget>(need - 1));
    auto cursor = TableCursor::Open(table, &tight);
    ASSERT_FALSE(cursor.ok());
    EXPECT_EQ(cursor.status().code(), StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace rodb
