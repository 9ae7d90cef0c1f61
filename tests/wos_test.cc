// The write-optimized store's merge (Figure 1's "merge" arrow): frozen
// segments and the current ROS generation fold into the next generation
// in one streaming, stable k-way pass.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "engine/column_scanner.h"
#include "engine/table_cursor.h"
#include "obs/metrics.h"
#include "scan_test_util.h"
#include "wos/ingest_store.h"

namespace rodb {
namespace {

using rodb::testing::CollectTuples;
using rodb::testing::TempDir;

Schema TwoIntSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key"), AttributeDesc::Int32("val")});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<uint8_t> Row(int32_t key, int32_t val) {
  std::vector<uint8_t> t(8);
  StoreLE32s(t.data(), key);
  StoreLE32s(t.data() + 4, val);
  return t;
}

/// Options for tests that drive freezes and merges by hand.
IngestOptions ManualOptions(Layout layout = Layout::kRow) {
  IngestOptions options;
  options.layout = layout;
  options.page_size = 1024;
  options.freeze_tuples = 0;
  options.merge_segments = 0;
  return options;
}

Result<std::vector<std::vector<uint8_t>>> ReadAll(const OpenTable& table) {
  RODB_ASSIGN_OR_RETURN(std::unique_ptr<TableCursor> cursor,
                        TableCursor::Open(table));
  const size_t width = static_cast<size_t>(table.schema().raw_tuple_width());
  std::vector<std::vector<uint8_t>> tuples;
  while (true) {
    RODB_ASSIGN_OR_RETURN(const TupleBlock* block, cursor->Next());
    if (block == nullptr) return tuples;
    for (uint32_t i = 0; i < block->size(); ++i) {
      tuples.emplace_back(block->tuple(i), block->tuple(i) + width);
    }
  }
}

Status AppendFrozen(IngestStore* store,
                    const std::vector<std::vector<uint8_t>>& rows) {
  for (const auto& row : rows) RODB_RETURN_IF_ERROR(store->Append(row.data()));
  return store->Freeze();
}

uint64_t MergeFailures() {
  return obs::MetricsRegistry::Default()
      .GetCounter("rodb.ingest.merge_failures")
      ->Value();
}

TEST(IngestMergeTest, FirstMergeCreatesGeneration) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(
      auto store,
      IngestStore::Open(dir.path(), "t", TwoIntSchema(), ManualOptions()));
  std::vector<std::vector<uint8_t>> rows;
  for (int i = 50; i > 0; --i) rows.push_back(Row(i, i * 10));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  ASSERT_NE(snap.ros(), nullptr);
  EXPECT_EQ(snap.num_frozen(), 0u);
  ASSERT_OK_AND_ASSIGN(auto tuples, ReadAll(*snap.ros()));
  ASSERT_EQ(tuples.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(LoadLE32s(tuples[static_cast<size_t>(i)].data()), i + 1);
  }
}

class IngestMergeLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(IngestMergeLayoutTest, MergePreservesSortOrderAndContents) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       IngestStore::Open(dir.path(), "t", TwoIntSchema(),
                                         ManualOptions(GetParam())));
  // Generation 1: even keys.
  std::vector<std::vector<uint8_t>> rows;
  for (int k = 0; k < 200; k += 2) rows.push_back(Row(k, k));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  // Generation 2: odd keys arrive out of order.
  rows.clear();
  for (int k = 199; k >= 1; k -= 2) rows.push_back(Row(k, -k));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  ASSERT_OK_AND_ASSIGN(auto tuples, ReadAll(*snap.ros()));
  ASSERT_EQ(tuples.size(), 200u);
  for (int k = 0; k < 200; ++k) {
    EXPECT_EQ(LoadLE32s(tuples[static_cast<size_t>(k)].data()), k);
    const int32_t val = LoadLE32s(tuples[static_cast<size_t>(k)].data() + 4);
    EXPECT_EQ(val, k % 2 == 0 ? k : -k);
  }
}

TEST_P(IngestMergeLayoutTest, TiesGoToTheRosThenTheOldestSegment) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       IngestStore::Open(dir.path(), "t", TwoIntSchema(),
                                         ManualOptions(GetParam())));
  // val records arrival order; every key appears in every input.
  ASSERT_OK(AppendFrozen(store.get(), {Row(2, 0), Row(1, 1)}));
  ASSERT_OK(store->Merge());  // ROS
  ASSERT_OK(AppendFrozen(store.get(), {Row(1, 2), Row(2, 3)}));
  ASSERT_OK(AppendFrozen(store.get(), {Row(2, 4), Row(1, 5), Row(1, 6)}));
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  ASSERT_OK_AND_ASSIGN(auto tuples, ReadAll(*snap.ros()));
  std::vector<int32_t> vals;
  for (const auto& t : tuples) vals.push_back(LoadLE32s(t.data() + 4));
  // Key 1 then key 2, each in arrival order: a stable sort of the
  // whole append sequence.
  EXPECT_EQ(vals, (std::vector<int32_t>{1, 2, 5, 6, 0, 3, 4}));
}

INSTANTIATE_TEST_SUITE_P(Layouts, IngestMergeLayoutTest,
                         ::testing::Values(Layout::kRow, Layout::kColumn,
                                           Layout::kPax),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return std::string(LayoutName(info.param));
                         });

TEST(IngestMergeTest, MergedGenerationIsScannable) {
  // The merged read store must serve the ordinary scanners.
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store,
                       IngestStore::Open(dir.path(), "t", TwoIntSchema(),
                                         ManualOptions(Layout::kColumn)));
  std::vector<std::vector<uint8_t>> rows;
  for (int i = 0; i < 500; ++i) rows.push_back(Row(i, i % 7));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  FileBackend backend;
  ExecStats stats;
  ScanSpec spec;
  spec.projection = {0, 1};
  spec.predicates = {Predicate::Int32(1, CompareOp::kEq, 3)};
  ASSERT_OK_AND_ASSIGN(auto scan,
                       ColumnScanner::Make(snap.ros(), spec, &backend, &stats));
  ASSERT_OK_AND_ASSIGN(auto tuples, CollectTuples(scan.get()));
  EXPECT_EQ(tuples.size(), 500u / 7 + (500 % 7 > 3 ? 1 : 0));
}

TEST(IngestMergeTest, CompressedGenerationsRoundTrip) {
  TempDir dir;
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key", CodecSpec::ForDelta(8)),
       AttributeDesc::Int32("val", CodecSpec::BitPack(10))});
  ASSERT_OK(schema.status());
  ASSERT_OK_AND_ASSIGN(auto store,
                       IngestStore::Open(dir.path(), "z", *schema,
                                         ManualOptions(Layout::kColumn)));
  std::vector<std::vector<uint8_t>> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(Row(i, i % 1000));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  rows.clear();
  for (int i = 300; i < 400; ++i) rows.push_back(Row(i, i % 1000));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  EXPECT_EQ(snap.ros()->meta().num_tuples, 400u);
  ASSERT_OK_AND_ASSIGN(auto tuples, ReadAll(*snap.ros()));
  ASSERT_EQ(tuples.size(), 400u);
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(LoadLE32s(tuples[static_cast<size_t>(i)].data()), i);
    EXPECT_EQ(LoadLE32s(tuples[static_cast<size_t>(i)].data() + 4),
              i % 1000);
  }
}

TEST(IngestMergeTest, MergeFitsABudgetFarBelowItsInput) {
  // The merge streams its inputs, so it reserves page buffers per input
  // file -- not input_tuples x width -- and runs under a budget a
  // materializing merge could never fit.
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(
      auto store,
      IngestStore::Open(dir.path(), "big", TwoIntSchema(), ManualOptions()));
  constexpr int kPerWave = 300000;
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::vector<uint8_t>> rows;
    for (int i = 0; i < kPerWave; ++i) {
      rows.push_back(
          Row(static_cast<int32_t>((int64_t{i} * 7919 + wave) % 100003), i));
    }
    ASSERT_OK(AppendFrozen(store.get(), rows));
  }
  Snapshot before = store->Acquire();
  // Two inputs (row layout: one file each) are all the merge holds.
  const uint64_t budget_bytes =
      2 * TableCursor::BufferBytes(before.frozen(0).meta()) + 4096;
  const uint64_t input_bytes = 2ULL * kPerWave * 8;
  ASSERT_LT(budget_bytes * 3, input_bytes);
  QueryContext ctx;
  ctx.set_memory_budget(std::make_shared<MemoryBudget>(budget_bytes));
  ASSERT_OK(store->Merge(&ctx));
  EXPECT_EQ(ctx.memory_budget()->used_bytes(), 0u);
  Snapshot after = store->Acquire();
  ASSERT_NE(after.ros(), nullptr);
  EXPECT_EQ(after.ros()->meta().num_tuples, 2u * kPerWave);
  ASSERT_OK_AND_ASSIGN(auto tuples, ReadAll(*after.ros()));
  ASSERT_EQ(tuples.size(), 2u * kPerWave);
  for (size_t i = 1; i < tuples.size(); ++i) {
    ASSERT_LE(LoadLE32s(tuples[i - 1].data()), LoadLE32s(tuples[i].data()));
  }
}

TEST(IngestMergeTest, FailedMergeKeepsItsInputs) {
  // A merge that dies anywhere before its manifest commit must leave the
  // previous generation and the frozen segments in place, so a retry
  // runs from the same state.
  TempDir dir;
  IngestOptions options = ManualOptions();
  const char* fail_at = nullptr;
  options.fail_point = [&fail_at](std::string_view at) {
    return fail_at != nullptr && at == fail_at ? Status::IoError("injected")
                                               : Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(
      auto store,
      IngestStore::Open(dir.path(), "t", TwoIntSchema(), options));
  std::vector<std::vector<uint8_t>> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row(i, i));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());
  rows.clear();
  for (int i = 100; i < 150; ++i) rows.push_back(Row(i, i));
  ASSERT_OK(AppendFrozen(store.get(), rows));

  for (const char* point : {"merge.read", "merge.write", "merge.commit"}) {
    fail_at = point;
    const uint64_t epoch = store->epoch();
    EXPECT_FALSE(store->Merge().ok()) << point;
    Snapshot snap = store->Acquire();
    EXPECT_EQ(snap.epoch(), epoch) << point;
    EXPECT_EQ(snap.num_frozen(), 1u) << point;
    EXPECT_EQ(snap.visible_tuples(), 150u) << point;
    ASSERT_OK_AND_ASSIGN(auto ros, ReadAll(*snap.ros()));
    EXPECT_EQ(ros.size(), 100u) << point;
  }

  // With the injection gone the same inputs merge cleanly.
  fail_at = nullptr;
  ASSERT_OK(store->Merge());
  Snapshot snap = store->Acquire();
  EXPECT_EQ(snap.num_frozen(), 0u);
  EXPECT_EQ(snap.ros()->meta().num_tuples, 150u);
}

TEST(IngestMergeTest, TruncatedSegmentFailsTheMergeWithCorruption) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(
      auto store,
      IngestStore::Open(dir.path(), "t", TwoIntSchema(), ManualOptions()));
  std::vector<std::vector<uint8_t>> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(Row(i, i));
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(store->Merge());  // generation 1
  ASSERT_OK(AppendFrozen(store.get(), rows));
  ASSERT_OK(AppendFrozen(store.get(), rows));

  Snapshot before = store->Acquire();
  ASSERT_EQ(before.num_frozen(), 2u);
  const OpenTable& newest = before.frozen(1);
  ASSERT_GT(newest.meta().file_bytes[0], 1024u);
  std::filesystem::resize_file(newest.FilePath(0),
                               newest.meta().file_bytes[0] - 1024);

  const uint64_t failures = MergeFailures();
  Status merged = store->Merge();
  EXPECT_TRUE(merged.IsCorruption()) << merged.ToString();
  EXPECT_EQ(MergeFailures(), failures + 1);
  // The half-written generation is gone.
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/t__gen2.meta"));

  // The previous generation and the intact segment stay readable, from
  // the old snapshot and from a fresh one alike.
  Snapshot after = store->Acquire();
  EXPECT_EQ(after.epoch(), before.epoch());
  EXPECT_EQ(after.visible_tuples(), 3000u);
  for (const Snapshot* snap : {&before, &after}) {
    ASSERT_OK_AND_ASSIGN(auto ros, ReadAll(*snap->ros()));
    EXPECT_EQ(ros.size(), 1000u);
    ASSERT_OK_AND_ASSIGN(auto oldest, ReadAll(snap->frozen(0)));
    EXPECT_EQ(oldest.size(), 1000u);
  }
}

}  // namespace
}  // namespace rodb
