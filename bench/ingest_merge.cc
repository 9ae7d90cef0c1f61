// Continuous ingest under load: append throughput into the segmented
// WOS, wall time of the merge that folds the frozen segments into the
// next ROS generation, and query tail latency while merges run.
//
// Three phases over one ingest-attached table of 4 int32 attributes:
//
//   append   closed-loop AppendBatch with auto-freeze -- tuples/s into
//            the active segment including seal/sort/segment-write time.
//   merge    wall time of the first fold of all frozen segments.
//   query    the same predicated scan in a closed loop, once against an
//            idle store (baseline) and then while merges run on a
//            second thread -- the paper's "reads never block on the
//            write path" claim as p50/p99 numbers. A merge outlasts only
//            a few queries, so the busy phase keeps merging (one new
//            segment per round) until at least kTailSamples latencies
//            lie beyond the p99, and prints the sample counts behind
//            each percentile.
//
// Output: one JSON line per point --
//   {"bench":"ingest_merge","phase":"append",...}
//
// Flags: --tuples=N       dataset cardinality (default 200000;
//                         RODB_BENCH_TUPLES overrides the default)
//        --batch=N        tuples per append batch (default 1024)
//        --segments=N     frozen segments to build (default 8)
//
// Scratch tables live under RODB_BENCH_DIR (default: a fresh temp dir,
// removed on exit).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/random.h"
#include "server/query_engine.h"
#include "server/query_request.h"
#include "storage/database.h"
#include "wos/ingest_store.h"

using namespace rodb;  // NOLINT

namespace {

constexpr int kAttrs = 4;
constexpr uint64_t kKeyDomain = 1 << 20;

Schema MakeSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("k"), AttributeDesc::Int32("a"),
       AttributeDesc::Int32("b"), AttributeDesc::Int32("c")});
  RODB_CHECK(schema.ok());
  return std::move(schema).value();
}

/// `count` random raw tuples, key in [0, kKeyDomain).
std::vector<uint8_t> MakeBatch(Random* rng, uint64_t count) {
  std::vector<uint8_t> data(count * kAttrs * 4);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t* t = data.data() + i * kAttrs * 4;
    StoreLE32s(t, static_cast<int32_t>(rng->Uniform(kKeyDomain)));
    for (int a = 1; a < kAttrs; ++a) {
      StoreLE32s(t + a * 4, static_cast<int32_t>(rng->Uniform(1000)));
    }
  }
  return data;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Busy-phase stopping rule: a p99 is only reported once this many
/// samples lie beyond it.
constexpr uint64_t kTailSamples = 10;

/// Index of the p-quantile in `n` sorted samples.
size_t QuantileIndex(size_t n, double p) {
  return static_cast<size_t>(p * static_cast<double>(n - 1));
}

/// Samples strictly beyond the p-quantile of `n` samples.
size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - QuantileIndex(n, p);
}

/// Appends `tuples` more tuples and freezes them into segments.
void AppendMore(IngestStore* store, Random* rng, uint64_t tuples,
                uint64_t batch) {
  for (uint64_t done = 0; done < tuples;) {
    const uint64_t n = std::min(batch, tuples - done);
    const std::vector<uint8_t> data = MakeBatch(rng, n);
    RODB_CHECK(store->AppendBatch(data.data(), n).ok());
    done += n;
  }
  RODB_CHECK(store->Freeze().ok());
}

/// Appends `tuples` in batches with auto-freeze sized so `segments`
/// frozen segments come out, and reports append throughput.
void BuildTable(Database* db, const std::string& table, uint64_t tuples,
                uint64_t batch, uint64_t segments) {
  IngestOptions options;
  options.sort_attr = 0;
  options.layout = Layout::kColumn;
  options.freeze_tuples = std::max<uint64_t>(1, tuples / segments);
  options.merge_segments = 0;  // merges only when the bench says so
  RODB_CHECK(db->EnsureIngest(table, MakeSchema(), options).ok());

  Random rng(7);
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<IngestStore> store = db->ingest(table);
  AppendMore(store.get(), &rng, tuples, batch);
  const double seconds = Seconds(start);
  const Snapshot snap = store->Acquire();
  std::printf(
      "{\"bench\":\"ingest_merge\",\"phase\":\"append\","
      "\"tuples\":%llu,\"batch\":%llu,\"seconds\":%.3f,"
      "\"tuples_per_sec\":%.0f,\"segments_frozen\":%zu}\n",
      static_cast<unsigned long long>(tuples),
      static_cast<unsigned long long>(batch), seconds,
      static_cast<double>(tuples) / seconds, snap.num_frozen());
  std::fflush(stdout);
}

struct QueryPhase {
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t merges = 0;
  std::vector<double> latencies_ms;
};

/// Closed-loop predicated scans into `phase` until `stop` flips (or
/// `max_queries` against an idle store).
void RunQueries(Database* db, const std::string& table,
                const std::atomic<bool>* stop, uint64_t max_queries,
                QueryPhase* phase) {
  QueryRequest request;
  request.table = table;
  request.projection = {0, 1};
  request.predicates = {Predicate::Int32(
      0, CompareOp::kLt, static_cast<int32_t>(kKeyDomain / 10))};
  for (uint64_t issued = 0;
       (stop == nullptr || !stop->load(std::memory_order_acquire)) &&
       issued < max_queries;
       ++issued) {
    const auto start = std::chrono::steady_clock::now();
    auto result = db->Execute(request);
    const double ms = Seconds(start) * 1000.0;
    if (!result.ok()) {
      ++phase->errors;
      continue;
    }
    ++phase->queries;
    phase->latencies_ms.push_back(ms);
  }
}

/// Runs `store`'s merge on a second thread while querying into `phase`;
/// returns the merge's wall time.
double MergeUnderQueries(Database* db, IngestStore* store,
                         QueryPhase* phase) {
  std::atomic<bool> merge_done{false};
  Status merge_status;
  const auto merge_start = std::chrono::steady_clock::now();
  std::thread merger([&] {
    merge_status = store->Merge();
    merge_done.store(true, std::memory_order_release);
  });
  RunQueries(db, store->table(), &merge_done, /*max_queries=*/1 << 20,
             phase);
  merger.join();
  const double seconds = Seconds(merge_start);
  RODB_CHECK(merge_status.ok());
  ++phase->merges;
  return seconds;
}

void PrintQueryPoint(const char* merge_state, QueryPhase* phase,
                     double seconds) {
  std::vector<double>& ms = phase->latencies_ms;
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  const double p50 = n == 0 ? 0.0 : ms[QuantileIndex(n, 0.50)];
  const double p99 = n == 0 ? 0.0 : ms[QuantileIndex(n, 0.99)];
  std::printf(
      "{\"bench\":\"ingest_merge\",\"phase\":\"query\",\"merge\":\"%s\","
      "\"queries\":%llu,\"merges\":%llu,\"seconds\":%.3f,\"qps\":%.1f,"
      "\"p50_ms\":%.2f,\"p99_ms\":%.2f,\"samples_beyond_p50\":%zu,"
      "\"samples_beyond_p99\":%zu,\"errors\":%llu}\n",
      merge_state, static_cast<unsigned long long>(phase->queries),
      static_cast<unsigned long long>(phase->merges), seconds,
      static_cast<double>(phase->queries) / seconds, p50, p99,
      SamplesBeyond(n, 0.50), SamplesBeyond(n, 0.99),
      static_cast<unsigned long long>(phase->errors));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t tuples = 200000;
  if (const char* env = std::getenv("RODB_BENCH_TUPLES")) {
    tuples = static_cast<uint64_t>(std::atoll(env));
  }
  uint64_t batch = 1024;
  uint64_t segments = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tuples=", 9) == 0) {
      tuples = static_cast<uint64_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = static_cast<uint64_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--segments=", 11) == 0) {
      segments = static_cast<uint64_t>(std::atoll(argv[i] + 11));
    } else {
      std::fprintf(stderr,
                   "usage: ingest_merge [--tuples=N] [--batch=N]"
                   " [--segments=N]\n");
      return 2;
    }
  }
  RODB_CHECK(tuples > 0 && batch > 0 && segments > 0);

  std::string dir;
  bool scratch = false;
  if (const char* env = std::getenv("RODB_BENCH_DIR")) {
    dir = env;
    std::filesystem::create_directories(dir);
  } else {
    char tmpl[] = "/tmp/rodb_ingest_merge_XXXXXX";
    RODB_CHECK(mkdtemp(tmpl) != nullptr);
    dir = tmpl;
    scratch = true;
  }

  std::fprintf(stderr,
               "ingest_merge: %llu tuples, batch %llu, %llu segments,"
               " dir %s\n",
               static_cast<unsigned long long>(tuples),
               static_cast<unsigned long long>(batch),
               static_cast<unsigned long long>(segments), dir.c_str());

  {
    auto opened = Database::Open(dir);
    RODB_CHECK(opened.ok());
    Database db = std::move(*opened);

    // Phase 1: append throughput.
    BuildTable(&db, "stream", tuples, batch, segments);
    std::shared_ptr<IngestStore> store = db.ingest("stream");

    // Phase 2: query latency against the idle store.
    QueryPhase idle;
    auto idle_start = std::chrono::steady_clock::now();
    RunQueries(&db, "stream", nullptr, /*max_queries=*/64, &idle);
    PrintQueryPoint("idle", &idle, Seconds(idle_start));

    // Phase 3: the first merge folds all frozen segments; queries run
    // alongside it and every later merge until the p99 has its samples.
    QueryPhase busy;
    auto busy_start = std::chrono::steady_clock::now();
    const double merge_seconds = MergeUnderQueries(&db, store.get(), &busy);
    std::printf(
        "{\"bench\":\"ingest_merge\",\"phase\":\"merge\","
        "\"tuples\":%llu,\"segments\":%llu,\"seconds\":%.3f,"
        "\"tuples_per_sec\":%.0f}\n",
        static_cast<unsigned long long>(tuples),
        static_cast<unsigned long long>(segments), merge_seconds,
        static_cast<double>(tuples) / merge_seconds);
    std::fflush(stdout);
    Random rng(11);
    const uint64_t segment_tuples = std::max<uint64_t>(1, tuples / segments);
    while (busy.errors == 0 &&
           SamplesBeyond(busy.latencies_ms.size(), 0.99) < kTailSamples) {
      AppendMore(store.get(), &rng, segment_tuples, batch);
      MergeUnderQueries(&db, store.get(), &busy);
    }
    PrintQueryPoint("background", &busy, Seconds(busy_start));

    db.ConfigureEngine(EngineOptions());  // shut down before cleanup
  }

  if (scratch) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return 0;
}
