#include "crash_harness.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "io/durable_file.h"
#include "io/sync_point.h"
#include "server/query_request.h"
#include "storage/database.h"

namespace rodb::crash {

namespace {

Status Violation(const std::string& what) {
  return Status::Internal("durability violation: " + what);
}

int32_t WorkloadValue(uint64_t i) {
  // Any fixed mixing constant works; the point is that val is derivable
  // from key alone, so recovered rows are checkable in isolation.
  return static_cast<int32_t>((i * 2654435761ull) % 100000);
}

}  // namespace

Schema WorkloadSchema() {
  auto schema = Schema::Make(
      {AttributeDesc::Int32("key"), AttributeDesc::Int32("val")});
  return std::move(schema).value();
}

std::vector<uint8_t> WorkloadTuple(uint64_t i) {
  std::vector<uint8_t> t(8);
  StoreLE32s(t.data(), static_cast<int32_t>(i));
  StoreLE32s(t.data() + 4, WorkloadValue(i));
  return t;
}

IngestOptions WorkloadIngestOptions(const WorkloadOptions& options) {
  IngestOptions ingest;
  ingest.sort_attr = 0;
  ingest.layout = options.layout;
  ingest.page_size = options.page_size;
  ingest.freeze_tuples = 0;   // the schedule drives the lifecycle
  ingest.merge_segments = 0;  // no auto-merge: keep the child off the pool
  return ingest;
}

Status RunWorkload(const std::string& dir, const WorkloadOptions& options,
                   Progress* progress, const std::string& progress_path) {
  *progress = Progress{};
  RODB_ASSIGN_OR_RETURN(
      std::unique_ptr<IngestStore> store,
      IngestStore::Open(dir, options.table, WorkloadSchema(),
                        WorkloadIngestOptions(options)));
  const auto ack = [&]() -> Status {
    progress->epoch = store->epoch();
    progress->sealed_tuples = store->appended();
    if (!progress_path.empty()) {
      RODB_RETURN_IF_ERROR(SaveProgress(progress_path, *progress));
    }
    return Status::OK();
  };
  uint64_t next = 0;
  int freezes = 0;
  for (int b = 0; b < options.batches; ++b) {
    std::vector<uint8_t> batch;
    batch.reserve(static_cast<size_t>(options.batch_tuples) * 8);
    for (int i = 0; i < options.batch_tuples; ++i) {
      const std::vector<uint8_t> tuple = WorkloadTuple(next++);
      batch.insert(batch.end(), tuple.begin(), tuple.end());
    }
    RODB_RETURN_IF_ERROR(store->AppendBatch(
        batch.data(), static_cast<uint64_t>(options.batch_tuples)));
    if ((b + 1) % options.freeze_every == 0) {
      RODB_RETURN_IF_ERROR(store->Freeze());
      RODB_RETURN_IF_ERROR(ack());
      if (++freezes % 2 == 0) {
        RODB_RETURN_IF_ERROR(store->Merge());
        RODB_RETURN_IF_ERROR(ack());
      }
    }
  }
  // The tail after the last freeze stays volatile on purpose: a crash
  // may only ever drop it, never anything acknowledged above.
  return Status::OK();
}

Status SaveProgress(const std::string& path, const Progress& progress) {
  char line[96];
  std::snprintf(line, sizeof(line), "epoch %llu sealed %llu\n",
                static_cast<unsigned long long>(progress.epoch),
                static_cast<unsigned long long>(progress.sealed_tuples));
  return AtomicPublishFile(path, line);
}

Result<Progress> LoadProgress(const std::string& path) {
  if (!FileExists(path)) return Progress{};
  RODB_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  std::istringstream in(text);
  std::string k1, k2;
  Progress progress;
  if (!(in >> k1 >> progress.epoch >> k2 >> progress.sealed_tuples) ||
      k1 != "epoch" || k2 != "sealed") {
    return Status::Corruption("bad progress file: " + path);
  }
  return progress;
}

namespace {

/// Shared body of VerifyRecovery / VerifyPrefixIntegrity: reopen,
/// check the prefix property and the leak-free directory, report the
/// recovered prefix length.
Status VerifyCommon(const std::string& dir, const WorkloadOptions& options,
                    uint64_t* visible_out) {
  {
    RODB_ASSIGN_OR_RETURN(Database db, Database::Open(dir));
    RODB_RETURN_IF_ERROR(db.EnsureIngest(options.table, WorkloadSchema(),
                                         WorkloadIngestOptions(options)));
    QueryRequest request;
    request.table = options.table;
    request.collect_rows = true;
    RODB_ASSIGN_OR_RETURN(QueryResult result, db.Execute(request));
    const uint64_t visible = result.snapshot_tuples;
    if (result.rows_collected != visible) {
      return Violation("full scan returned " +
                       std::to_string(result.rows_collected) + " of " +
                       std::to_string(visible) + " visible tuples");
    }
    // The visible tuples must be exactly the append-order prefix
    // {0..K-1}: collect the keys (merges reorder rows, so compare as a
    // set) and check each value against the generator.
    std::vector<int32_t> keys;
    keys.reserve(visible);
    for (uint64_t i = 0; i < visible; ++i) {
      const uint8_t* t = result.collected_tuple(i);
      const int32_t key = LoadLE32s(t);
      if (key < 0 ||
          LoadLE32s(t + 4) != WorkloadValue(static_cast<uint64_t>(key))) {
        return Violation("tuple with key " + std::to_string(key) +
                         " recovered with a corrupt value");
      }
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (uint64_t i = 0; i < visible; ++i) {
      if (keys[i] != static_cast<int32_t>(i)) {
        return Violation("recovered keys are not the append-order prefix: "
                         "expected key " + std::to_string(i) + ", found " +
                         std::to_string(keys[i]));
      }
    }
    *visible_out = visible;
  }
  // Leak check, after the store is closed: every surviving file must be
  // the manifest or belong to a table the manifest references.
  RODB_ASSIGN_OR_RETURN(IngestManifest manifest,
                        LoadIngestManifest(dir, options.table));
  std::set<std::string> referenced;
  if (!manifest.ros_table.empty()) referenced.insert(manifest.ros_table);
  for (const std::string& seg : manifest.frozen) referenced.insert(seg);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == options.table + ".ingest") continue;
    if (name.size() > 4 && name.rfind(".tmp") == name.size() - 4) {
      return Violation("stale tmp file survived recovery: " + name);
    }
    const std::string stem = name.substr(0, name.find('.'));
    if (referenced.count(stem) == 0) {
      return Violation("orphan file survived recovery: " + name);
    }
  }
  return Status::OK();
}

}  // namespace

Status VerifyRecovery(const std::string& dir, const WorkloadOptions& options,
                      const Progress& progress) {
  uint64_t visible = 0;
  RODB_RETURN_IF_ERROR(VerifyCommon(dir, options, &visible));
  if (visible < progress.sealed_tuples) {
    return Violation("committed data lost: " + std::to_string(visible) +
                     " tuples visible, " +
                     std::to_string(progress.sealed_tuples) +
                     " were acknowledged durable");
  }
  RODB_ASSIGN_OR_RETURN(IngestManifest manifest,
                        LoadIngestManifest(dir, options.table));
  if (manifest.epoch < progress.epoch) {
    return Violation("recovered manifest epoch " +
                     std::to_string(manifest.epoch) +
                     " precedes the last acknowledged epoch " +
                     std::to_string(progress.epoch));
  }
  return Status::OK();
}

Status VerifyPrefixIntegrity(const std::string& dir,
                             const WorkloadOptions& options,
                             uint64_t* visible) {
  return VerifyCommon(dir, options, visible);
}

Result<bool> RunWorkloadKilledAt(const std::string& dir,
                                 const WorkloadOptions& options,
                                 uint64_t kill_at,
                                 const std::string& progress_path) {
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    // Child: arm the kill point, run the workload, report by exit
    // code. _exit keeps the parent's gtest/stdio state untouched.
    if (kill_at > 0) {
      auto hits = std::make_shared<std::atomic<uint64_t>>(0);
      SyncPoint::Install(
          [hits, kill_at](std::string_view, std::string_view) -> Status {
            if (hits->fetch_add(1, std::memory_order_relaxed) + 1 ==
                kill_at) {
              ::raise(SIGKILL);
            }
            return Status::OK();
          });
    }
    Progress progress;
    const Status run = RunWorkload(dir, options, &progress, progress_path);
    ::_exit(run.ok() ? 0 : 3);
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    return Status::IoError("waitpid failed");
  }
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) return true;
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return false;
  return Status::Internal(
      "crash child neither completed nor died at its kill point "
      "(wstatus " + std::to_string(wstatus) + ")");
}

}  // namespace rodb::crash
