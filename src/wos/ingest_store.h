#ifndef RODB_WOS_INGEST_STORE_H_
#define RODB_WOS_INGEST_STORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query_context.h"
#include "storage/catalog.h"
#include "storage/page.h"
#include "wos/manifest.h"
#include "wos/segment.h"

namespace rodb {

/// Tuning and test knobs for one ingest-attached table.
struct IngestOptions {
  /// int32 clustering key every segment and the ROS are sorted on.
  int sort_attr = 0;
  /// Layout/page size of frozen segments and ROS generations.
  Layout layout = Layout::kRow;
  size_t page_size = kDefaultPageSize;
  /// Auto-freeze the active segment once it holds this many tuples
  /// (0 = freeze only when Freeze() is called).
  uint64_t freeze_tuples = 64 * 1024;
  /// Auto-trigger a background merge once this many frozen segments
  /// accumulate (0 = merge only when Merge()/TriggerMerge() is called).
  size_t merge_segments = 4;
  /// Relative deadline for a background merge; zero = none.
  std::chrono::milliseconds merge_timeout{0};
  /// Fault-injection hook for the freeze/merge lifecycle: called at the
  /// named points "freeze.write", "freeze.commit", "merge.read",
  /// "merge.write", "merge.commit"; a non-OK return fails the step
  /// right there (and a blocking hook parks it there), which is how the
  /// crash-recovery and merge-never-blocks-ingest tests steer the
  /// lifecycle. Null = no-op.
  std::function<Status(std::string_view point)> fail_point;
};

/// An open table plus deferred file retirement: when a merge supersedes
/// a ROS generation or folds a frozen segment in, the old files must
/// outlive every snapshot still reading them. The lease is shared by
/// the store's published state and by all snapshots; MarkObsolete()
/// arms it, and the last owner's destructor removes the files.
class TableLease {
 public:
  TableLease(std::string dir, OpenTable table)
      : dir_(std::move(dir)), table_(std::move(table)) {}
  ~TableLease();
  TableLease(const TableLease&) = delete;
  TableLease& operator=(const TableLease&) = delete;

  const OpenTable& table() const { return table_; }
  void MarkObsolete() { obsolete_.store(true, std::memory_order_release); }

 private:
  std::string dir_;
  OpenTable table_;
  std::atomic<bool> obsolete_{false};
};

/// An epoch-pinned, immutable view of one ingest table: the ROS
/// generation, the frozen segments, any sealed-but-not-yet-persisted
/// in-memory segments, and the active segment up to its watermark at
/// acquisition. Reading the parts in that order visits every visible
/// tuple exactly once; because the writer appends in one total order
/// and freeze/merge preserve the multiset, the visible tuples are
/// always exactly the first visible_tuples() ever appended -- the
/// prefix property the snapshot-consistency oracle checks against.
///
/// Cheap to copy; holds leases, so table files it references stay on
/// disk until the last copy is gone.
class Snapshot {
 public:
  Snapshot() = default;

  /// Manifest epoch at acquisition (bumped by each freeze/merge commit).
  uint64_t epoch() const { return state_ == nullptr ? 0 : state_->epoch; }
  /// Total tuples this snapshot sees = the append-order prefix length.
  uint64_t visible_tuples() const { return visible_; }
  const Schema& schema() const { return state_->schema; }

  /// Current ROS generation, or null before the first merge commits.
  const OpenTable* ros() const {
    return state_ == nullptr || state_->ros == nullptr
               ? nullptr
               : &state_->ros->table();
  }
  size_t num_frozen() const {
    return state_ == nullptr ? 0 : state_->frozen.size();
  }
  /// Frozen segments, oldest first.
  const OpenTable& frozen(size_t i) const { return state_->frozen[i]->table(); }
  size_t num_sealed() const {
    return state_ == nullptr ? 0 : state_->sealed.size();
  }
  /// In-memory segments sealed by a freeze whose disk write has not
  /// committed yet, oldest first (newer than every frozen segment).
  const ActiveView& sealed(size_t i) const { return state_->sealed[i]; }
  const ActiveView& active() const { return active_; }

 private:
  friend class IngestStore;
  struct State {
    uint64_t epoch = 0;
    Schema schema;
    std::shared_ptr<TableLease> ros;
    std::vector<std::shared_ptr<TableLease>> frozen;
    std::vector<ActiveView> sealed;
    /// Tuples in ros + frozen + sealed (everything but the active
    /// segment).
    uint64_t base_tuples = 0;
  };
  std::shared_ptr<const State> state_;
  ActiveView active_;
  uint64_t visible_ = 0;
};

/// The continuous-ingest lifecycle for one table (Figure 1's dashed
/// write-optimized store grown into a segment pipeline):
///
///   Append --> active (in-memory, chunked)
///     Freeze: seal active, sort by the clustering key, write an
///             immutable frozen segment table `<table>__seg<N>` with
///             the normal TableWriter/codec/zone-map machinery, commit
///             it into the manifest
///     Merge:  k-way-merge ROS + frozen segments into a new generation
///             `<table>__gen<G>`, commit by one atomic manifest swap,
///             retire the inputs once the last snapshot drains
///
/// Appends never wait for a running merge: the merge reads and writes
/// table files without the state lock, and takes it only for the
/// pointer swaps that publish its result. Readers call Acquire() and
/// scan the snapshot; consistency is by construction (immutable parts +
/// watermark), not by blocking.
///
/// Thread-safe: one logical writer (Append/Freeze may be called from
/// any thread but are internally serialized), any number of concurrent
/// Acquire()s, at most one merge in flight.
class IngestStore {
 public:
  /// Creates the table's manifest (first open) or recovers from the
  /// last committed one: referenced tables are opened, unreferenced
  /// `<table>__seg*` / `<table>__gen*` leftovers of a crashed freeze or
  /// merge are swept away. The active segment always starts empty --
  /// like the paper's WOS it is volatile.
  static Result<std::unique_ptr<IngestStore>> Open(
      const std::string& dir, const std::string& table, const Schema& schema,
      const IngestOptions& options = {});

  /// Waits for an in-flight background merge.
  ~IngestStore();
  IngestStore(const IngestStore&) = delete;
  IngestStore& operator=(const IngestStore&) = delete;

  /// Appends one raw tuple (attribute bytes back to back). May trigger
  /// an auto-freeze (inline) and an auto-merge (background).
  Status Append(const uint8_t* raw_tuple);
  /// Appends `count` tuples stored back to back.
  Status AppendBatch(const uint8_t* raw_tuples, uint64_t count);

  /// Epoch-pinned read view; never blocks on freeze or merge I/O.
  Snapshot Acquire() const;

  /// Persists every sealed in-memory segment (sealing the active one
  /// first if non-empty) as frozen segment tables, committing each into
  /// the manifest. On failure the unsealed tail stays in memory and
  /// visible; a later Freeze() retries.
  Status Freeze();

  /// Synchronously merges the current ROS + frozen segments into the
  /// next generation in one streaming pass. No-op when there is nothing
  /// to fold. `context` carries deadline/cancellation and (optionally)
  /// the memory budget the inputs' page buffers are reserved against --
  /// a fixed amount per input file, independent of table size.
  Status Merge(const QueryContext* context = nullptr);

  /// Starts Merge() on the shared thread pool unless one is already in
  /// flight; returns whether a merge was started. The merge's context
  /// gets options().merge_timeout.
  bool TriggerMerge();
  /// Blocks until no background merge is in flight.
  void WaitMergeIdle();
  /// Status of the most recently finished merge (OK if none ran).
  Status last_merge_status() const;

  uint64_t appended() const;
  uint64_t epoch() const;
  const Schema& schema() const { return schema_; }
  const std::string& table() const { return table_; }
  const std::string& dir() const { return dir_; }
  const IngestOptions& options() const { return options_; }

 private:
  IngestStore(std::string dir, std::string table, Schema schema,
              IngestOptions options);

  Status CheckFail(std::string_view point) const {
    return options_.fail_point == nullptr ? Status::OK()
                                          : options_.fail_point(point);
  }
  /// Freeze body (freeze_mu_ held).
  Status FreezeLocked();
  /// Rebuilds the published state from the locked fields (mu_ held).
  void PublishLocked();
  /// Seals the active segment into the sealed queue (mu_ held); returns
  /// whether anything was sealed.
  bool SealActiveLocked();
  /// Writes the oldest sealed segment as `<table>__seg<id>` and commits
  /// it (freeze_mu_ held).
  Status PersistOldestSealed();
  Status MergeLocked(const QueryContext* context);
  void MaybeAutoMerge();

  const std::string dir_;
  const std::string table_;
  const Schema schema_;
  const IngestOptions options_;
  const size_t tuple_width_;

  /// Serializes freezes (seal + segment write + commit) against each
  /// other; never held while waiting on a merge.
  std::mutex freeze_mu_;
  /// Serializes merges. Appends and Acquire never take it.
  std::mutex merge_mu_;
  /// Serializes manifest read-modify-write commits (freeze vs merge).
  std::mutex commit_mu_;

  /// Guards everything below; held only for in-memory work (appends,
  /// snapshot acquisition, state swaps) -- never across file I/O.
  mutable std::mutex mu_;
  mutable std::condition_variable merge_cv_;
  IngestManifest manifest_;
  std::shared_ptr<ActiveSegment> active_;
  /// Sealed in-memory segments awaiting persistence, oldest first.
  std::vector<std::shared_ptr<ActiveSegment>> sealed_;
  std::shared_ptr<TableLease> ros_;
  std::vector<std::shared_ptr<TableLease>> frozen_;
  std::shared_ptr<const Snapshot::State> state_;
  uint64_t appended_ = 0;
  bool merge_inflight_ = false;
  bool shutdown_ = false;
  Status last_merge_status_;
};

}  // namespace rodb

#endif  // RODB_WOS_INGEST_STORE_H_
