#include "wos/ingest_store.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "engine/table_cursor.h"
#include "io/durable_file.h"
#include "obs/metrics.h"
#include "storage/table_files.h"

namespace rodb {

namespace {

struct IngestMetrics {
  obs::Counter* appends;
  obs::Counter* batches;
  obs::Counter* freezes;
  obs::Counter* frozen_tuples;
  obs::Counter* merges;
  obs::Counter* merged_tuples;
  obs::Counter* merge_failures;
  obs::Counter* snapshots;
  obs::Counter* tables_retired;
  obs::Gauge* active_tuples;
  obs::Gauge* frozen_segments;

  static IngestMetrics& Get() {
    static IngestMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Default();
      IngestMetrics metrics;
      metrics.appends = reg.GetCounter("rodb.ingest.appends");
      metrics.batches = reg.GetCounter("rodb.ingest.batches");
      metrics.freezes = reg.GetCounter("rodb.ingest.freezes");
      metrics.frozen_tuples = reg.GetCounter("rodb.ingest.frozen_tuples");
      metrics.merges = reg.GetCounter("rodb.ingest.merges");
      metrics.merged_tuples = reg.GetCounter("rodb.ingest.merged_tuples");
      metrics.merge_failures = reg.GetCounter("rodb.ingest.merge_failures");
      metrics.snapshots = reg.GetCounter("rodb.ingest.snapshots");
      metrics.tables_retired = reg.GetCounter("rodb.ingest.tables_retired");
      metrics.active_tuples = reg.GetGauge("rodb.ingest.active_tuples");
      metrics.frozen_segments = reg.GetGauge("rodb.ingest.frozen_segments");
      return metrics;
    }();
    return m;
  }
};

std::string SegmentName(const std::string& table, uint64_t id) {
  return table + "__seg" + std::to_string(id);
}

std::string GenerationName(const std::string& table, uint64_t gen) {
  return table + "__gen" + std::to_string(gen);
}

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// True when `name` is a segment or generation table of `table`
/// (`<table>__seg<N>` / `<table>__gen<N>`).
bool IsLifecycleTable(const std::string& table, std::string_view name) {
  for (const char* infix : {"__seg", "__gen"}) {
    const std::string prefix = table + infix;
    if (name.size() > prefix.size() && name.substr(0, prefix.size()) == prefix &&
        AllDigits(name.substr(prefix.size()))) {
      return true;
    }
  }
  return false;
}

/// A committed table's data files must be exactly the sizes its meta
/// recorded: anything else is a torn or lost write that slipped past
/// the sync discipline (it was disabled, or the device lied). The
/// manifest referenced this table, so recovery cannot silently serve
/// it -- fail loudly instead.
Status ValidateTableFiles(const OpenTable& t) {
  Status s = t.CheckFileSizes();
  if (!s.ok()) DurabilityMetrics::Get().torn_pages_detected->Increment();
  return s;
}

}  // namespace

TableLease::~TableLease() {
  if (obsolete_.load(std::memory_order_acquire)) {
    RemoveTableFiles(dir_, table_.meta().name);
    IngestMetrics::Get().tables_retired->Increment();
  }
}

IngestStore::IngestStore(std::string dir, std::string table, Schema schema,
                         IngestOptions options)
    : dir_(std::move(dir)),
      table_(std::move(table)),
      schema_(std::move(schema)),
      options_(std::move(options)),
      tuple_width_(static_cast<size_t>(schema_.raw_tuple_width())),
      active_(std::make_shared<ActiveSegment>(schema_)) {}

Result<std::unique_ptr<IngestStore>> IngestStore::Open(
    const std::string& dir, const std::string& table, const Schema& schema,
    const IngestOptions& options) {
  const size_t attr = static_cast<size_t>(options.sort_attr);
  if (options.sort_attr < 0 || attr >= schema.num_attributes() ||
      schema.attribute(attr).type != AttrType::kInt32) {
    return Status::InvalidArgument("ingest sort attribute must be int32");
  }
  std::unique_ptr<IngestStore> store(
      new IngestStore(dir, table, schema, options));

  if (IngestManifestExists(dir, table)) {
    RODB_ASSIGN_OR_RETURN(store->manifest_, LoadIngestManifest(dir, table));
    if (!store->manifest_.ros_table.empty()) {
      RODB_ASSIGN_OR_RETURN(OpenTable ros,
                            OpenTable::Open(dir, store->manifest_.ros_table));
      if (ros.schema().raw_tuple_width() != schema.raw_tuple_width() ||
          ros.schema().num_attributes() != schema.num_attributes()) {
        return Status::InvalidArgument(
            "ingest schema does not match recovered ROS");
      }
      RODB_RETURN_IF_ERROR(ValidateTableFiles(ros));
      store->ros_ = std::make_shared<TableLease>(dir, std::move(ros));
    }
    for (const std::string& seg : store->manifest_.frozen) {
      RODB_ASSIGN_OR_RETURN(OpenTable t, OpenTable::Open(dir, seg));
      RODB_RETURN_IF_ERROR(ValidateTableFiles(t));
      store->frozen_.push_back(
          std::make_shared<TableLease>(dir, std::move(t)));
    }
  } else {
    store->manifest_.table = table;
    RODB_RETURN_IF_ERROR(SaveIngestManifest(dir, store->manifest_));
  }

  // Orphan sweep: table files of a freeze or merge that died before its
  // manifest commit. Everything the manifest does not reference is, by
  // the commit protocol, garbage from a crash -- recover to the last
  // good generation by deleting it. Stale `*.tmp` files of an
  // interrupted atomic temp-write+rename (the manifest's own tmp and
  // table writers' meta tmps) are swept alongside, and the sweep itself
  // is made durable with a final directory sync.
  {
    auto& durability = DurabilityMetrics::Get();
    durability.recovery_sweeps->Increment();
    std::vector<std::string> orphans;
    std::vector<std::string> stale_tmps;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      std::string base = entry.path().filename().string();
      const size_t tmp = base.rfind(".tmp");
      const bool is_tmp = tmp != std::string::npos && tmp == base.size() - 4;
      if (is_tmp) base = base.substr(0, tmp);
      if (is_tmp && base == table + ".ingest") {
        // The manifest's own interrupted tmp; the committed manifest
        // (if any) was already loaded above.
        stale_tmps.push_back(entry.path().string());
        continue;
      }
      const size_t dot = base.rfind('.');
      if (dot == std::string::npos) continue;
      base = base.substr(0, dot);
      if (!IsLifecycleTable(table, base)) continue;
      // Any tmp in this table's namespace is dead weight whether its
      // base table survived or not -- a completed save renames the tmp
      // away, so finding one means the save was interrupted.
      if (is_tmp) stale_tmps.push_back(entry.path().string());
      if (base == store->manifest_.ros_table) continue;
      if (std::find(store->manifest_.frozen.begin(),
                    store->manifest_.frozen.end(),
                    base) != store->manifest_.frozen.end()) {
        continue;
      }
      if (is_tmp) continue;  // swept via stale_tmps
      if (std::find(orphans.begin(), orphans.end(), base) == orphans.end()) {
        orphans.push_back(base);
      }
    }
    for (const std::string& stale : stale_tmps) {
      DurableEnv::Default()->Remove(stale);
      durability.tmp_files_swept->Increment();
    }
    for (const std::string& orphan : orphans) RemoveTableFiles(dir, orphan);
    if (FsyncAt(FsyncLevel::kCommit)) {
      RODB_RETURN_IF_ERROR(DurableEnv::Default()->SyncDir(dir));
    }
  }

  {
    std::lock_guard<std::mutex> lock(store->mu_);
    store->PublishLocked();
    // Lifetime appended count resumes at what the manifest recovered
    // (the active segment is volatile, so anything past this is gone).
    store->appended_ = store->state_->base_tuples;
  }
  return store;
}

IngestStore::~IngestStore() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  merge_cv_.wait(lock, [this] { return !merge_inflight_; });
}

void IngestStore::PublishLocked() {
  auto state = std::make_shared<Snapshot::State>();
  state->epoch = manifest_.epoch;
  state->schema = schema_;
  state->ros = ros_;
  state->frozen = frozen_;
  uint64_t base = ros_ == nullptr ? 0 : ros_->table().meta().num_tuples;
  for (const auto& lease : frozen_) base += lease->table().meta().num_tuples;
  for (const auto& seg : sealed_) {
    ActiveView view = seg->View();
    base += view.count();
    state->sealed.push_back(std::move(view));
  }
  state->base_tuples = base;
  state_ = std::move(state);
  IngestMetrics::Get().frozen_segments->Set(
      static_cast<int64_t>(frozen_.size()));
}

Status IngestStore::Append(const uint8_t* raw_tuple) {
  bool want_freeze = false;
  uint64_t active_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_count = active_->Append(raw_tuple);
    ++appended_;
    want_freeze =
        options_.freeze_tuples > 0 && active_count >= options_.freeze_tuples;
  }
  auto& metrics = IngestMetrics::Get();
  metrics.appends->Increment();
  metrics.active_tuples->Set(static_cast<int64_t>(active_count));
  if (!want_freeze) return Status::OK();
  // Opportunistic auto-freeze: if another freeze (or one blocked behind
  // a slow disk) is in progress, keep ingesting into the active segment
  // instead of queueing up behind it -- appends must never stall on
  // lifecycle I/O.
  if (freeze_mu_.try_lock()) {
    std::lock_guard<std::mutex> freeze_lock(freeze_mu_, std::adopt_lock);
    RODB_RETURN_IF_ERROR(FreezeLocked());
  }
  return Status::OK();
}

Status IngestStore::AppendBatch(const uint8_t* raw_tuples, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    RODB_RETURN_IF_ERROR(Append(raw_tuples + i * tuple_width_));
  }
  IngestMetrics::Get().batches->Increment();
  return Status::OK();
}

Snapshot IngestStore::Acquire() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.state_ = state_;
    snap.active_ = active_->View();
  }
  snap.visible_ = snap.state_->base_tuples + snap.active_.count();
  IngestMetrics::Get().snapshots->Increment();
  return snap;
}

bool IngestStore::SealActiveLocked() {
  if (active_->size() == 0) return false;
  sealed_.push_back(active_);
  active_ = std::make_shared<ActiveSegment>(schema_);
  PublishLocked();
  return true;
}

Status IngestStore::Freeze() {
  std::lock_guard<std::mutex> freeze_lock(freeze_mu_);
  return FreezeLocked();
}

Status IngestStore::FreezeLocked() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SealActiveLocked();
  }
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (sealed_.empty()) break;
    }
    RODB_RETURN_IF_ERROR(PersistOldestSealed());
  }
  MaybeAutoMerge();
  return Status::OK();
}

Status IngestStore::PersistOldestSealed() {
  std::shared_ptr<ActiveSegment> seg;
  uint64_t seg_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seg = sealed_.front();
    seg_id = manifest_.next_segment_id;
  }
  const ActiveView view = seg->View();
  const std::string name = SegmentName(table_, seg_id);

  // Build phase: sort by the clustering key (stable, so append order
  // breaks ties -- the invariant that makes any merge of segments equal
  // a from-scratch stable sort of the whole append sequence) and write
  // a normal compressed table with zone maps.
  Status built = [&]() -> Status {
    RODB_RETURN_IF_ERROR(CheckFail("freeze.write"));
    const int key_offset =
        schema_.attr_offset(static_cast<size_t>(options_.sort_attr));
    std::vector<uint64_t> order(view.count());
    std::iota(order.begin(), order.end(), uint64_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](uint64_t a, uint64_t b) {
                       return LoadLE32s(view.tuple(a) + key_offset) <
                              LoadLE32s(view.tuple(b) + key_offset);
                     });
    RODB_ASSIGN_OR_RETURN(
        std::unique_ptr<TableWriter> writer,
        TableWriter::Create(dir_, name, schema_, options_.layout,
                            options_.page_size));
    for (uint64_t i : order) {
      RODB_RETURN_IF_ERROR(writer->Append(view.tuple(i)));
    }
    return writer->Finish();
  }();
  if (!built.ok()) {
    RemoveTableFiles(dir_, name);
    return built;
  }

  // Commit phase: the manifest swap is the only durable state change;
  // everything before it is invisible (and swept as an orphan after a
  // crash), everything after is the new truth.
  Status committed = [&]() -> Status {
    RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir_, name));
    auto lease = std::make_shared<TableLease>(dir_, std::move(table));
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    RODB_RETURN_IF_ERROR(CheckFail("freeze.commit"));
    IngestManifest next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      next = manifest_;
    }
    next.frozen.push_back(name);
    next.next_segment_id = seg_id + 1;
    next.epoch += 1;
    RODB_RETURN_IF_ERROR(SaveIngestManifest(dir_, next));
    std::lock_guard<std::mutex> lock(mu_);
    manifest_ = std::move(next);
    frozen_.push_back(std::move(lease));
    sealed_.erase(sealed_.begin());
    PublishLocked();
    return Status::OK();
  }();
  if (!committed.ok()) {
    RemoveTableFiles(dir_, name);
    return committed;
  }
  auto& metrics = IngestMetrics::Get();
  metrics.freezes->Increment();
  metrics.frozen_tuples->Add(view.count());
  return Status::OK();
}

Status IngestStore::Merge(const QueryContext* context) {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  return MergeLocked(context);
}

Status IngestStore::MergeLocked(const QueryContext* context) {
  // Capture the inputs: the current ROS plus every frozen segment
  // committed so far. Freezes that commit while this merge runs append
  // past `frozen_count` and simply survive into the next merge.
  std::shared_ptr<TableLease> old_ros;
  std::vector<std::shared_ptr<TableLease>> inputs;
  uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_ros = ros_;
    inputs = frozen_;
    gen = manifest_.generation;
  }
  if (inputs.empty()) return Status::OK();
  const size_t frozen_count = inputs.size();

  std::vector<const OpenTable*> tables;
  if (old_ros != nullptr) tables.push_back(&old_ros->table());
  for (const auto& lease : inputs) tables.push_back(&lease->table());
  uint64_t input_tuples = 0;
  for (const OpenTable* t : tables) input_tuples += t->meta().num_tuples;

  // Every failure past the no-op early-out above is a failed merge and
  // must show up in rodb.ingest.merge_failures -- the fuzz harness
  // reconciles the counter exactly against its lifecycle model.
  const auto failed = [](Status s) {
    IngestMetrics::Get().merge_failures->Increment();
    return s;
  };
  if (Status s = CheckFail("merge.read"); !s.ok()) return failed(s);

  // One pass: a stable k-way merge over one streaming cursor per input
  // (smallest key wins, lower input index wins ties -- input 0 is the
  // ROS, then the segments oldest first) into the next generation. Each
  // cursor reserves its page buffers against the context's budget, so
  // the merge holds pages, never whole inputs.
  const std::string name = GenerationName(table_, gen + 1);
  Status built = [&]() -> Status {
    const size_t n = tables.size();
    std::vector<std::unique_ptr<TableCursor>> cursors;
    for (const OpenTable* t : tables) {
      RODB_ASSIGN_OR_RETURN(std::unique_ptr<TableCursor> cursor,
                            TableCursor::Open(*t, context));
      cursors.push_back(std::move(cursor));
    }
    RODB_RETURN_IF_ERROR(CheckFail("merge.write"));
    RODB_ASSIGN_OR_RETURN(
        std::unique_ptr<TableWriter> writer,
        TableWriter::Create(dir_, name, schema_, options_.layout,
                            options_.page_size));
    const int key_offset =
        schema_.attr_offset(static_cast<size_t>(options_.sort_attr));
    std::vector<const TupleBlock*> blocks(n, nullptr);
    std::vector<uint32_t> pos(n, 0);
    using Head = std::pair<int32_t, size_t>;  // (key, input)
    std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
    // Moves input i to its next tuple and queues it, unless drained.
    const auto advance = [&](size_t i) -> Status {
      if (blocks[i] == nullptr || ++pos[i] == blocks[i]->size()) {
        RODB_ASSIGN_OR_RETURN(blocks[i], cursors[i]->Next());
        pos[i] = 0;
        if (blocks[i] == nullptr) return Status::OK();
      }
      heap.emplace(LoadLE32s(blocks[i]->tuple(pos[i]) + key_offset), i);
      return Status::OK();
    };
    for (size_t i = 0; i < n; ++i) RODB_RETURN_IF_ERROR(advance(i));
    uint64_t appended = 0;
    while (!heap.empty()) {
      const size_t i = heap.top().second;
      heap.pop();
      if ((appended++ & 0xFFF) == 0 && context != nullptr) {
        RODB_RETURN_IF_ERROR(context->CheckAlive());
      }
      RODB_RETURN_IF_ERROR(writer->Append(blocks[i]->tuple(pos[i])));
      RODB_RETURN_IF_ERROR(advance(i));
    }
    return writer->Finish();
  }();
  if (!built.ok()) {
    RemoveTableFiles(dir_, name);
    return failed(built);
  }

  Status committed = [&]() -> Status {
    RODB_RETURN_IF_ERROR(CheckFail("merge.commit"));
    RODB_ASSIGN_OR_RETURN(OpenTable table, OpenTable::Open(dir_, name));
    auto lease = std::make_shared<TableLease>(dir_, std::move(table));
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    IngestManifest next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      next = manifest_;
    }
    next.generation = gen + 1;
    next.ros_table = name;
    next.frozen.erase(next.frozen.begin(),
                      next.frozen.begin() +
                          static_cast<ptrdiff_t>(frozen_count));
    next.epoch += 1;
    RODB_RETURN_IF_ERROR(SaveIngestManifest(dir_, next));
    std::lock_guard<std::mutex> lock(mu_);
    manifest_ = std::move(next);
    if (ros_ != nullptr) ros_->MarkObsolete();
    for (size_t i = 0; i < frozen_count; ++i) frozen_[i]->MarkObsolete();
    frozen_.erase(frozen_.begin(),
                  frozen_.begin() + static_cast<ptrdiff_t>(frozen_count));
    ros_ = std::move(lease);
    PublishLocked();
    return Status::OK();
  }();
  if (!committed.ok()) {
    RemoveTableFiles(dir_, name);
    return failed(committed);
  }
  auto& metrics = IngestMetrics::Get();
  metrics.merges->Increment();
  metrics.merged_tuples->Add(input_tuples);
  return Status::OK();
}

bool IngestStore::TriggerMerge() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || merge_inflight_) return false;
    merge_inflight_ = true;
  }
  ThreadPool::Shared()->Submit([this] {
    QueryContext ctx;
    if (options_.merge_timeout.count() > 0) {
      ctx.set_deadline(std::chrono::steady_clock::now() +
                       options_.merge_timeout);
    }
    const Status s = Merge(&ctx);
    // Everything after the flag flip must not touch `this`: the
    // destructor is free to run as soon as the waiter under mu_ sees
    // merge_inflight_ == false.
    std::lock_guard<std::mutex> lock(mu_);
    last_merge_status_ = s;
    merge_inflight_ = false;
    merge_cv_.notify_all();
  });
  return true;
}

void IngestStore::WaitMergeIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  merge_cv_.wait(lock, [this] { return !merge_inflight_; });
}

Status IngestStore::last_merge_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_merge_status_;
}

void IngestStore::MaybeAutoMerge() {
  bool want = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    want = options_.merge_segments > 0 &&
           frozen_.size() >= options_.merge_segments;
  }
  if (want) TriggerMerge();
}

uint64_t IngestStore::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t IngestStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.epoch;
}

}  // namespace rodb
