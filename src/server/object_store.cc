#include "server/object_store.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/stopwatch.h"

namespace hpm {

std::string ShardQueryFaultSite(int shard) {
  return "server/shard_query:" + std::to_string(shard);
}

namespace {

/// The kNN result order, shared by each lane's top n and the merge:
/// nearer to `target` first, then lower id.
auto NearerFirst(const Point& target) {
  return [&target](const RangeHit& a, const RangeHit& b) {
    const double da = SquaredDistance(a.prediction.location, target);
    const double db = SquaredDistance(b.prediction.location, target);
    if (da != db) return da < db;
    return a.id < b.id;
  };
}

}  // namespace

MovingObjectStore::MovingObjectStore(ObjectStoreOptions options)
    : options_(std::move(options)),
      metrics_registry_(std::make_unique<MetricsRegistry>()) {
  HPM_CHECK(options_.min_training_periods >= 1);
  HPM_CHECK(options_.rebuild.miner.window_periods >= 1 &&
            options_.rebuild.miner.window_periods <=
                IncrementalMiner::kMaxWindowPeriods);
  HPM_CHECK(options_.recent_window >= 2);
  HPM_CHECK(options_.num_shards >= 1);
  HPM_CHECK(options_.query_threads >= 0);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  ThreadPoolOptions pool_options;
  pool_options.num_threads = options_.query_threads > 0
                                 ? options_.query_threads
                                 : ThreadPool::DefaultThreadCount();
  pool_options.max_queue_depth = options_.max_pool_queue;
  pool_ = std::make_unique<ThreadPool>(pool_options);
  admission_ = std::make_unique<AdmissionController>(options_.admission);
  metrics_ = std::make_unique<StoreMetrics>(metrics_registry_.get());
  wal_disabled_ = std::make_unique<std::atomic<bool>>(false);
  generation_ = std::make_unique<std::atomic<uint64_t>>(0);
  EpochOptions epoch_options;
  epoch_options.pinned_counter = metrics_->epoch_pinned;
  epoch_options.retired_counter = metrics_->epoch_retired;
  epoch_options.freed_counter = metrics_->epoch_freed;
  epoch_ = std::make_unique<EpochManager>(epoch_options);
  if (!options_.durability.wal_dir.empty()) {
    // A journal that cannot be opened degrades the store to non-durable
    // serving instead of failing construction — disk faults degrade.
    if (Status ready = InitWal(/*base_gen=*/0); !ready.ok()) {
      DisableWal(ready);
    }
  }
}

Status MovingObjectStore::InitWal(uint64_t base_gen) {
  const std::string& dir = options_.durability.wal_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::DataLoss("cannot create wal directory " + dir + ": " +
                            ec.message());
  }
  WalWriterOptions wal_options;
  wal_options.sync_policy = options_.durability.sync_policy;
  wal_options.sync_interval = options_.durability.sync_interval;
  wal_options.clock = options_.durability.clock;
  wal_options.max_segment_bytes = options_.durability.max_segment_bytes;
  // Continue each shard's sequence past whatever is already on disk —
  // recovered segments are never appended to, only replayed.
  std::vector<uint64_t> next_seq(shards_.size(), 0);
  for (const WalSegmentInfo& info : ListWalSegments(dir)) {
    if (info.shard >= 0 &&
        static_cast<size_t>(info.shard) < next_seq.size()) {
      next_seq[static_cast<size_t>(info.shard)] =
          std::max(next_seq[static_cast<size_t>(info.shard)], info.seq + 1);
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    StatusOr<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir, static_cast<int>(i), next_seq[i], base_gen,
                        wal_options);
    if (!writer.ok()) {
      return writer.status().Annotate("wal open shard " + std::to_string(i));
    }
    std::lock_guard<std::mutex> lock(shards_[i]->write_mutex);
    shards_[i]->wal = std::move(*writer);
  }
  return Status::OK();
}

void MovingObjectStore::WalAppend(Shard& shard, const WalRecord& record) {
  if (shard.wal == nullptr ||
      wal_disabled_->load(std::memory_order_relaxed)) {
    return;
  }
  bool synced = false;
  if (Status appended = shard.wal->Append(record, &synced);
      !appended.ok()) {
    DisableWal(appended.Annotate("wal append"));
    return;
  }
  metrics_->wal_appended->Increment();
  if (synced) metrics_->wal_synced->Increment();
}

void MovingObjectStore::DisableWal(const Status& cause) const {
  (void)cause;  // the health flag + metric are the diagnostic surface
  bool expected = false;
  if (wal_disabled_->compare_exchange_strong(expected, true,
                                             std::memory_order_relaxed)) {
    metrics_->wal_disabled->Increment();
  }
}

uint64_t MovingObjectStore::ApplyWalRecord(const WalRecord& record) {
  // Crash replay tolerates everything ApplyReplicated refuses: covered
  // records (overlapping rotated segments) and gaps (stale segments)
  // are simply not applied.
  const StatusOr<bool> applied = ApplyReplicated(record);
  return applied.ok() && *applied ? 1 : 0;
}

StatusOr<bool> MovingObjectStore::ApplyReplicated(const WalRecord& record) {
  Shard& shard = ShardFor(record.id);
  if (record.type == WalRecord::Type::kRejected) {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    ++shard.rejected_reports[record.id];
    WalAppend(shard, record);
    return true;
  }
  if (record.type == WalRecord::Type::kRejectedBaseline) {
    // Save-time tally seed: the snapshot this segment sits on top of
    // doesn't carry rejection counts, so the baseline restores them.
    // Assignment (not increment) keeps replay idempotent when several
    // baselines for the same object appear across segments.
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    if (record.t >= 0) {
      shard.rejected_reports[record.id] = static_cast<uint64_t>(record.t);
      WalAppend(shard, record);
    }
    return true;
  }
  if (!std::isfinite(record.x) || !std::isfinite(record.y) ||
      record.t < 0) {
    // Journaled reports were validated at ingest; refuse bad replays.
    return Status::InvalidArgument("malformed journal record for object " +
                                   std::to_string(record.id));
  }
  {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    auto it = shard.records.find(record.id);
    const Timestamp next =
        it == shard.records.end()
            ? 0
            : static_cast<Timestamp>(it->second->history.size());
    // t < next: the local state already contains this record (segments
    // rotated out mid-save overlap the generation that covered them;
    // replication re-delivers across follower restarts).
    if (record.t < next) return false;
    // t > next: a gap from a stale, retired or wrongly ordered segment —
    // never fabricate history. A follower getting this must resync.
    if (record.t > next) {
      return Status::OutOfRange(
          "journal gap for object " + std::to_string(record.id) +
          ": record t=" + std::to_string(record.t) + ", next=" +
          std::to_string(next));
    }
    const bool created = it == shard.records.end();
    if (created) {
      it = shard.records
               .emplace(record.id,
                        std::make_unique<ObjectRecord>(record.id, NewMiner()))
               .first;
    }
    ObjectRecord& rec = *it->second;
    rec.history.Append(Point{record.x, record.y});
    rec.miner.Observe(rec.history);
    // A store with its own journal attached re-journals the applied
    // record before publishing, exactly like live ingest; during
    // LoadFromDirectory replay no writer is attached yet and this is a
    // no-op.
    WalAppend(shard, record);
    PublishView(rec, BuildView(rec));
    if (created) PublishTable(shard);
  }
  // Re-run the training thresholds exactly as live ingest would have:
  // the replayed store's models then match an uninterrupted store's.
  // A training failure leaves the history intact (thresholds re-fire on
  // the next report), so it never fails the recovery.
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kReport,
                         Deadline::Infinite());
  (void)MaybeTrain(shard, record.id, pipeline);
  return true;
}

size_t MovingObjectStore::ShardIndex(ObjectId id, size_t num_shards) {
  // splitmix64 finaliser: object ids are often sequential, and the
  // identity hash would put runs of ids on the same shard.
  uint64_t x = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

const MovingObjectStore::ObjectRecord* MovingObjectStore::ShardTable::Find(
    ObjectId id) const {
  const auto it = std::lower_bound(
      records.begin(), records.end(), id,
      [](const ObjectRecord* record, ObjectId key) { return record->id < key; });
  if (it == records.end() || (*it)->id != id) return nullptr;
  return *it;
}

const MovingObjectStore::ObjectView* MovingObjectStore::BuildView(
    const ObjectRecord& record) const {
  const size_t size = record.history.size();
  std::vector<TimedPoint> recent;
  if (size >= 2) {
    recent = record.history.RecentMovements(static_cast<Timestamp>(size) - 1,
                                            options_.recent_window);
  }
  const RmfOptions& rmf = record.predictor != nullptr
                              ? record.predictor->options().rmf
                              : options_.predictor.rmf;
  return new ObjectView(record.id, size, std::move(recent), record.predictor,
                        rmf);
}

void MovingObjectStore::PublishView(ObjectRecord& record,
                                    const ObjectView* view) {
  const ObjectView* old =
      record.view.exchange(view, std::memory_order_release);
  if (old != nullptr) epoch_->Retire(old);
}

void MovingObjectStore::PublishTable(Shard& shard) {
  auto* table = new ShardTable;
  table->records.reserve(shard.records.size());
  // The record map is id-sorted, so the table comes out Find()-able.
  for (const auto& [id, record] : shard.records) {
    table->records.push_back(record.get());
  }
  const ShardTable* old =
      shard.table.exchange(table, std::memory_order_release);
  epoch_->Retire(old);
}

const MovingObjectStore::ObjectView* MovingObjectStore::FindView(
    const Shard& shard, ObjectId id) const {
  const ShardTable* table = shard.table.load(std::memory_order_acquire);
  const ObjectRecord* record = table->Find(id);
  if (record == nullptr) return nullptr;
  return record->view.load(std::memory_order_acquire);
}

QueryPipeline::Env MovingObjectStore::PipelineEnv() const {
  QueryPipeline::Env env;
  env.admission = admission_.get();
  env.pool = pool_.get();
  env.num_shards = shards_.size();
  env.metrics = metrics_.get();
  env.degrade_queue_depth = options_.degrade_queue_depth;
  env.degrade_min_headroom = options_.degrade_min_headroom;
  env.trace_sink = options_.trace_sink ? &options_.trace_sink : nullptr;
  return env;
}

void MovingObjectStore::RecordRejectedReport(ObjectId id,
                                             QueryContext& ctx) {
  ctx.CountRejectedReport();
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  ++shard.rejected_reports[id];
  WalRecord journal;
  journal.type = WalRecord::Type::kRejected;
  journal.id = id;
  WalAppend(shard, journal);
}

uint64_t MovingObjectStore::RejectedReports(ObjectId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  const auto it = shard.rejected_reports.find(id);
  return it == shard.rejected_reports.end() ? 0 : it->second;
}

Status MovingObjectStore::Ingest(ObjectId id, const Point& location,
                                 const Timestamp* expected_t) {
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kReport,
                         Deadline::Infinite());
  QueryContext& ctx = pipeline.context();

  // Input validation precedes admission: a malformed report consumes no
  // admission token (it is rejected, not shed).
  if (expected_t != nullptr && *expected_t < 0) {
    RecordRejectedReport(id, ctx);
    return Status::InvalidArgument("report: negative timestamp");
  }
  if (!std::isfinite(location.x) || !std::isfinite(location.y)) {
    RecordRejectedReport(id, ctx);
    return Status::InvalidArgument(
        "report: non-finite coordinate rejected");
  }
  HPM_RETURN_IF_ERROR(pipeline.Admit("report"));
  pipeline.Plan(1);

  Shard& shard = ShardFor(id);
  Status appended = pipeline.RunFanOut([&]() -> Status {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    // find(), not emplace first: a rejected report for an unknown object
    // must not create a phantom entry.
    auto it = shard.records.find(id);
    if (expected_t != nullptr) {
      const Timestamp next =
          it == shard.records.end()
              ? 0
              : static_cast<Timestamp>(it->second->history.size());
      if (*expected_t != next) {
        ++shard.rejected_reports[id];
        ctx.CountRejectedReport();
        WalRecord journal;
        journal.type = WalRecord::Type::kRejected;
        journal.id = id;
        WalAppend(shard, journal);
        return Status::InvalidArgument(
            *expected_t < next
                ? "report: non-monotone timestamp (object clock is at " +
                      std::to_string(next) + ")"
                : "report: timestamp gap (object clock is at " +
                      std::to_string(next) + ")");
      }
    }
    const bool created = it == shard.records.end();
    // Journal before the epoch-published view swap: once a reader can
    // observe the report, a crash must replay it. A WAL failure here
    // degrades the store to non-durable serving — the report still lands.
    WalRecord journal;
    journal.type = WalRecord::Type::kReport;
    journal.id = id;
    journal.t = created ? 0
                        : static_cast<Timestamp>(it->second->history.size());
    journal.x = location.x;
    journal.y = location.y;
    WalAppend(shard, journal);
    if (created) {
      it = shard.records
               .emplace(id, std::make_unique<ObjectRecord>(id, NewMiner()))
               .first;
    }
    ObjectRecord& record = *it->second;
    record.history.Append(location);
    record.miner.Observe(record.history);
    // View before table: a record must never be reachable viewless.
    PublishView(record, BuildView(record));
    if (created) PublishTable(shard);
    return Status::OK();
  });
  HPM_RETURN_IF_ERROR(appended);
  HPM_RETURN_IF_ERROR(MaybeTrain(shard, id, pipeline));
  return Status::OK();
}

Status MovingObjectStore::ReportLocation(ObjectId id,
                                         const Point& location) {
  return Ingest(id, location, nullptr);
}

Status MovingObjectStore::ReportLocationAt(ObjectId id, Timestamp t,
                                           const Point& location) {
  return Ingest(id, location, &t);
}

Status MovingObjectStore::ReportTrajectory(ObjectId id,
                                           const Trajectory& trajectory) {
  for (const Point& p : trajectory.points()) {
    HPM_RETURN_IF_ERROR(ReportLocation(id, p));
  }
  return Status::OK();
}

Status MovingObjectStore::MaybeTrain(Shard& shard, ObjectId id,
                                     QueryPipeline& pipeline) {
  // Decide under the writer lock; BuildModel re-takes it to capture.
  {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    ObjectRecord& record = *shard.records.at(id);
    if (record.training_in_flight) return Status::OK();
    if (record.predictor == nullptr) {
      const size_t needed =
          static_cast<size_t>(options_.min_training_periods) *
          static_cast<size_t>(options_.predictor.regions.period);
      if (record.history.size() < needed) return Status::OK();
    } else if (record.miner.drift() < options_.rebuild.drift_threshold ||
               record.miner.window_end() <= record.consumed_samples) {
      // A trained model is refreshed only when its pattern set has
      // measurably moved, not merely when time has passed.
      return Status::OK();
    }
    // Training is the most expendable work in the system: under rung-1
    // pressure it is deferred outright — the thresholds stay satisfied,
    // so the next report after pressure clears picks it up.
    if (pipeline.ShouldShedNow(Deadline::Infinite())) {
      pipeline.context().CountDeferredTrain();
      return Status::OK();
    }
  }
  return BuildModel(shard, id, &pipeline.context().trace());
}

std::shared_ptr<const FrequentRegionSet> MovingObjectStore::SharedRegions(
    const std::shared_ptr<const HybridPredictor>& model) {
  // The handle keeps the model alive only as long as a miner still
  // points at it, and a miner moves on at every publish.
  if (model == nullptr) return nullptr;
  return std::shared_ptr<const FrequentRegionSet>(model, &model->regions());
}

IncrementalMiner MovingObjectStore::NewMiner() const {
  IncrementalMinerOptions miner_options = options_.rebuild.miner;
  // The miner must map points to regions exactly as training does, or
  // its transactions (and thus its pattern set) would diverge from what
  // a rebuild mines.
  miner_options.region_match_slack = options_.predictor.region_match_slack;
  IncrementalMiner miner(miner_options, options_.predictor.regions.period,
                         options_.predictor.mining);
  MinerMetricHooks hooks;
  hooks.transactions = metrics_->miner_transactions;
  hooks.unmatched_points = metrics_->miner_unmatched_points;
  hooks.promoted = metrics_->miner_promoted;
  hooks.demoted = metrics_->miner_demoted;
  miner.set_metric_hooks(hooks);
  return miner;
}

Status MovingObjectStore::BuildModel(Shard& shard, ObjectId id,
                                     Trace* trace) {
  // Capture under the writer lock. `training_in_flight` keeps a second
  // caller (another reporter of the same object, or FlushRebuilds) from
  // building the object concurrently; it re-checks on its next call.
  Trajectory input;
  std::shared_ptr<const HybridPredictor> previous;
  size_t consumed_at_capture = 0;
  {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    const auto it = shard.records.find(id);
    if (it == shard.records.end()) return Status::OK();
    ObjectRecord& record = *it->second;
    if (record.training_in_flight) return Status::OK();
    previous = record.predictor;
    if (previous == nullptr) {
      // Bootstrap: the first model is mined from the whole history.
      input = record.history;
    } else {
      if (record.miner.window_end() <= record.consumed_samples) {
        return Status::OK();
      }
      StatusOr<Trajectory> window = record.history.Slice(
          static_cast<Timestamp>(record.miner.window_begin()),
          static_cast<Timestamp>(record.miner.window_end()));
      if (!window.ok()) return window.status();
      input = std::move(*window);
    }
    consumed_at_capture = record.miner.window_end();
    record.training_in_flight = true;
  }

  // Mine + freeze off-lock; readers keep serving `previous` throughout.
  // Transient (kUnavailable) training failures — a wedged allocator, an
  // injected fault — are retried with backoff; the RNG is seeded from
  // the object id so schedules replay.
  ScopedSpan span(trace, "train");
  const Stopwatch timer;
  StatusOr<std::unique_ptr<HybridPredictor>> built =
      [&]() -> StatusOr<std::unique_ptr<HybridPredictor>> {
    HPM_INJECT_FAULT("rebuild/mine");
    Random retry_rng(0x74726e5f72747279ULL ^ static_cast<uint64_t>(id));
    StatusOr<std::unique_ptr<HybridPredictor>> model = RetryWithBackoff(
        RetryPolicy{}, retry_rng,
        [&]() -> StatusOr<std::unique_ptr<HybridPredictor>> {
          return HybridPredictor::Train(input, options_.predictor);
        });
    if (model.ok()) HPM_INJECT_FAULT("rebuild/freeze");
    return model;
  }();

  std::lock_guard<std::mutex> lock(shard.write_mutex);
  ObjectRecord& record = *shard.records.at(id);
  record.training_in_flight = false;
  if (built.ok()) {
    if (Status faulted = HPM_FAULT_HIT("rebuild/publish"); !faulted.ok()) {
      built = faulted;
    }
  }
  // On any failure the last-good model (if any) stays published, and
  // the threshold that called us still holds to re-request the build.
  // rebuild.* count replacements of a published model only.
  if (!built.ok()) {
    if (previous != nullptr) metrics_->rebuild_failed->Increment();
    return built.status().Annotate("train object " + std::to_string(id));
  }
  record.predictor =
      std::shared_ptr<const HybridPredictor>(std::move(*built));
  // Every build publishes a fresh frozen arena; the counter tracks total
  // bytes built so dashboards see index growth across generations.
  metrics_->tpt_frozen_bytes->Increment(
      record.predictor->summary().tpt_frozen_bytes);
  if (previous != nullptr) {
    metrics_->rebuild_completed->Increment();
    metrics_->rebuild_build_us->RecordMicros(
        static_cast<uint64_t>(timer.ElapsedMicros()));
  }
  // Adopt the new model's region vocabulary: the recount aligns the
  // miner's counts with the new universe, and drift restarts from this
  // publish.
  record.consumed_samples = consumed_at_capture;
  record.miner.AdoptRegions(SharedRegions(record.predictor), record.history);
  // The swap the readers actually see: the new model generation becomes
  // visible with this view publication, and the old view (holding the
  // previous generation's last shared handle once readers drain) heads
  // to limbo.
  PublishView(record, BuildView(record));
  return Status::OK();
}

Status MovingObjectStore::FlushRebuilds() {
  Status first = Status::OK();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<ObjectId> pending;
    {
      std::lock_guard<std::mutex> lock(shard->write_mutex);
      for (const auto& [id, record] : shard->records) {
        if (record->predictor != nullptr &&
            record->miner.window_end() > record->consumed_samples) {
          pending.push_back(id);
        }
      }
    }
    for (const ObjectId id : pending) {
      if (Status rebuilt = BuildModel(*shard, id, /*trace=*/nullptr);
          !rebuilt.ok() && first.ok()) {
        first = rebuilt;
      }
    }
  }
  return first;
}

StatusOr<MovingObjectStore::MinerSnapshot> MovingObjectStore::MinerState(
    ObjectId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  const auto it = shard.records.find(id);
  if (it == shard.records.end()) {
    return Status::NotFound("no miner for object " + std::to_string(id));
  }
  const ObjectRecord& record = *it->second;
  StatusOr<Trajectory> window = record.history.Slice(
      static_cast<Timestamp>(record.miner.window_begin()),
      static_cast<Timestamp>(record.miner.window_end()));
  if (!window.ok()) return window.status();
  MinerSnapshot snapshot;
  snapshot.drift = record.miner.drift();
  snapshot.window_end = record.miner.window_end();
  snapshot.consumed_samples = record.consumed_samples;
  snapshot.window = std::move(*window);
  snapshot.patterns = record.miner.CurrentPatterns();
  snapshot.stats = record.miner.stats();
  snapshot.memory_bytes = record.miner.MemoryBytes();
  return snapshot;
}

std::vector<ObjectId> MovingObjectStore::ObjectIds() const {
  const EpochManager::Guard guard = epoch_->Pin();
  std::vector<ObjectId> ids;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const ShardTable* table = shard->table.load(std::memory_order_acquire);
    ids.reserve(ids.size() + table->records.size());
    for (const ObjectRecord* record : table->records) {
      ids.push_back(record->id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t MovingObjectStore::NumObjects() const {
  const EpochManager::Guard guard = epoch_->Pin();
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->table.load(std::memory_order_acquire)->records.size();
  }
  return total;
}

size_t MovingObjectStore::HistoryLength(ObjectId id) const {
  const EpochManager::Guard guard = epoch_->Pin();
  const ObjectView* view = FindView(ShardFor(id), id);
  return view == nullptr ? 0 : view->history_size;
}

StatusOr<std::shared_ptr<const HybridPredictor>>
MovingObjectStore::GetPredictor(ObjectId id) const {
  const EpochManager::Guard guard = epoch_->Pin();
  const ObjectView* view = FindView(ShardFor(id), id);
  if (view == nullptr) {
    return Status::NotFound("unknown object id");
  }
  if (view->predictor == nullptr) {
    return Status::FailedPrecondition("object has no trained model yet");
  }
  return view->predictor;
}

StatusOr<std::vector<Prediction>> MovingObjectStore::PredictView(
    const ObjectView& view, Timestamp tq, int k, QueryContext& ctx,
    int lane) const {
  if (view.history_size < 2) {
    return Status::FailedPrecondition(
        "object has fewer than 2 reported locations");
  }
  if (tq <= view.now) {
    return Status::InvalidArgument(
        "query time must be after the object's last report");
  }
  ctx.CountObjectEvaluated();
  if (view.predictor == nullptr) {
    // Cold start: pure motion function until the first training
    // threshold. This is already the cheapest answer, so overload changes
    // nothing.
    Prediction prediction;
    prediction.source = PredictionSource::kMotionFunction;
    prediction.location = view.motion.Predict(tq, &ctx);
    return std::vector<Prediction>{prediction};
  }

  PredictiveQuery& query = ctx.lane(static_cast<size_t>(lane)).query;
  query.recent_movements = view.recent;
  query.current_time = view.now;
  query.query_time = tq;
  query.k = k;
  query.deadline = ctx.deadline();
  query.context = &ctx;
  query.lane = lane;
  query.motion = &view.motion;
  if (ctx.shed_to_rmf()) {
    // Rung 1: the pattern side is skipped wholesale; the answer is the
    // exact RMF prediction, visibly stamped Overloaded.
    ctx.CountDegradedPrediction();
    return view.predictor->DegradedPredict(query,
                                           DegradedReason::kOverloaded);
  }
  return view.predictor->Predict(query);
}

StatusOr<std::vector<Prediction>> MovingObjectStore::PredictLocation(
    ObjectId id, Timestamp tq, int k, Deadline deadline) const {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kPredict, deadline);
  HPM_RETURN_IF_ERROR(pipeline.Admit("predict"));
  pipeline.Plan(1);
  QueryContext& ctx = pipeline.context();

  Shard& shard = ShardFor(id);
  const ObjectView* view =
      pipeline.RunPlan([&]() -> const ObjectView* {
        // Pin before the pointer loads; the guard rides the context, so
        // the view stays live for the pipeline's whole lifetime.
        ctx.AdoptEpochGuard(epoch_->Pin());
        return FindView(shard, id);
      });
  if (view == nullptr) {
    return Status::NotFound("unknown object id");
  }
  return pipeline.RunFanOut(
      [&] { return PredictView(*view, tq, k, ctx, /*lane=*/0); });
}

std::vector<StatusOr<std::vector<Prediction>>>
MovingObjectStore::PredictLocationBatch(const std::vector<ObjectId>& ids,
                                        Timestamp tq, int k,
                                        Deadline deadline) const {
  using Result = StatusOr<std::vector<Prediction>>;

  if (k < 1) {
    return std::vector<Result>(
        ids.size(), Result(Status::InvalidArgument("k must be >= 1")));
  }
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kPredictBatch, deadline);
  // One admission ticket covers the whole batch (it is one request).
  if (Status admitted = pipeline.Admit("predict_batch"); !admitted.ok()) {
    return std::vector<Result>(ids.size(), Result(admitted));
  }
  pipeline.Plan(1);
  QueryContext& ctx = pipeline.context();

  // Plan: pin the query epoch once and resolve every id to its published
  // view (raw pointers, valid under the pin for the pipeline's life).
  std::vector<const ObjectView*> views(ids.size());
  pipeline.RunPlan([&] {
    ctx.AdoptEpochGuard(epoch_->Pin());
    for (size_t i = 0; i < ids.size(); ++i) {
      views[i] = FindView(ShardFor(ids[i]), ids[i]);
    }
  });

  // Fan the batch out in contiguous chunks of the input; each answer
  // lands at its input index.
  std::vector<std::optional<Result>> results(ids.size());
  pipeline.FanOutChunks(
      ids.size(), [&](size_t begin, size_t end, size_t lane) {
        for (size_t i = begin; i < end; ++i) {
          results[i] = views[i] == nullptr
                           ? Result(Status::NotFound("unknown object id"))
                           : PredictView(*views[i], tq, k, ctx,
                                         static_cast<int>(lane));
        }
      });

  return pipeline.RunMerge([&] {
    std::vector<Result> out;
    out.reserve(ids.size());
    for (std::optional<Result>& r : results) out.push_back(std::move(*r));
    return out;
  });
}

template <typename Pred>
bool MovingObjectStore::AnyAnswerLocation(const ObjectView& view,
                                          Timestamp tq, QueryContext& ctx,
                                          Pred&& pred) const {
  // An answer from the motion function alone costs what its bound would,
  // so there is nothing to skip.
  if (view.predictor == nullptr || ctx.shed_to_rmf()) return true;
  for (const std::span<const Point> run :
       view.predictor->PatternAnswerCentres(view.now, tq).runs) {
    for (const Point& centre : run) {
      if (pred(centre)) return true;
    }
  }
  // The RMF recurrence steps one time unit at a time up to tq. Past one
  // period it would cost more than the pattern search it could skip, so
  // the object is evaluated instead.
  if (tq - view.now > view.predictor->options().regions.period) return true;
  return pred(view.motion.Predict(tq, &ctx));
}

Status MovingObjectStore::RangeQueryShard(int shard_index,
                                          const BoundingBox& range,
                                          Timestamp tq, int k_per_object,
                                          QueryContext& ctx,
                                          std::vector<RangeHit>* hits) const {
  // A -DHPM_ENABLE_FAULTS=ON build can force this shard's share of every
  // fan-out to fail; the pipeline then answers partial without it.
  if (Status injected = HPM_FAULT_HIT(ShardQueryFaultSite(shard_index));
      !injected.ok()) {
    return injected.Annotate("shard_query");
  }
  const Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  // This lane's pin: everything loaded below stays live until the lane
  // releases (the guard lives in the lane's scratch, so even an early
  // error return stays covered until the pipeline retires the context).
  PredictScratch& scratch = ctx.lane(static_cast<size_t>(shard_index));
  scratch.epoch_guard = epoch_->Pin();
  const ShardTable* table = shard.table.load(std::memory_order_acquire);
  for (const ObjectRecord* record : table->records) {
    const ObjectView& view =
        *record->view.load(std::memory_order_acquire);
    if (view.history_size < 2 || tq <= view.now) continue;
    if (!AnyAnswerLocation(view, tq, ctx, [&range](const Point& p) {
          return range.Contains(p);
        })) {
      ctx.CountObjectsPruned();
      continue;
    }
    // The deadline travels inside the query context: once it expires,
    // each remaining object's answer degrades to the cheap RMF
    // prediction instead of the shard aborting with partial coverage.
    StatusOr<std::vector<Prediction>> predictions =
        PredictView(view, tq, k_per_object, ctx, shard_index);
    if (!predictions.ok()) {
      return predictions.status();
    }
    const Prediction* best = nullptr;
    for (const Prediction& p : *predictions) {
      if (!range.Contains(p.location)) continue;
      if (best == nullptr || p.score > best->score) best = &p;
    }
    if (best != nullptr) hits->push_back({view.id, *best});
  }
  scratch.epoch_guard.Release();
  return Status::OK();
}

Status MovingObjectStore::NearestNeighborShard(
    int shard_index, const Point& target, Timestamp tq, int n,
    QueryContext& ctx, std::vector<RangeHit>* hits) const {
  if (Status injected = HPM_FAULT_HIT(ShardQueryFaultSite(shard_index));
      !injected.ok()) {
    return injected.Annotate("shard_query");
  }
  const Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  PredictScratch& scratch = ctx.lane(static_cast<size_t>(shard_index));
  scratch.epoch_guard = epoch_->Pin();
  const ShardTable* table = shard.table.load(std::memory_order_acquire);

  // Each eligible object's nearest possible answer, visited nearest
  // first so the lane's n-th hit tightens as early as it can.
  struct Bounded {
    double distance;
    const ObjectView* view;
  };
  std::vector<Bounded> order;
  order.reserve(table->records.size());
  for (const ObjectRecord* record : table->records) {
    const ObjectView& view =
        *record->view.load(std::memory_order_acquire);
    if (view.history_size < 2 || tq <= view.now) continue;
    double nearest = std::numeric_limits<double>::infinity();
    // A predicate that never holds visits every location of the bound;
    // an object without a bound goes first and is never skipped.
    const bool unbounded =
        AnyAnswerLocation(view, tq, ctx, [&](const Point& p) {
          nearest = std::min(nearest, SquaredDistance(p, target));
          return false;
        });
    order.push_back({unbounded ? 0.0 : nearest, &view});
  }
  std::sort(order.begin(), order.end(),
            [](const Bounded& a, const Bounded& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.view->id < b.view->id;
            });

  // The lane's top n under the merge's order, as a heap whose front is
  // the current n-th.
  const auto before = NearerFirst(target);
  const size_t limit = static_cast<size_t>(n);
  for (size_t i = 0; i < order.size(); ++i) {
    if (hits->size() == limit &&
        order[i].distance >
            SquaredDistance(hits->front().prediction.location, target)) {
      // Every later object's bound is at least this far: none can enter.
      ctx.CountObjectsPruned(order.size() - i);
      break;
    }
    const ObjectView& view = *order[i].view;
    StatusOr<std::vector<Prediction>> predictions =
        PredictView(view, tq, 1, ctx, shard_index);
    if (!predictions.ok()) {
      return predictions.status();
    }
    RangeHit hit{view.id, predictions->front()};
    if (hits->size() < limit) {
      hits->push_back(std::move(hit));
      std::push_heap(hits->begin(), hits->end(), before);
    } else if (before(hit, hits->front())) {
      std::pop_heap(hits->begin(), hits->end(), before);
      hits->back() = std::move(hit);
      std::push_heap(hits->begin(), hits->end(), before);
    }
  }
  scratch.epoch_guard.Release();
  return Status::OK();
}

StatusOr<FleetQueryResult> MovingObjectStore::PredictiveRangeQuery(
    const BoundingBox& range, Timestamp tq, int k_per_object,
    Deadline deadline) const {
  if (range.IsEmpty()) {
    return Status::InvalidArgument("query range is empty");
  }
  if (k_per_object < 1) {
    return Status::InvalidArgument("k_per_object must be >= 1");
  }
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kRange, deadline);
  HPM_RETURN_IF_ERROR(pipeline.Admit("range_query"));
  pipeline.Plan(shards_.size());
  QueryContext& ctx = pipeline.context();

  FleetQueryResult result = pipeline.FanOut(
      [this, &range, tq, k_per_object, &ctx](int shard,
                                             std::vector<RangeHit>* hits) {
        return RangeQueryShard(shard, range, tq, k_per_object, ctx, hits);
      });
  pipeline.MergeRank(&result, [](const RangeHit& a, const RangeHit& b) {
    if (a.prediction.score != b.prediction.score) {
      return a.prediction.score > b.prediction.score;
    }
    return a.id < b.id;
  });
  return result;
}

StatusOr<FleetQueryResult> MovingObjectStore::PredictiveNearestNeighbors(
    const Point& target, Timestamp tq, int n, Deadline deadline) const {
  if (n < 1) {
    return Status::InvalidArgument("n must be >= 1");
  }
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kNearest, deadline);
  HPM_RETURN_IF_ERROR(pipeline.Admit("knn_query"));
  pipeline.Plan(shards_.size());
  QueryContext& ctx = pipeline.context();

  FleetQueryResult result = pipeline.FanOut(
      [this, &target, tq, n, &ctx](int shard, std::vector<RangeHit>* hits) {
        return NearestNeighborShard(shard, target, tq, n, ctx, hits);
      });
  pipeline.MergeRank(&result, NearerFirst(target), /*limit=*/n);
  return result;
}

}  // namespace hpm
