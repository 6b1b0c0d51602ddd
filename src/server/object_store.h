// MovingObjectStore: the moving-objects-database front end around
// HybridPredictor.
//
// The paper's model is per-object (patterns are mined from one object's
// history); a deployment tracks a fleet. This store ingests per-object
// location reports, bootstraps a HybridPredictor per object once enough
// periods accumulate, rebuilds it from a sliding window of recent periods
// whenever the object's incremental miner says its pattern set has
// drifted, and serves two query types:
//   * point prediction  — "where will object O be at time tq?"
//   * predictive range  — "which objects will probably be inside region
//     R at time tq?" (the query type TPR-tree-style predictive indexes
//     serve, here answered from patterns + motion fallback).
//
// Threading model (see docs/ARCHITECTURE.md §8 for the full story): the
// fleet is hash-partitioned into `num_shards` shards. The query read
// path takes NO lock: each shard publishes an immutable directory
// (ShardTable) of stable-address ObjectRecords, and each record
// publishes an immutable per-object snapshot (ObjectView); readers pin
// the store's epoch with an RAII guard, acquire-load those pointers and
// use them in place. Writers (ingest, training swaps, persistence)
// serialise on a per-shard plain mutex, publish replacement
// tables/views with release stores and Retire() the old ones through
// the EpochManager, which frees them only after every reader pinned at
// or before the retirement has unpinned. Fleet queries fan out across
// shards on an internal thread pool, and a prediction batch fans out in
// contiguous chunks of its ids on the same pool. Every public member is
// safe to call concurrently from any number of threads, except move
// construction/assignment and SaveToDirectory/LoadFromDirectory's
// returned store before it is published to other threads.

#ifndef HPM_SERVER_OBJECT_STORE_H_
#define HPM_SERVER_OBJECT_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/admission.h"
#include "common/deadline.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/exec_context.h"
#include "core/hybrid_predictor.h"
#include "core/motion_fit.h"
#include "io/wal.h"
#include "mining/incremental_miner.h"
#include "server/query_pipeline.h"
#include "server/store_types.h"

namespace hpm {

/// The fault site that fails shard `shard`'s share of every fan-out
/// query in a -DHPM_ENABLE_FAULTS=ON build: "server/shard_query:<shard>".
/// While it is armed, every range/kNN query answers partial without it.
std::string ShardQueryFaultSite(int shard);

/// Durable-ingest configuration (docs/ROBUSTNESS.md has the durability
/// matrix and the degradation contract).
struct DurabilityOptions {
  /// When non-empty, every acknowledged report is appended to a
  /// per-shard write-ahead journal under this directory *before* its
  /// epoch-published view swap makes it visible, and LoadFromDirectory
  /// replays journal segments newer than the loaded snapshot generation.
  /// Empty (the default) disables the journal entirely.
  ///
  /// Point this at a fresh directory (conventionally <store_dir>/wal)
  /// for a fresh store, and at the same directory when recovering via
  /// LoadFromDirectory; constructing a *fresh* store over a journal that
  /// belonged to different store contents is undefined.
  std::string wal_dir;

  /// When appended records reach the device (docs/ROBUSTNESS.md):
  /// every_record survives power loss, interval bounds the power-loss
  /// window, none survives process crashes only.
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryRecord;

  /// kInterval only: minimum spacing between fdatasync calls.
  std::chrono::microseconds sync_interval{50000};

  /// kInterval only: injectable time source for the spacing check
  /// (null = steady clock), so tests drive the policy deterministically.
  std::function<std::chrono::steady_clock::time_point()> clock;

  /// Per-shard segment rollover size.
  size_t max_segment_bytes = 4 * 1024 * 1024;

  /// Retention cap for <store_dir>/quarantine/: once more than this many
  /// files accumulate, the oldest are evicted. 0 = unbounded (the
  /// pre-cap behaviour).
  size_t max_quarantine_files = 64;
};

/// Model maintenance: every object carries an IncrementalMiner advanced
/// on the ingest path, and after the initial training a model is only
/// ever refreshed by a *rebuild* from the miner's window, triggered when
/// its drift score reaches `drift_threshold` (docs/ARCHITECTURE.md has
/// the counts → drift → rebuild → freeze → publish walkthrough).
struct RebuildOptions {
  /// Per-object miner configuration (window length, drift scoring).
  /// region_match_slack is overridden with the predictor's value so the
  /// miner maps points exactly as training does.
  IncrementalMinerOptions miner;

  /// Rebuild when an object's drift score reaches this. The score is a
  /// decayed sum of support-crossing and unmatched-point events, so
  /// "3.0" roughly means three recent pattern-set changes.
  double drift_threshold = 3.0;
};

/// Store configuration.
struct ObjectStoreOptions {
  /// Training / query configuration shared by every object's predictor.
  HybridPredictorOptions predictor;

  /// Train an object's first model once this many complete periods of
  /// history exist.
  int min_training_periods = 5;

  /// Recent movements handed to queries (and the motion fallback).
  int recent_window = 10;

  /// Number of hash partitions of the fleet; each shard has its own
  /// writer lock and published table, so independent shards ingest fully
  /// concurrently (reads never contend regardless). Must be >= 1.
  int num_shards = 8;

  /// Worker threads for fleet-query fan-out (range / kNN / batch).
  /// 0 = ThreadPool::DefaultThreadCount(). With 1, fan-out runs inline
  /// on the calling thread (no pool hop).
  int query_threads = 0;

  /// ---- Overload control (all defaults = off; see docs/ROBUSTNESS.md) ----

  /// Admission control consulted at every entry point (ingest and
  /// queries). The defaults admit everything; configure a rate and/or
  /// in-flight cap to make the store reject excess work with
  /// kUnavailable plus a retry-after hint (rung 2 of the ladder).
  AdmissionOptions admission;

  /// Bound on the fan-out pool's queued-but-unstarted tasks. When the
  /// queue is full, fan-out work runs inline on the calling thread
  /// (backpressure) instead of queueing unboundedly. 0 = unbounded.
  size_t max_pool_queue = 0;

  /// Rung 1 of the load-shedding ladder: once the fan-out pool's queue
  /// depth reaches this, queries skip the pattern side and answer with
  /// the RMF motion function (Prediction::degraded = kOverloaded).
  /// 0 = never degrade on queue depth.
  size_t degrade_queue_depth = 0;

  /// Rung 1, deadline-headroom trigger: a query whose deadline has less
  /// than this much time remaining is answered RMF-only immediately —
  /// the pattern side would blow the budget anyway. 0 = off.
  std::chrono::microseconds degrade_min_headroom{0};

  /// Durable ingest: write-ahead journal + quarantine retention. The
  /// default (empty wal_dir) keeps ingest memory-only between snapshots.
  DurabilityOptions durability;

  /// Drift-triggered model rebuilds.
  RebuildOptions rebuild;

  /// When set, every entry-point call records a per-query Trace (pipeline
  /// stage spans, per-object child work, counters) and hands it here from
  /// the pipeline's Account stage, on the calling thread. Unset (the
  /// default) means tracing is fully disabled and costs one branch per
  /// span site. Keep the sink cheap; it runs inside the query's latency.
  TraceSink trace_sink;
};

/// Per-object ingestion + prediction service. Thread-safe: shards, lock
/// striping and model-snapshot swaps are internal (see header comment).
class MovingObjectStore {
 public:
  explicit MovingObjectStore(ObjectStoreOptions options);

  /// Movable so LoadFromDirectory can return by value; moving a store
  /// that other threads are using is undefined (publish after moving).
  MovingObjectStore(MovingObjectStore&&) noexcept = default;
  MovingObjectStore& operator=(MovingObjectStore&&) noexcept = default;

  /// Appends one location sample for `id` at the object's next
  /// timestamp (each object's clock starts at 0 and advances by 1 per
  /// report). Training and rebuilds run on the reporting thread when
  /// their thresholds are crossed — but outside the shard lock, against
  /// a history/model snapshot, so concurrent readers of the same shard
  /// are never blocked behind mining; their errors propagate. Concurrent reports for the *same* object are safe but
  /// their relative order (and thus the object's trajectory) is up to
  /// the scheduler; give each object one reporting thread for
  /// deterministic histories.
  ///
  /// Hardened against malformed input: NaN/Inf coordinates are rejected
  /// with kInvalidArgument (and counted — RejectedReports(id)) instead
  /// of poisoning later training. Under overload, admission control may
  /// reject with kUnavailable + retry-after, and (re)training is
  /// deferred until pressure clears (queries outrank model refreshes).
  Status ReportLocation(ObjectId id, const Point& location);

  /// ReportLocation with an explicit timestamp: `t` must be exactly the
  /// object's next tick (== HistoryLength(id)). A smaller `t` is a
  /// non-monotone (out-of-order / duplicate) report and a larger one a
  /// gap; both are rejected with kInvalidArgument and counted per
  /// object rather than silently corrupting the trajectory's unit-step
  /// time base.
  Status ReportLocationAt(ObjectId id, Timestamp t, const Point& location);

  /// Bulk ingestion convenience.
  Status ReportTrajectory(ObjectId id, const Trajectory& trajectory);

  /// Malformed reports rejected so far for `id` (NaN/Inf coordinates,
  /// non-monotone timestamps). 0 for unknown objects.
  uint64_t RejectedReports(ObjectId id) const;

  /// Ids of all tracked objects, ascending. Shard-snapshot read: ids
  /// reported while the call runs may or may not be included.
  std::vector<ObjectId> ObjectIds() const;

  size_t NumObjects() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Samples reported so far for `id` (0 when unknown).
  size_t HistoryLength(ObjectId id) const;

  /// A shared snapshot of the object's trained predictor, or NotFound /
  /// FailedPrecondition when the object is unknown / not yet trained.
  /// The snapshot stays valid (and immutable) after later retrains swap
  /// the live model.
  StatusOr<std::shared_ptr<const HybridPredictor>> GetPredictor(
      ObjectId id) const;

  /// Predicts object `id`'s location at `tq` (absolute time on the
  /// object's clock, after its last report). Uses the object's trained
  /// predictor when available and a pure motion-function answer before
  /// the first training threshold. When `deadline` expires mid-query the
  /// answer degrades to the RMF motion function (Prediction::degraded
  /// records why) instead of failing. At most `k` predictions come back;
  /// k < 1 is InvalidArgument, and a k above the object's pattern count
  /// costs no more than k = that count.
  StatusOr<std::vector<Prediction>> PredictLocation(
      ObjectId id, Timestamp tq, int k = 1,
      Deadline deadline = Deadline::Infinite()) const;

  /// Amortised multi-object point prediction: one result per input id,
  /// in input order. The batch takes one admission ticket and one epoch
  /// pin, and its per-object prediction work fans out on the thread pool
  /// in contiguous chunks of `ids`. Every slot holds the same StatusOr
  /// that PredictLocation(ids[i], tq, k) would have returned at snapshot
  /// time.
  std::vector<StatusOr<std::vector<Prediction>>> PredictLocationBatch(
      const std::vector<ObjectId>& ids, Timestamp tq, int k = 1,
      Deadline deadline = Deadline::Infinite()) const;

  /// Predictive range query: every object whose predicted location(s)
  /// at `tq` (its own clock) fall inside `range`. At most one hit per
  /// object (its best-scored matching prediction); hits sorted by score
  /// descending. `k_per_object` controls how many candidate locations
  /// are considered per object. Objects whose last report precedes `tq`
  /// by less than one step are skipped. Fans out across shards on the
  /// thread pool; each shard's objects are evaluated against their
  /// epoch-protected published views (no lock taken).
  /// A `deadline` bounds the pattern-side work per object: once it
  /// expires, remaining objects are evaluated with their (cheap) RMF
  /// answers, so the result set still covers every eligible object.
  /// A shard whose share fails is skipped and the result is flagged
  /// partial instead of the whole query failing; under overload the
  /// per-object answers degrade to RMF (DegradedReason::kOverloaded) or
  /// the call is rejected with kUnavailable + retry-after.
  StatusOr<FleetQueryResult> PredictiveRangeQuery(
      const BoundingBox& range, Timestamp tq, int k_per_object = 3,
      Deadline deadline = Deadline::Infinite()) const;

  /// Predictive n-nearest-neighbours: the `n` objects whose top-1
  /// predicted location at `tq` lies closest to `target`, nearest
  /// first. Objects that cannot be queried at `tq` are skipped. Same
  /// fan-out (and the same partial/overload contract) as
  /// PredictiveRangeQuery.
  StatusOr<FleetQueryResult> PredictiveNearestNeighbors(
      const Point& target, Timestamp tq, int n,
      Deadline deadline = Deadline::Infinite()) const;

  /// ---- Observability --------------------------------------------------
  /// True when the store was configured with a write-ahead journal
  /// (DurabilityOptions::wal_dir non-empty).
  bool wal_enabled() const { return !options_.durability.wal_dir.empty(); }

  /// DurabilityOptions::wal_dir: empty when the store keeps no journal.
  const std::string& wal_dir() const { return options_.durability.wal_dir; }

  /// True while the journal is healthy: enabled and no disk fault has
  /// dropped the store to non-durable serving. Mirrors the
  /// store.wal_disabled metric (the health flag `hpm_tool stats` reports).
  bool wal_durable() const {
    return wal_enabled() && !wal_disabled_->load(std::memory_order_relaxed);
  }

  /// Snapshot of the serving metrics (per-op admitted/shed counters,
  /// pipeline stage latency histograms, TPT traversal effort, …). Names
  /// are documented in docs/OBSERVABILITY.md.
  MetricsSnapshot metrics_snapshot() const {
    return metrics_registry_->TakeSnapshot();
  }

  /// Queued-but-unstarted fan-out tasks (the rung-1 pressure signal).
  size_t PoolQueueDepth() const { return pool_->queue_depth(); }

  /// Entry-point calls currently admitted and running.
  int InFlight() const { return admission_->in_flight(); }

  /// ---- Persistence ----------------------------------------------------
  /// Writes the whole store (per-object history CSV + trained model +
  /// manifest) under `directory`, creating it if needed. Each object is
  /// snapshotted under its shard's writer lock; objects reported while
  /// the save runs may be missed.
  Status SaveToDirectory(const std::string& directory) const;

  /// Restores a store written by SaveToDirectory. `options` must match
  /// the one the store was built with (per-object models carry their
  /// own training options; the store options govern thresholds).
  /// Corrupt files are quarantined and an older generation tried; a
  /// model file of another format version returns FailedPrecondition and
  /// leaves the directory untouched.
  static StatusOr<MovingObjectStore> LoadFromDirectory(
      const std::string& directory, ObjectStoreOptions options);

  /// The snapshot generation this store's state sits on: set by
  /// LoadFromDirectory to the generation it loaded and advanced by every
  /// successful SaveToDirectory. 0 for a store that has never touched
  /// disk. Replication stamps replies with it.
  uint64_t generation() const {
    return generation_->load(std::memory_order_relaxed);
  }

  /// ---- Replication (server/replication.h drives this) -----------------
  /// Applies one record shipped from a primary's journal, with the exact
  /// semantics of crash replay: a report at the object's next tick
  /// appends (journaling locally when a journal is attached, retraining
  /// exactly as live ingest would — a replica applying the same records
  /// in the same order converges to bit-identical models); a record the
  /// local state already covers returns false (idempotent re-delivery);
  /// a record *past* the next tick is kOutOfRange — the follower missed
  /// records and must resync rather than fabricate history. Rejected
  /// tallies and baselines apply unconditionally. The record feeds the
  /// object's miner exactly as live ingest does, so a replica (or a
  /// crash-replayed store) converges to the same pattern state as the
  /// primary.
  StatusOr<bool> ApplyReplicated(const WalRecord& record);

  /// ---- Model maintenance (RebuildOptions) -----------------------------
  /// Quiesce point: rebuilds every trained object whose miner window has
  /// moved past the samples its model consumed, drift or not. After it
  /// returns, every trained object's model reflects its miner's current
  /// window — the deterministic state the differential tests compare.
  Status FlushRebuilds();

  /// Introspection snapshot of one object's miner, for tests and
  /// tooling.
  struct MinerSnapshot {
    double drift = 0.0;
    /// Samples covered by completed periods (the rebuild window's end).
    size_t window_end = 0;
    /// Samples the served model was built from.
    size_t consumed_samples = 0;
    /// The miner's window as a trajectory (what a rebuild would train
    /// on).
    Trajectory window;
    /// The maintained pattern set (empty until regions are adopted).
    std::vector<TrajectoryPattern> patterns;
    MinerStats stats;
    /// IncrementalMiner::MemoryBytes(): what the miner itself owns.
    size_t memory_bytes = 0;
  };

  /// kNotFound for unknown objects.
  StatusOr<MinerSnapshot> MinerState(ObjectId id) const;

 private:
  /// Everything a prediction needs, snapshotted by the writer at publish
  /// time. Immutable once published; readers use it in place (no copy,
  /// no refcount touch) while their epoch pin is held, and the epoch
  /// manager frees it after the last such reader unpins.
  struct ObjectView {
    ObjectView(ObjectId object_id, size_t size,
               std::vector<TimedPoint> recent_window,
               std::shared_ptr<const HybridPredictor> model,
               const RmfOptions& rmf)
        : id(object_id),
          history_size(size),
          now(static_cast<Timestamp>(size) - 1),
          recent(std::move(recent_window)),
          predictor(std::move(model)),
          motion(&recent, rmf) {}

    const ObjectId id;
    const size_t history_size;
    const Timestamp now;
    const std::vector<TimedPoint> recent;
    /// Shared handle pins the model generation for at least the view's
    /// lifetime; readers go through the raw pointer.
    const std::shared_ptr<const HybridPredictor> predictor;
    /// The RMF fit of `recent` under the answering options (the model's,
    /// or the store's before the first model). Fitted by the first
    /// reader that needs the motion-function answer and shared by every
    /// later one, so an object is fitted at most once per report.
    MotionFit motion;
  };

  /// One tracked object. Stable-address (owned by unique_ptr in the
  /// shard's record map, never deleted while the store lives). The
  /// writer fields are guarded by the owning shard's write_mutex; `view`
  /// is the epoch-protected published snapshot, rebuilt and swapped on
  /// every append and every model swap.
  struct ObjectRecord {
    ObjectRecord(ObjectId object_id, IncrementalMiner object_miner)
        : id(object_id), miner(std::move(object_miner)) {}
    ~ObjectRecord() { delete view.load(std::memory_order_relaxed); }
    ObjectRecord(const ObjectRecord&) = delete;
    ObjectRecord& operator=(const ObjectRecord&) = delete;

    const ObjectId id;

    // --- writer state (shard write_mutex) --------------------------------
    Trajectory history;
    /// Immutable trained model; replaced wholesale (never mutated) when
    /// the initial training or a rebuild completes.
    std::shared_ptr<const HybridPredictor> predictor;
    /// Samples the served model was built from (a window end).
    size_t consumed_samples = 0;
    /// The streaming pattern-maintenance state, advanced over `history`
    /// on every append; it shares `predictor`'s region set.
    IncrementalMiner miner;
    /// True while a reporting thread is mining this object outside the
    /// writer lock; prevents duplicate concurrent (re)trains.
    bool training_in_flight = false;

    // --- read side -------------------------------------------------------
    /// Release-published, acquire-loaded, non-null from the moment the
    /// record becomes reachable through a shard table.
    std::atomic<const ObjectView*> view{nullptr};
  };

  /// A shard's immutable directory: records sorted by id. Replaced
  /// wholesale (publish + retire) when an object is added.
  struct ShardTable {
    std::vector<const ObjectRecord*> records;
    const ObjectRecord* Find(ObjectId id) const;
  };

  struct Shard {
    Shard() : table(new ShardTable) {}
    ~Shard() { delete table.load(std::memory_order_relaxed); }

    /// Serialises writers (ingest, training swaps, persistence reads of
    /// writer state). Never taken on a query read path.
    mutable std::mutex write_mutex;
    /// Record ownership (write_mutex). Records are never erased.
    std::map<ObjectId, std::unique_ptr<ObjectRecord>> records;
    /// Malformed reports rejected per object. Kept beside `records` (not
    /// inside ObjectRecord) so a rejected report never creates a phantom
    /// object in ObjectIds()/NumObjects().
    std::map<ObjectId, uint64_t> rejected_reports;
    /// The shard's write-ahead journal appender (write_mutex; null when
    /// durability is off, or until LoadFromDirectory finishes replaying).
    std::unique_ptr<WalWriter> wal;
    /// Epoch-protected, acquire-loaded by readers.
    std::atomic<const ShardTable*> table;
  };

  static size_t ShardIndex(ObjectId id, size_t num_shards);
  Shard& ShardFor(ObjectId id) const {
    return *shards_[ShardIndex(id, shards_.size())];
  }

  /// Builds a fresh view of `record`'s writer state (caller holds the
  /// shard's write_mutex, or owns the record exclusively while loading).
  const ObjectView* BuildView(const ObjectRecord& record) const;

  /// Swaps `view` in as `record`'s published snapshot and retires the
  /// previous one (write_mutex held).
  void PublishView(ObjectRecord& record, const ObjectView* view);

  /// Rebuilds the shard's table from its record map, publishes it and
  /// retires the previous table (write_mutex held). `record`'s view must
  /// already be published — readers must never see a viewless record.
  void PublishTable(Shard& shard);

  /// The published view for `id`, or null when the object is unknown.
  /// Caller must hold an epoch pin taken before the call.
  const ObjectView* FindView(const Shard& shard, ObjectId id) const;

  /// Predicts against a published view; the caller holds an epoch pin,
  /// no locks. Before the first model the answer is the view's motion
  /// function alone. The execution context supplies the deadline, the
  /// rung-1 shed verdict (a trained object's answer is then the RMF
  /// motion function stamped DegradedReason::kOverloaded), scratch lane
  /// `lane`, and per-query accounting.
  StatusOr<std::vector<Prediction>> PredictView(const ObjectView& view,
                                                Timestamp tq, int k,
                                                QueryContext& ctx,
                                                int lane) const;

  /// Shared ReportLocation/ReportLocationAt back half, one pipeline
  /// instantiation: validates the sample (including `*expected_t`'s
  /// range when non-null), appends and trains.
  Status Ingest(ObjectId id, const Point& location,
                const Timestamp* expected_t);

  /// Records a malformed report for `id` (creates no trajectory); the
  /// aggregate count flows through `ctx` to the Account stage.
  void RecordRejectedReport(ObjectId id, QueryContext& ctx);

  /// ---- Durable ingest (io/wal; implementation split with store_io.cc) --
  /// Opens per-shard journal writers under durability.wal_dir, continuing
  /// each shard's segment sequence past whatever already exists on disk.
  /// `base_gen` is the snapshot generation the new segments sit on top of
  /// (0 for a fresh store). Constructor/LoadFromDirectory degrade to
  /// non-durable serving via DisableWal when this fails.
  Status InitWal(uint64_t base_gen);

  /// Appends `record` to `shard`'s journal (write_mutex held). A no-op
  /// when the journal is off, not yet attached, or disabled; any append
  /// or sync failure degrades the store instead of propagating.
  void WalAppend(Shard& shard, const WalRecord& record);

  /// Flips the store to non-durable serving (once): sets the health flag
  /// and bumps store.wal_disabled. Reports keep being acknowledged.
  void DisableWal(const Status& cause) const;

  /// Applies one replayed journal record to the freshly loaded store:
  /// records at the object's next tick append (and may retrain, exactly
  /// as live ingest would); records already covered by the snapshot, or
  /// gapped by a stale segment, are skipped. Returns the number of
  /// records applied (0 or 1).
  uint64_t ApplyWalRecord(const WalRecord& record);

  /// Replays every journal segment with base_gen >= `loaded_gen` in
  /// (shard, seq) order: truncates torn tails, quarantines mid-log
  /// corruption (halting that shard's stream), and feeds surviving
  /// records through ApplyWalRecord. Called by LoadFromDirectory before
  /// writers attach, so replay never re-journals itself.
  void ReplayWal(uint64_t loaded_gen);

  /// Decides whether `id` needs a model build: the initial training once
  /// enough periods exist, or a rebuild once its miner's drift score
  /// reaches the threshold; then runs it through BuildModel. Under
  /// rung-1 pressure the build is deferred — query traffic outranks
  /// model refreshes; the thresholds re-fire on a later report.
  Status MaybeTrain(Shard& shard, ObjectId id, QueryPipeline& pipeline);

  /// ---- Model maintenance internals -------------------------------------
  /// A fresh miner configured from options_ (period, mining params and
  /// region-match slack copied from the predictor options, metric hooks
  /// wired into metrics_).
  IncrementalMiner NewMiner() const;

  /// `model`'s region set as an aliasing handle, which is how a miner
  /// shares its published model's regions; null for a null model.
  static std::shared_ptr<const FrequentRegionSet> SharedRegions(
      const std::shared_ptr<const HybridPredictor>& model);

  /// The one model-build cycle, shared by the bootstrap train, drift
  /// rebuilds and FlushRebuilds. Captures under the shard lock — the
  /// whole history when `id` has no model, else the miner's window —
  /// then mines + freezes off-lock (fault sites "rebuild/mine" and
  /// "rebuild/freeze", training retried on transient faults), then
  /// re-locks and publishes via the epoch snapshot swap
  /// ("rebuild/publish"), consuming the window end seen at capture.
  /// Any failure leaves the last-good model (if any) serving; replacing
  /// a published model counts rebuild.*. Opens a "train" span on
  /// `trace` (may be null). The caller decides a build is due; a no-op
  /// for unknown ids, for an object already being built, and for a
  /// model whose window has not moved since it was published.
  Status BuildModel(Shard& shard, ObjectId id, Trace* trace);

  /// The answer bound: true when `pred` holds for some location that
  /// `view`'s answer at `tq` under `ctx` can take. Those are the
  /// model's pattern-answer centres (HybridPredictor::
  /// PatternAnswerCentres), tried first, then the memoised RMF point.
  /// Also true, without consulting `pred`, when the object has no bound
  /// worth computing: its answer is the RMF point alone (no model yet, or
  /// the query sheds to RMF), or `tq` lies more than one model period
  /// past its last report. Caller holds an epoch pin; `tq` > view.now.
  template <typename Pred>
  bool AnyAnswerLocation(const ObjectView& view, Timestamp tq,
                         QueryContext& ctx, Pred&& pred) const;

  /// One shard's share of PredictiveRangeQuery / NearestNeighbors,
  /// running as a fan-out lane of `ctx`: pin the epoch in the lane's
  /// scratch guard, walk the shard's published table and predict against
  /// each eligible view in place — no lock, no copies. Objects whose
  /// answer bound cannot matter are skipped unevaluated: for range, none
  /// of its locations lies in `range`; for kNN, all are strictly farther
  /// from `target` than the lane's current n-th hit (the lane keeps its
  /// own top n, visiting objects nearest bound first). `shard_index`
  /// names the per-shard fault site and the scratch lane.
  Status RangeQueryShard(int shard_index, const BoundingBox& range,
                         Timestamp tq, int k_per_object, QueryContext& ctx,
                         std::vector<RangeHit>* hits) const;
  Status NearestNeighborShard(int shard_index, const Point& target,
                              Timestamp tq, int n, QueryContext& ctx,
                              std::vector<RangeHit>* hits) const;

  /// The borrowed-subsystem environment every pipeline instantiation
  /// receives.
  QueryPipeline::Env PipelineEnv() const;

  ObjectStoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<MetricsRegistry> metrics_registry_;
  std::unique_ptr<StoreMetrics> metrics_;
  /// Set once by DisableWal when a disk fault drops the store to
  /// non-durable serving. Heap-allocated so the store stays movable.
  std::unique_ptr<std::atomic<bool>> wal_disabled_;
  /// Snapshot generation (see generation()); heap-allocated for
  /// movability, mutated by the const SaveToDirectory after commit.
  std::unique_ptr<std::atomic<uint64_t>> generation_;
  /// Destroyed before everything above it, so draining its limbo (which
  /// bumps the epoch.* counters) still has a live metrics registry.
  std::unique_ptr<EpochManager> epoch_;
};

}  // namespace hpm

#endif  // HPM_SERVER_OBJECT_STORE_H_
