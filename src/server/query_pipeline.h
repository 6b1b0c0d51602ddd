// The unified query-execution pipeline: every MovingObjectStore entry
// point — point predict, batch predict, range, kNN, and ingest — executes
// as one instantiation of the staged sequence
//
//   Admit -> Plan -> FanOut -> MergeRank -> Account
//
// * Admit    consults admission control (rung 2 of the overload ladder)
//            and holds the RAII ticket for the query's lifetime.
// * Plan     evaluates the rung-1 degradation ladder (queue depth,
//            deadline headroom) into the QueryContext and sizes its
//            scratch lanes.
// * FanOut   runs the per-shard / per-chunk work as lane tasks on the
//            pool, inline when the pool refuses a task (backpressure).
// * MergeRank sorts and truncates fleet results in the entry point's
//            order.
// * Account  flushes the context's accumulators into the store's
//            MetricsRegistry exactly once — the single accounting
//            point — records per-stage latencies, and hands the
//            per-query trace to the store's trace sink. It runs
//            on *every* exit path (the destructor invokes it if the entry
//            point returned early), so counts like admitted/shed stay
//            exact even for rejected or not-found queries.
//
// The pipeline owns the QueryContext that lower layers (predictor, TPT,
// motion fallback) see via PredictiveQuery::context.

#ifndef HPM_SERVER_QUERY_PIPELINE_H_
#define HPM_SERVER_QUERY_PIPELINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/admission.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/exec_context.h"
#include "server/store_types.h"

namespace hpm {

/// The store entry point a pipeline instance is executing.
enum class StoreOp {
  kReport = 0,
  kPredict,
  kPredictBatch,
  kRange,
  kNearest,
};
inline constexpr size_t kNumStoreOps = 5;

/// Stable short name ("report", "predict", "predict_batch", "range",
/// "nearest") — used in metric names and trace roots.
const char* StoreOpName(StoreOp op);

/// Pointers into the store's MetricsRegistry, resolved once at store
/// construction so the hot path never touches the registry lock.
struct StoreMetrics {
  explicit StoreMetrics(MetricsRegistry* registry);

  Counter* admitted[kNumStoreOps];
  Counter* shed[kNumStoreOps];
  Counter* degraded_predictions;
  Counter* shards_skipped;
  Counter* trains_deferred;
  Counter* reports_rejected;
  Counter* objects_evaluated;
  Counter* objects_pruned;
  Counter* motion_fits;
  /// Epoch-reclamation lifecycle (wired straight into the store's
  /// EpochManager, which increments them itself).
  Counter* epoch_pinned;
  Counter* epoch_retired;
  Counter* epoch_freed;
  Counter* tpt_nodes_visited;
  Counter* tpt_entries_tested;
  Counter* tpt_blocks_scanned;
  Counter* tpt_frozen_bytes;
  /// Durable-ingest journal (io/wal wired through the store; see
  /// docs/ROBUSTNESS.md). wal_disabled is a 0/1 health flag: it is
  /// incremented exactly once when a disk fault drops the store to
  /// non-durable serving.
  Counter* wal_appended;
  Counter* wal_synced;
  Counter* wal_replayed_records;
  Counter* wal_truncated_bytes;
  Counter* wal_disabled;
  /// Files moved into <dir>/quarantine/ by this store's load + replay.
  Counter* quarantined_files;
  /// Incremental pattern maintenance (mining/incremental_miner.h; see
  /// docs/OBSERVABILITY.md for the row semantics). miner.* counts
  /// stream-side maintenance events; rebuild.* counts replacements of a
  /// published model.
  Counter* miner_transactions;
  Counter* miner_unmatched_points;
  Counter* miner_promoted;
  Counter* miner_demoted;
  Counter* rebuild_completed;
  Counter* rebuild_failed;

  LatencyHistogram* rebuild_build_us;
  LatencyHistogram* stage_admit;
  LatencyHistogram* stage_plan;
  LatencyHistogram* stage_fanout;
  LatencyHistogram* stage_merge;
  LatencyHistogram* op_total[kNumStoreOps];
};

/// Called with the finished per-query trace when the store has tracing
/// enabled. `op` is StoreOpName(op) of the traced query.
using TraceSink = std::function<void(const char* op, const Trace& trace)>;

/// One staged query execution. Stack-allocated in the entry point; stages
/// are member calls; Account runs at destruction if not invoked earlier.
class QueryPipeline {
 public:
  /// Borrowed store subsystems. All pointers outlive the pipeline.
  struct Env {
    AdmissionController* admission = nullptr;
    ThreadPool* pool = nullptr;
    size_t num_shards = 0;
    StoreMetrics* metrics = nullptr;
    /// Rung-1 ladder thresholds (ObjectStoreOptions values).
    size_t degrade_queue_depth = 0;
    std::chrono::microseconds degrade_min_headroom{0};
    /// Non-null (and non-empty) when per-query tracing is on.
    const TraceSink* trace_sink = nullptr;
  };

  QueryPipeline(const Env& env, StoreOp op, Deadline deadline);
  ~QueryPipeline();

  QueryPipeline(const QueryPipeline&) = delete;
  QueryPipeline& operator=(const QueryPipeline&) = delete;

  QueryContext& context() { return ctx_; }
  StoreOp op() const { return op_; }

  /// Stage 1: admission control. `what` names the operation in rejection
  /// messages (kept identical to the pre-pipeline strings so retry-after
  /// handling and logs are unchanged). On rejection the query is counted
  /// shed; on success the ticket is held until the pipeline dies.
  Status Admit(const char* what);

  /// Stage 2: evaluates the rung-1 ladder into the context and sizes
  /// `lanes` scratch lanes.
  void Plan(size_t lanes);

  /// The rung-1 verdict against the *current* pool pressure (Plan uses
  /// this with the query's own deadline; deferred-training checks use an
  /// infinite one).
  bool ShouldShedNow(const Deadline& deadline) const;

  /// Extra planning work (e.g. batch snapshot acquisition) timed into the
  /// plan stage.
  template <typename Fn>
  auto RunPlan(Fn&& fn) {
    planned_ = true;
    ScopedSpan span(&ctx_.trace(), "plan", root_span_);
    const StageTimer timer(&plan_micros_);
    return fn();
  }

  /// Stage 3 for fleet queries: runs `shard_fn(shard, &hits)` for every
  /// shard as one lane task (see RunLanes) and merges the shards that
  /// answered in shard order. A shard whose share returns an error flags
  /// the result partial (and counts into the context) instead of failing
  /// the query. `shard_fn` writes hits for shard s using scratch lane s.
  using ShardFn =
      std::function<Status(int shard, std::vector<RangeHit>* hits)>;
  FleetQueryResult FanOut(const ShardFn& shard_fn);

  /// Stage 3 for batches: splits [0, total) into contiguous chunks, one
  /// per pool worker, running each as one lane task (see RunLanes).
  /// `chunk_fn(begin, end, lane)` owns scratch lane `lane` exclusively.
  void FanOutChunks(
      size_t total,
      const std::function<void(size_t begin, size_t end, size_t lane)>&
          chunk_fn);

  /// Stage 3 for single-object work: runs `fn` inline, timed as fan-out.
  template <typename Fn>
  auto RunFanOut(Fn&& fn) {
    fanned_out_ = true;
    ScopedSpan span(&ctx_.trace(), "fanout", root_span_);
    const StageTimer timer(&fanout_micros_);
    return fn();
  }

  /// Stage 4: sorts `result->hits` with `less` and truncates to `limit`
  /// hits when limit >= 0.
  void MergeRank(FleetQueryResult* result,
                 const std::function<bool(const RangeHit&, const RangeHit&)>&
                     less,
                 int limit = -1);

  /// Stage 4 for non-fleet result assembly, timed as merge.
  template <typename Fn>
  auto RunMerge(Fn&& fn) {
    merged_ = true;
    ScopedSpan span(&ctx_.trace(), "merge", root_span_);
    const StageTimer timer(&merge_micros_);
    return fn();
  }

  /// Stage 5: the single accounting point (see file comment). Idempotent;
  /// invoked by the destructor when the entry point exited early.
  void Account();

 private:
  using Clock = std::chrono::steady_clock;

  /// Runs `lane_fn(lane)` for lane in [0, n): inline when the pool has one
  /// worker or n is 1, otherwise each via TrySubmit, running a task inline
  /// when the bounded queue refuses it (backpressure, not unbounded
  /// queueing). Returns once every lane has finished.
  void RunLanes(size_t n, const std::function<void(size_t lane)>& lane_fn);

  /// Adds the scope's elapsed microseconds to *sink on destruction.
  class StageTimer {
   public:
    explicit StageTimer(uint64_t* sink)
        : sink_(sink), start_(Clock::now()) {}
    ~StageTimer() {
      *sink_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - start_)
              .count());
    }
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

   private:
    uint64_t* sink_;
    Clock::time_point start_;
  };

  Env env_;
  StoreOp op_;
  QueryContext ctx_;
  Clock::time_point start_;

  std::optional<AdmissionTicket> ticket_;
  bool admitted_ = false;
  bool shed_ = false;
  bool planned_ = false;
  bool fanned_out_ = false;
  bool merged_ = false;
  bool accounted_ = false;

  uint64_t admit_micros_ = 0;
  uint64_t plan_micros_ = 0;
  uint64_t fanout_micros_ = 0;
  uint64_t merge_micros_ = 0;

  int root_span_ = -1;
};

}  // namespace hpm

#endif  // HPM_SERVER_QUERY_PIPELINE_H_
