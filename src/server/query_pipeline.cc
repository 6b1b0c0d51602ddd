#include "server/query_pipeline.h"

#include <algorithm>
#include <future>
#include <string>

namespace hpm {

const char* StoreOpName(StoreOp op) {
  switch (op) {
    case StoreOp::kReport:
      return "report";
    case StoreOp::kPredict:
      return "predict";
    case StoreOp::kPredictBatch:
      return "predict_batch";
    case StoreOp::kRange:
      return "range";
    case StoreOp::kNearest:
      return "nearest";
  }
  return "unknown";
}

StoreMetrics::StoreMetrics(MetricsRegistry* registry) {
  for (size_t i = 0; i < kNumStoreOps; ++i) {
    const std::string op = StoreOpName(static_cast<StoreOp>(i));
    admitted[i] = registry->GetCounter("store.admitted." + op);
    shed[i] = registry->GetCounter("store.shed." + op);
    op_total[i] = registry->GetHistogram("op." + op + "_us");
  }
  degraded_predictions = registry->GetCounter("store.degraded_predictions");
  shards_skipped = registry->GetCounter("store.shards_skipped");
  trains_deferred = registry->GetCounter("store.trains_deferred");
  reports_rejected = registry->GetCounter("store.reports_rejected");
  objects_evaluated = registry->GetCounter("store.objects_evaluated");
  objects_pruned = registry->GetCounter("store.objects_pruned");
  motion_fits = registry->GetCounter("store.motion_fits");
  epoch_pinned = registry->GetCounter("epoch.pinned");
  epoch_retired = registry->GetCounter("epoch.retired");
  epoch_freed = registry->GetCounter("epoch.freed");
  tpt_nodes_visited = registry->GetCounter("tpt.nodes_visited");
  tpt_entries_tested = registry->GetCounter("tpt.entries_tested");
  tpt_blocks_scanned = registry->GetCounter("tpt.block_scans");
  tpt_frozen_bytes = registry->GetCounter("tpt.frozen_bytes");
  wal_appended = registry->GetCounter("wal.appended");
  wal_synced = registry->GetCounter("wal.synced");
  wal_replayed_records = registry->GetCounter("wal.replayed_records");
  wal_truncated_bytes = registry->GetCounter("wal.truncated_bytes");
  wal_disabled = registry->GetCounter("store.wal_disabled");
  quarantined_files = registry->GetCounter("store.quarantined_files");
  miner_transactions = registry->GetCounter("miner.transactions");
  miner_unmatched_points = registry->GetCounter("miner.unmatched_points");
  miner_promoted = registry->GetCounter("miner.promoted");
  miner_demoted = registry->GetCounter("miner.demoted");
  rebuild_completed = registry->GetCounter("rebuild.completed");
  rebuild_failed = registry->GetCounter("rebuild.failed");
  rebuild_build_us = registry->GetHistogram("rebuild.build_us");
  stage_admit = registry->GetHistogram("stage.admit_us");
  stage_plan = registry->GetHistogram("stage.plan_us");
  stage_fanout = registry->GetHistogram("stage.fanout_us");
  stage_merge = registry->GetHistogram("stage.merge_us");
}

QueryPipeline::QueryPipeline(const Env& env, StoreOp op, Deadline deadline)
    : env_(env),
      op_(op),
      ctx_(deadline,
           /*traced=*/env.trace_sink != nullptr && *env.trace_sink != nullptr),
      start_(Clock::now()) {
  root_span_ = ctx_.trace().BeginSpan(StoreOpName(op_));
}

QueryPipeline::~QueryPipeline() { Account(); }

Status QueryPipeline::Admit(const char* what) {
  ScopedSpan span(&ctx_.trace(), "admit", root_span_);
  const StageTimer timer(&admit_micros_);
  StatusOr<AdmissionTicket> ticket = env_.admission->Admit(what);
  if (!ticket.ok()) {
    shed_ = true;
    return ticket.status();
  }
  ticket_.emplace(std::move(*ticket));
  admitted_ = true;
  return Status::OK();
}

bool QueryPipeline::ShouldShedNow(const Deadline& deadline) const {
  if (env_.degrade_queue_depth > 0 &&
      env_.pool->queue_depth() >= env_.degrade_queue_depth) {
    return true;
  }
  if (env_.degrade_min_headroom.count() > 0 && !deadline.is_infinite() &&
      deadline.remaining() < env_.degrade_min_headroom) {
    return true;
  }
  return false;
}

void QueryPipeline::Plan(size_t lanes) {
  planned_ = true;
  ScopedSpan span(&ctx_.trace(), "plan", root_span_);
  const StageTimer timer(&plan_micros_);
  ctx_.set_shed_to_rmf(ShouldShedNow(ctx_.deadline()));
  ctx_.SetLaneCount(std::max<size_t>(lanes, 1));
}

void QueryPipeline::RunLanes(
    size_t n, const std::function<void(size_t lane)>& lane_fn) {
  if (env_.pool->num_threads() <= 1 || n <= 1) {
    for (size_t lane = 0; lane < n; ++lane) lane_fn(lane);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (size_t lane = 0; lane < n; ++lane) {
    StatusOr<std::future<void>> submitted =
        env_.pool->TrySubmit([&lane_fn, lane] { lane_fn(lane); });
    if (submitted.ok()) {
      futures.push_back(std::move(*submitted));
    } else {
      lane_fn(lane);
    }
  }
  for (std::future<void>& f : futures) f.get();
}

FleetQueryResult QueryPipeline::FanOut(const ShardFn& shard_fn) {
  fanned_out_ = true;
  ScopedSpan span(&ctx_.trace(), "fanout", root_span_);
  const StageTimer timer(&fanout_micros_);

  const size_t n = env_.num_shards;
  ctx_.SetLaneCount(n);
  std::vector<std::vector<RangeHit>> hits(n);
  std::vector<Status> statuses(n);
  RunLanes(n, [&shard_fn, &hits, &statuses](size_t s) {
    statuses[s] = shard_fn(static_cast<int>(s), &hits[s]);
  });

  FleetQueryResult result;
  for (size_t s = 0; s < n; ++s) {
    if (!statuses[s].ok()) {
      // Serve without the failed shard rather than failing the query.
      result.partial = true;
      result.skipped_shards.push_back(static_cast<int>(s));
      ctx_.CountSkippedShard();
      continue;
    }
    result.hits.insert(result.hits.end(),
                       std::make_move_iterator(hits[s].begin()),
                       std::make_move_iterator(hits[s].end()));
  }
  return result;
}

void QueryPipeline::FanOutChunks(
    size_t total,
    const std::function<void(size_t begin, size_t end, size_t lane)>&
        chunk_fn) {
  fanned_out_ = true;
  ScopedSpan span(&ctx_.trace(), "fanout", root_span_);
  const StageTimer timer(&fanout_micros_);

  const size_t workers = static_cast<size_t>(env_.pool->num_threads());
  const size_t chunk = std::max<size_t>((total + workers - 1) / workers, 1);
  const size_t num_chunks = (total + chunk - 1) / chunk;
  ctx_.SetLaneCount(std::max<size_t>(num_chunks, 1));
  RunLanes(num_chunks, [&chunk_fn, chunk, total](size_t lane) {
    const size_t begin = lane * chunk;
    chunk_fn(begin, std::min(begin + chunk, total), lane);
  });
}

void QueryPipeline::MergeRank(
    FleetQueryResult* result,
    const std::function<bool(const RangeHit&, const RangeHit&)>& less,
    int limit) {
  merged_ = true;
  ScopedSpan span(&ctx_.trace(), "merge", root_span_);
  const StageTimer timer(&merge_micros_);
  std::sort(result->hits.begin(), result->hits.end(), less);
  if (limit >= 0 && static_cast<int>(result->hits.size()) > limit) {
    result->hits.resize(static_cast<size_t>(limit));
  }
}

void QueryPipeline::Account() {
  if (accounted_) return;
  accounted_ = true;

  const QueryContext::Totals totals = ctx_.totals();
  if (StoreMetrics* m = env_.metrics; m != nullptr) {
    const size_t op = static_cast<size_t>(op_);
    if (admitted_) m->admitted[op]->Increment();
    if (shed_) m->shed[op]->Increment();
    m->degraded_predictions->Increment(totals.degraded_predictions);
    m->shards_skipped->Increment(totals.shards_skipped);
    m->trains_deferred->Increment(totals.trains_deferred);
    m->reports_rejected->Increment(totals.reports_rejected);
    m->objects_evaluated->Increment(totals.objects_evaluated);
    m->objects_pruned->Increment(totals.objects_pruned);
    m->motion_fits->Increment(totals.motion_fits);
    m->tpt_nodes_visited->Increment(totals.tpt_nodes_visited);
    m->tpt_entries_tested->Increment(totals.tpt_entries_tested);
    m->tpt_blocks_scanned->Increment(totals.tpt_blocks_scanned);
    m->stage_admit->RecordMicros(admit_micros_);
    if (planned_) m->stage_plan->RecordMicros(plan_micros_);
    if (fanned_out_) m->stage_fanout->RecordMicros(fanout_micros_);
    if (merged_) m->stage_merge->RecordMicros(merge_micros_);
    m->op_total[op]->Record(Clock::now() - start_);
  }

  Trace& trace = ctx_.trace();
  if (trace.enabled()) {
    trace.AddCounter("objects_evaluated", totals.objects_evaluated);
    trace.AddCounter("objects_pruned", totals.objects_pruned);
    trace.AddCounter("degraded_predictions", totals.degraded_predictions);
    trace.AddCounter("shards_skipped", totals.shards_skipped);
    trace.AddCounter("motion_fits", totals.motion_fits);
    trace.AddCounter("tpt_nodes_visited", totals.tpt_nodes_visited);
    trace.AddCounter("tpt_entries_tested", totals.tpt_entries_tested);
    trace.AddCounter("tpt_blocks_scanned", totals.tpt_blocks_scanned);
    trace.EndSpan(root_span_);
    if (env_.trace_sink != nullptr && *env_.trace_sink != nullptr) {
      (*env_.trace_sink)(StoreOpName(op_), trace);
    }
  }
}

}  // namespace hpm
