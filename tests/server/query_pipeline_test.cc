// Query-pipeline observability tests (ctest labels `overload` +
// `observability`): per-op admitted/shed counters, per-stage latency
// histograms, the single-accounting-point invariant, and per-query
// traces delivered through ObjectStoreOptions::trace_sink.

#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "server/object_store.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
}

Trajectory OnePeriod(ObjectId id, Random* rng) {
  Trajectory t;
  for (Timestamp off = 0; off < kPeriod; ++off) {
    Point p = Route(id, off);
    p.x += rng->Gaussian(0, 1.0);
    p.y += rng->Gaussian(0, 1.0);
    t.Append(p);
  }
  return t;
}

ObjectStoreOptions BaseOptions() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = 5;
  options.recent_window = 5;
  options.num_shards = 2;
  options.query_threads = 1;  // Inline fan-out: deterministic accounting.
  return options;
}

// ---- Per-op counters -------------------------------------------------------

TEST(QueryPipelineTest, PerOpAdmittedCountersTrackEveryEntryPoint) {
  MovingObjectStore store(BaseOptions());
  ASSERT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());
  ASSERT_TRUE(store.ReportLocation(1, {1.0, 1.0}).ok());
  ASSERT_TRUE(store.ReportLocation(1, {2.0, 2.0}).ok());

  ASSERT_TRUE(store.PredictLocation(1, 5).ok());
  // NotFound consumes admission too (the store did the lookup work).
  EXPECT_FALSE(store.PredictLocation(99, 5).ok());
  store.PredictLocationBatch({1, 99}, 5);
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  ASSERT_TRUE(store.PredictiveRangeQuery(everywhere, 5).ok());
  ASSERT_TRUE(store.PredictiveNearestNeighbors({0, 0}, 5, 1).ok());

  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_EQ(snap.counter("store.admitted.report"), 3u);
  EXPECT_EQ(snap.counter("store.admitted.predict"), 2u);
  EXPECT_EQ(snap.counter("store.admitted.predict_batch"), 1u);
  EXPECT_EQ(snap.counter("store.admitted.range"), 1u);
  EXPECT_EQ(snap.counter("store.admitted.nearest"), 1u);
  EXPECT_EQ(snap.counter("store.shed.report"), 0u);
  EXPECT_EQ(snap.counter("store.shed.predict"), 0u);

  // One total-latency sample per admitted call.
  ASSERT_NE(snap.histogram("op.report_us"), nullptr);
  EXPECT_EQ(snap.histogram("op.report_us")->count, 3u);
  EXPECT_EQ(snap.histogram("op.predict_us")->count, 2u);
  EXPECT_EQ(snap.histogram("op.range_us")->count, 1u);
  EXPECT_EQ(snap.histogram("op.nearest_us")->count, 1u);

  // Summed over ops, the per-op counters give the store-wide totals.
  EXPECT_EQ(snap.counter_sum("store.admitted."), 8u);
  EXPECT_EQ(snap.counter_sum("store.shed."), 0u);
}

TEST(QueryPipelineTest, ShedCallsCountUnderTheRejectedOp) {
  using AdmissionClock = AdmissionOptions::Clock;
  AdmissionClock::time_point now{};
  ObjectStoreOptions options = BaseOptions();
  options.admission.tokens_per_second = 1.0;
  options.admission.burst = 1.0;
  options.admission.clock = [&now] { return now; };
  MovingObjectStore store(options);

  EXPECT_FALSE(store.PredictLocation(1, 5).ok());  // NotFound, admitted.
  EXPECT_EQ(store.PredictLocation(1, 5).status().code(),
            StatusCode::kUnavailable);  // Token spent: shed.

  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_EQ(snap.counter("store.admitted.predict"), 1u);
  EXPECT_EQ(snap.counter("store.shed.predict"), 1u);
  EXPECT_EQ(snap.counter_sum("store.admitted."), 1u);
  EXPECT_EQ(snap.counter_sum("store.shed."), 1u);
  // The pipeline released its ticket on every path.
  EXPECT_EQ(store.InFlight(), 0);
}

// ---- Stage histograms ------------------------------------------------------

TEST(QueryPipelineTest, FleetQueryRecordsEveryStageOnce) {
  MovingObjectStore store(BaseOptions());
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  ASSERT_TRUE(store.PredictiveRangeQuery(everywhere, 5).ok());

  const MetricsSnapshot snap = store.metrics_snapshot();
  for (const char* stage :
       {"stage.admit_us", "stage.plan_us", "stage.fanout_us",
        "stage.merge_us"}) {
    ASSERT_NE(snap.histogram(stage), nullptr) << stage;
    EXPECT_EQ(snap.histogram(stage)->count, 1u) << stage;
  }
}

TEST(QueryPipelineTest, ShedCallRecordsOnlyTheAdmitStage) {
  using AdmissionClock = AdmissionOptions::Clock;
  AdmissionClock::time_point now{};
  ObjectStoreOptions options = BaseOptions();
  options.admission.tokens_per_second = 1.0;
  options.admission.burst = 1.0;
  options.admission.clock = [&now] { return now; };
  MovingObjectStore store(options);

  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  ASSERT_TRUE(store.PredictiveRangeQuery(everywhere, 5).ok());
  EXPECT_FALSE(store.PredictiveRangeQuery(everywhere, 5).ok());

  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_EQ(snap.histogram("stage.admit_us")->count, 2u);
  // The rejected call never planned, fanned out or merged.
  EXPECT_EQ(snap.histogram("stage.plan_us")->count, 1u);
  EXPECT_EQ(snap.histogram("stage.fanout_us")->count, 1u);
  EXPECT_EQ(snap.histogram("stage.merge_us")->count, 1u);
}

// ---- Work counters ---------------------------------------------------------

TEST(QueryPipelineTest, MotionFallbackAndEvaluationCountersFlow) {
  MovingObjectStore store(BaseOptions());
  ASSERT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());
  ASSERT_TRUE(store.ReportLocation(1, {1.0, 1.0}).ok());
  ASSERT_TRUE(store.PredictLocation(1, 5).ok());

  const MetricsSnapshot snap = store.metrics_snapshot();
  // Untrained object: one evaluation, answered by one RMF fit.
  EXPECT_EQ(snap.counter("store.objects_evaluated"), 1u);
  EXPECT_EQ(snap.counter("store.motion_fits"), 1u);
  EXPECT_EQ(snap.counter("store.degraded_predictions"), 0u);
}

TEST(QueryPipelineTest, MotionFitsCountFitsNotAnswers) {
  MovingObjectStore store(BaseOptions());
  ASSERT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());
  ASSERT_TRUE(store.ReportLocation(1, {1.0, 1.0}).ok());
  // One published view, one fit, however many queries and horizons.
  ASSERT_TRUE(store.PredictLocation(1, 5).ok());
  ASSERT_TRUE(store.PredictLocation(1, 9).ok());
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  ASSERT_TRUE(store.PredictiveRangeQuery(everywhere, 7).ok());
  EXPECT_EQ(store.metrics_snapshot().counter("store.motion_fits"), 1u);
  // A report publishes a new view, whose first RMF answer fits again.
  ASSERT_TRUE(store.ReportLocation(1, {2.0, 2.0}).ok());
  ASSERT_TRUE(store.PredictLocation(1, 5).ok());
  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_EQ(snap.counter("store.motion_fits"), 2u);
  EXPECT_EQ(snap.counter("store.objects_evaluated"), 4u);
}

TEST(QueryPipelineTest, RejectedReportCountsWithoutConsumingAdmission) {
  MovingObjectStore store(BaseOptions());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(store.ReportLocation(7, {nan, 0.0}).code(),
            StatusCode::kInvalidArgument);

  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_EQ(snap.counter("store.reports_rejected"), 1u);
  // Validation precedes admission: nothing was admitted or shed.
  EXPECT_EQ(snap.counter("store.admitted.report"), 0u);
  EXPECT_EQ(snap.counter("store.shed.report"), 0u);
  EXPECT_EQ(store.RejectedReports(7), 1u);
}

TEST(QueryPipelineTest, DegradedPredictionsCountPerPredictionInMetrics) {
  ObjectStoreOptions options = BaseOptions();
  options.degrade_min_headroom =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::hours(1));
  MovingObjectStore store(options);
  Random rng(41);
  for (int day = 0; day < 5; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  for (Timestamp t = 0; t <= 5; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
  }
  const Timestamp now = 5 * kPeriod + 5;

  auto shed = store.PredictLocation(0, now + 5, 1, Deadline::AfterMillis(100));
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed->front().degraded, DegradedReason::kOverloaded);

  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_EQ(snap.counter("store.degraded_predictions"), 1u);
}

// ---- Traces ----------------------------------------------------------------

struct CapturedTrace {
  std::string op;
  std::vector<TraceSpan> spans;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Collects every finished trace the store hands to its sink.
struct TraceCollector {
  std::mutex mu;
  std::vector<CapturedTrace> traces;

  TraceSink Sink() {
    return [this](const char* op, const Trace& trace) {
      std::lock_guard<std::mutex> lock(mu);
      traces.push_back({op, trace.spans(), trace.counters()});
    };
  }

  const CapturedTrace* FindOp(const std::string& op) {
    std::lock_guard<std::mutex> lock(mu);
    for (const CapturedTrace& t : traces) {
      if (t.op == op) return &t;
    }
    return nullptr;
  }
};

bool HasSpan(const CapturedTrace& trace, const std::string& name,
             int parent) {
  for (const TraceSpan& span : trace.spans) {
    if (span.name == name && span.parent == parent && span.finished) {
      return true;
    }
  }
  return false;
}

TEST(QueryPipelineTest, TraceSinkReceivesStageSpansPerQuery) {
  ObjectStoreOptions options = BaseOptions();
  TraceCollector collector;
  options.trace_sink = collector.Sink();
  MovingObjectStore store(options);

  ASSERT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());
  ASSERT_TRUE(store.ReportLocation(1, {1.0, 1.0}).ok());
  ASSERT_TRUE(store.PredictLocation(1, 5).ok());
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  ASSERT_TRUE(store.PredictiveRangeQuery(everywhere, 5).ok());

  // One trace per entry-point call.
  EXPECT_EQ(collector.traces.size(), 4u);

  const CapturedTrace* range = collector.FindOp("range");
  ASSERT_NE(range, nullptr);
  // Root span is the op, stages are its direct children (parent index 0).
  ASSERT_FALSE(range->spans.empty());
  EXPECT_EQ(range->spans[0].name, "range");
  EXPECT_EQ(range->spans[0].parent, -1);
  EXPECT_TRUE(range->spans[0].finished);
  EXPECT_TRUE(HasSpan(*range, "admit", 0));
  EXPECT_TRUE(HasSpan(*range, "plan", 0));
  EXPECT_TRUE(HasSpan(*range, "fanout", 0));
  EXPECT_TRUE(HasSpan(*range, "merge", 0));

  const CapturedTrace* predict = collector.FindOp("predict");
  ASSERT_NE(predict, nullptr);
  EXPECT_EQ(predict->spans[0].name, "predict");
  EXPECT_TRUE(HasSpan(*predict, "admit", 0));
  EXPECT_TRUE(HasSpan(*predict, "fanout", 0));
  // Per-query counters ride along with the trace.
  bool found_evaluated = false;
  for (const auto& [name, value] : predict->counters) {
    if (name == "objects_evaluated") {
      found_evaluated = true;
      EXPECT_EQ(value, 1u);
    }
  }
  EXPECT_TRUE(found_evaluated);
}

TEST(QueryPipelineTest, EvaluatedPlusPrunedIsEveryEligibleObject) {
  ObjectStoreOptions options = BaseOptions();
  TraceCollector collector;
  options.trace_sink = collector.Sink();
  MovingObjectStore store(options);
  Random rng(43);
  for (ObjectId id : {0, 1, 2, 3}) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 5; ++t) {
      ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
    }
  }
  for (ObjectId id : {10, 11}) {  // Cold.
    for (Timestamp t = 0; t < 3; ++t) {
      ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
    }
  }
  ASSERT_TRUE(store.ReportLocation(12, Route(12, 0)).ok());  // Ineligible.
  constexpr uint64_t kEligible = 6;
  const Timestamp tq = 5 * kPeriod + 10;

  // A box around object 0's route at tq: the other routes' centres and
  // RMF points all lie 1000 units away or more.
  const Point at = Route(0, 10);
  const BoundingBox box({at.x - 200.0, at.y - 200.0},
                        {at.x + 200.0, at.y + 200.0});
  const auto range = store.PredictiveRangeQuery(box, tq);
  ASSERT_TRUE(range.ok());
  const auto knn = store.PredictiveNearestNeighbors(at, tq, 1);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->hits.size(), 1u);
  EXPECT_EQ(knn->hits[0].id, 0);

  const MetricsSnapshot snap = store.metrics_snapshot();
  const uint64_t pruned = snap.counter("store.objects_pruned");
  EXPECT_GT(pruned, 0u);
  EXPECT_EQ(snap.counter("store.objects_evaluated") + pruned, 2 * kEligible);

  // Each fleet query's trace carries the same identity.
  uint64_t traced = 0;
  for (const char* op : {"range", "nearest"}) {
    const CapturedTrace* trace = collector.FindOp(op);
    ASSERT_NE(trace, nullptr) << op;
    uint64_t evaluated = 0, skipped = 0;
    for (const auto& [name, value] : trace->counters) {
      if (name == "objects_evaluated") evaluated = value;
      if (name == "objects_pruned") skipped = value;
    }
    EXPECT_EQ(evaluated + skipped, kEligible) << op;
    traced += skipped;
  }
  EXPECT_EQ(traced, pruned);
}

TEST(QueryPipelineTest, NoSinkMeansNoTraceOverheadOrCallbacks) {
  MovingObjectStore store(BaseOptions());  // trace_sink unset.
  ASSERT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());
  ASSERT_TRUE(store.ReportLocation(1, {1.0, 1.0}).ok());
  ASSERT_TRUE(store.PredictLocation(1, 5).ok());
  // Nothing to observe — the assertion is that nothing crashed and the
  // metrics side still accounted the calls.
  EXPECT_EQ(store.metrics_snapshot().counter("store.admitted.predict"), 1u);
}

}  // namespace
}  // namespace hpm
