// Graceful-degradation tests: expired deadlines and pattern-side faults
// must produce the RMF motion-function answer with Prediction::degraded
// set — never an error, never a silently wrong pattern answer.
//
// Deadline cases run in every build (Deadline::Expired() needs no fault
// hooks). Fault cases arm the injector and are skipped when the hooks
// are compiled out (plain builds).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
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

ObjectStoreOptions Options() {
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
  return options;
}

/// A store with trained objects `0..count-1`, each mid-way through a
/// fresh day so pattern queries succeed.
MovingObjectStore TrainedStore(int count, uint64_t seed) {
  MovingObjectStore store(Options());
  Random rng(seed);
  for (ObjectId id = 0; id < count; ++id) {
    for (int day = 0; day < 5; ++day) {
      EXPECT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 10; ++t) {
      EXPECT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
    }
  }
  return store;
}

/// "Now" on each trained object's clock (5 full days + 11 samples).
constexpr Timestamp kNow = 5 * kPeriod + 10;

class DegradedServingTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(DegradedServingTest, ExpiredDeadlineDegradesToMotionFunction) {
  MovingObjectStore store = TrainedStore(1, 21);

  // With time, the answer comes from a pattern.
  auto timely = store.PredictLocation(0, kNow + 5);
  ASSERT_TRUE(timely.ok());
  EXPECT_EQ(timely->front().source, PredictionSource::kPattern);
  EXPECT_EQ(timely->front().degraded, DegradedReason::kNone);

  // With the deadline already blown, the same query still answers — from
  // the motion function, flagged as degraded.
  auto degraded = store.PredictLocation(0, kNow + 5, 1, Deadline::Expired());
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(degraded->size(), 1u);
  EXPECT_EQ(degraded->front().source, PredictionSource::kMotionFunction);
  EXPECT_EQ(degraded->front().degraded, DegradedReason::kDeadlineExceeded);
}

TEST_F(DegradedServingTest, DegradedAnswerMatchesMotionFunctionExactly) {
  // The degraded answer must be the RMF answer — the same one
  // MotionFunctionPredict computes on the identical query.
  MovingObjectStore store = TrainedStore(1, 22);
  auto predictor = store.GetPredictor(0);
  ASSERT_TRUE(predictor.ok());

  // Rebuild the query the store assembles in MakeSnapshot: the last
  // recent_window reported samples, timestamps = report indices.
  const ObjectStoreOptions options = Options();
  PredictiveQuery query;
  for (Timestamp t = 10 - options.recent_window + 1; t <= 10; ++t) {
    query.recent_movements.push_back({kNow - 10 + t, Route(0, t)});
  }
  query.current_time = kNow;
  query.query_time = kNow + 5;

  auto expected = (*predictor)->MotionFunctionPredict(query);
  ASSERT_TRUE(expected.ok());
  auto degraded = store.PredictLocation(0, kNow + 5, 1, Deadline::Expired());
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->front().location, expected->location);
}

TEST_F(DegradedServingTest, FarFutureDeadlineMatchesNoDeadline) {
  MovingObjectStore store = TrainedStore(1, 23);
  auto unbounded = store.PredictLocation(0, kNow + 5);
  auto generous = store.PredictLocation(0, kNow + 5, 1,
                                        Deadline::After(std::chrono::hours(1)));
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(generous.ok());
  ASSERT_EQ(unbounded->size(), generous->size());
  EXPECT_EQ(unbounded->front().location, generous->front().location);
  EXPECT_EQ(unbounded->front().source, generous->front().source);
  EXPECT_EQ(generous->front().degraded, DegradedReason::kNone);
}

TEST_F(DegradedServingTest, DegradedRangeQueryStillCoversEveryObject) {
  MovingObjectStore store = TrainedStore(2, 24);
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  auto hits =
      store.PredictiveRangeQuery(everywhere, kNow + 5, 3, Deadline::Expired());
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  // No partial coverage: every object answers (degraded), none dropped.
  EXPECT_FALSE(hits->partial);
  ASSERT_EQ(hits->hits.size(), 2u);
  for (const RangeHit& hit : hits->hits) {
    EXPECT_EQ(hit.prediction.degraded, DegradedReason::kDeadlineExceeded);
    EXPECT_EQ(hit.prediction.source, PredictionSource::kMotionFunction);
  }
}

TEST_F(DegradedServingTest, DegradedNearestNeighborsStillAnswer) {
  MovingObjectStore store = TrainedStore(3, 25);
  auto nn = store.PredictiveNearestNeighbors(Route(1, 15), kNow + 5, 2,
                                             Deadline::Expired());
  ASSERT_TRUE(nn.ok()) << nn.status().ToString();
  ASSERT_EQ(nn->hits.size(), 2u);
  EXPECT_EQ(nn->hits[0].prediction.degraded,
            DegradedReason::kDeadlineExceeded);
}

TEST_F(DegradedServingTest, DegradedBatchAnswersEverySlot) {
  MovingObjectStore store = TrainedStore(2, 26);
  const std::vector<ObjectId> ids = {0, 1};
  auto results =
      store.PredictLocationBatch(ids, kNow + 5, 1, Deadline::Expired());
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->front().degraded, DegradedReason::kDeadlineExceeded);
  }
}

TEST_F(DegradedServingTest, DegradedReasonNames) {
  EXPECT_STREQ(DegradedReasonName(DegradedReason::kNone), "None");
  EXPECT_STREQ(DegradedReasonName(DegradedReason::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(DegradedReasonName(DegradedReason::kPatternUnavailable),
               "PatternUnavailable");
}

TEST_F(DegradedServingTest, ToStringMentionsDegradation) {
  MovingObjectStore store = TrainedStore(1, 28);
  auto degraded = store.PredictLocation(0, kNow + 5, 1, Deadline::Expired());
  ASSERT_TRUE(degraded.ok());
  EXPECT_NE(degraded->front().ToString().find("degraded"),
            std::string::npos);
  EXPECT_NE(degraded->front().ToString().find("DeadlineExceeded"),
            std::string::npos);
}

// --- Fault-hook cases (need -DHPM_ENABLE_FAULTS=ON) --------------------

TEST_F(DegradedServingTest, PatternFaultDegradesToMotionFunction) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  MovingObjectStore store = TrainedStore(1, 29);
  FaultRule rule;
  rule.always = true;
  FaultInjector::Global().Arm("core/pattern_lookup", rule);

  auto degraded = store.PredictLocation(0, kNow + 5);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->front().source, PredictionSource::kMotionFunction);
  EXPECT_EQ(degraded->front().degraded, DegradedReason::kPatternUnavailable);

  // Once the fault clears, pattern answers come back.
  FaultInjector::Global().Disarm("core/pattern_lookup");
  auto recovered = store.PredictLocation(0, kNow + 5);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->front().source, PredictionSource::kPattern);
  EXPECT_EQ(recovered->front().degraded, DegradedReason::kNone);
#endif
}

TEST_F(DegradedServingTest, TransientTrainFaultIsRetriedTransparently) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  // The first Train attempt fails (transient kUnavailable); the store's
  // retry loop absorbs it without surfacing an error to the reporter.
  FaultRule rule;
  rule.nth_call = 1;
  FaultInjector::Global().Arm("core/train", rule);

  MovingObjectStore store(Options());
  Random rng(30);
  for (int day = 0; day < 5; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  EXPECT_TRUE(store.GetPredictor(0).ok());
  EXPECT_EQ(FaultInjector::Global().fires("core/train"), 1);
#endif
}

TEST_F(DegradedServingTest, PersistentTrainFaultSurfacesThenRecovers) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  // A fault that outlasts the retry budget surfaces to the reporter;
  // training succeeds on the next batch once the fault clears.
  FaultRule rule;
  rule.from_nth_call = 1;
  FaultInjector::Global().Arm("core/train", rule);

  MovingObjectStore store(Options());
  Random rng(31);
  for (int day = 0; day < 4; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  const Status failed = store.ReportTrajectory(0, OnePeriod(0, &rng));
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.message().find("train"), std::string::npos);
  EXPECT_EQ(store.GetPredictor(0).status().code(),
            StatusCode::kFailedPrecondition);

  // The history was ingested; the next report retries training.
  FaultInjector::Global().Disarm("core/train");
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  EXPECT_TRUE(store.GetPredictor(0).ok());
#endif
}

}  // namespace
}  // namespace hpm
