#include "core/hybrid_predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/exec_context.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

/// Routes: A follows y=100, B follows y=1200, both with x = 100*t + 50.
Point RouteA(Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0, 100.0};
}
Point RouteB(Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0, 1200.0};
}

/// `days` periods: route A with probability 0.7, else route B, plus unit
/// noise — a miniature two-route commuter.
Trajectory MakeHistory(int days, uint64_t seed = 11) {
  Random rng(seed);
  Trajectory traj;
  for (int d = 0; d < days; ++d) {
    const bool on_a = rng.Bernoulli(0.7);
    for (Timestamp t = 0; t < kPeriod; ++t) {
      Point p = on_a ? RouteA(t) : RouteB(t);
      p.x += rng.Gaussian(0, 1.0);
      p.y += rng.Gaussian(0, 1.0);
      traj.Append(p);
    }
  }
  return traj;
}

HybridPredictorOptions SmallOptions() {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 20.0;
  options.regions.dbscan.min_pts = 4;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 3;
  options.mining.max_pattern_length = 3;
  options.mining.premise_window = 5;
  options.distant_threshold = 8;
  options.time_relaxation = 2;
  return options;
}

/// A query whose recent movements follow route A up to offset tc.
PredictiveQuery RouteAQuery(Timestamp tc_offset, Timestamp length,
                            int history = 4, int day = 50) {
  PredictiveQuery q;
  const Timestamp base = static_cast<Timestamp>(day) * kPeriod;
  for (Timestamp t = tc_offset - history + 1; t <= tc_offset; ++t) {
    q.recent_movements.push_back({base + t, RouteA(t)});
  }
  q.current_time = base + tc_offset;
  q.query_time = q.current_time + length;
  q.k = 1;
  return q;
}

/// Two answers are the same prediction for prediction: every field, the
/// doubles bit for bit. Names the first field that differs.
::testing::AssertionResult SameAnswers(const std::vector<Prediction>& got,
                                       const std::vector<Prediction>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " predictions, want " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Prediction& a = got[i];
    const Prediction& b = want[i];
    const bool same_box =
        a.uncertainty.IsEmpty() == b.uncertainty.IsEmpty() &&
        (b.uncertainty.IsEmpty() ||
         (a.uncertainty.min() == b.uncertainty.min() &&
          a.uncertainty.max() == b.uncertainty.max()));
    if (!(a.location == b.location) || a.score != b.score ||
        a.source != b.source || a.pattern_id != b.pattern_id ||
        a.consequence_region != b.consequence_region ||
        a.confidence != b.confidence || !same_box ||
        a.degraded != b.degraded) {
      return ::testing::AssertionFailure()
             << "prediction " << i << ": " << a.ToString() << ", want "
             << b.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

class HybridPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto trained = HybridPredictor::Train(MakeHistory(40), SmallOptions());
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    predictor_ = trained->release();
  }
  static void TearDownTestSuite() {
    delete predictor_;
    predictor_ = nullptr;
  }
  static HybridPredictor* predictor_;
};

HybridPredictor* HybridPredictorTest::predictor_ = nullptr;

TEST_F(HybridPredictorTest, TrainingSummaryPopulated) {
  const TrainingSummary& s = predictor_->summary();
  EXPECT_EQ(s.num_sub_trajectories, 40u);
  // Two routes -> two regions at most offsets.
  EXPECT_GE(s.num_frequent_regions, static_cast<size_t>(kPeriod));
  EXPECT_GT(s.num_patterns, 0u);
  EXPECT_GT(s.tpt_frozen_bytes, 0u);
  EXPECT_GE(s.tpt_height, 1);
  EXPECT_GE(s.train_seconds, 0.0);
  EXPECT_EQ(s.num_patterns, predictor_->PatternTable().size());
  EXPECT_EQ(predictor_->tpt().size(), s.num_patterns);
}

TEST_F(HybridPredictorTest, ForwardQueryPredictsAlongRoute) {
  const PredictiveQuery q = RouteAQuery(10, 4);
  auto predictions = predictor_->ForwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  ASSERT_FALSE(predictions->empty());
  const Prediction& top = predictions->front();
  EXPECT_EQ(top.source, PredictionSource::kPattern);
  // The object has been on route A; the most likely offset-14 location
  // is route A's anchor.
  EXPECT_LT(Distance(top.location, RouteA(14)), 30.0);
  EXPECT_GT(top.score, 0.0);
  EXPECT_LE(top.score, 1.0);
  EXPECT_GE(top.pattern_id, 0);
  EXPECT_GE(top.consequence_region, 0);
}

TEST_F(HybridPredictorTest, BackwardQueryPredictsDistantOffset) {
  const PredictiveQuery q = RouteAQuery(5, 12);  // Length 12 >= d = 8.
  auto predictions = predictor_->BackwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  ASSERT_FALSE(predictions->empty());
  const Prediction& top = predictions->front();
  EXPECT_EQ(top.source, PredictionSource::kPattern);
  // Offset 17 on one of the two routes; route A ranks first given the
  // premise evidence.
  EXPECT_LT(Distance(top.location, RouteA(17)), 30.0);
}

TEST_F(HybridPredictorTest, PredictDispatchesOnDistantThreshold) {
  // d = 8: every length below it gets FQP's answer, every length at or
  // above it BQP's. The two processors answer differently on both sides
  // of d, so a dispatch on the wrong side shows.
  const Timestamp d = predictor_->options().distant_threshold;
  ASSERT_EQ(d, 8);
  int other_differs = 0;
  for (Timestamp length = 1; length <= 14; ++length) {
    SCOPED_TRACE("length " + std::to_string(length));
    PredictiveQuery q = RouteAQuery(5, length);
    q.k = 3;
    const auto got = predictor_->Predict(q);
    const auto forward = predictor_->ForwardQuery(q);
    const auto backward = predictor_->BackwardQuery(q);
    ASSERT_TRUE(got.ok() && forward.ok() && backward.ok());
    EXPECT_TRUE(SameAnswers(*got, length < d ? *forward : *backward));
    if (!SameAnswers(*got, length < d ? *backward : *forward)) {
      ++other_differs;
    }
  }
  EXPECT_EQ(other_differs, 14);
}

TEST_F(HybridPredictorTest, TopKReturnsBothRoutes) {
  PredictiveQuery q = RouteAQuery(10, 4);
  q.k = 5;
  auto predictions = predictor_->ForwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  EXPECT_GT(predictions->size(), 1u);
  EXPECT_LE(predictions->size(), 5u);
  // Scores are returned best-first.
  for (size_t i = 1; i < predictions->size(); ++i) {
    EXPECT_GE((*predictions)[i - 1].score, (*predictions)[i].score);
  }
}

TEST_F(HybridPredictorTest, FallsBackToMotionFunctionOffPattern) {
  // Recent movements far from any frequent region.
  PredictiveQuery q;
  const Timestamp base = 50 * kPeriod;
  for (Timestamp t = 7; t <= 10; ++t) {
    q.recent_movements.push_back(
        {base + t, Point{5000.0 + 10.0 * static_cast<double>(t), 9000.0}});
  }
  q.current_time = base + 10;
  q.query_time = q.current_time + 4;
  auto predictions = predictor_->ForwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  ASSERT_EQ(predictions->size(), 1u);
  EXPECT_EQ(predictions->front().source,
            PredictionSource::kMotionFunction);
  // The motion answer extrapolates the off-pattern movement, not the
  // patterns.
  EXPECT_NEAR(predictions->front().location.y, 9000.0, 100.0);
}

TEST_F(HybridPredictorTest, MotionFunctionPredictExtrapolates) {
  PredictiveQuery q;
  for (Timestamp t = 0; t < 8; ++t) {
    q.recent_movements.push_back(
        {t, Point{10.0 * static_cast<double>(t), 500.0}});
  }
  q.current_time = 7;
  q.query_time = 12;
  auto p = predictor_->MotionFunctionPredict(q);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->source, PredictionSource::kMotionFunction);
  EXPECT_NEAR(p->location.x, 120.0, 5.0);
  EXPECT_NEAR(p->location.y, 500.0, 5.0);
}

TEST_F(HybridPredictorTest, InvalidQueriesRejectedEverywhere) {
  PredictiveQuery bad;  // Empty movements.
  bad.current_time = 0;
  bad.query_time = 5;
  EXPECT_FALSE(predictor_->Predict(bad).ok());
  EXPECT_FALSE(predictor_->ForwardQuery(bad).ok());
  EXPECT_FALSE(predictor_->BackwardQuery(bad).ok());
  EXPECT_FALSE(predictor_->MotionFunctionPredict(bad).ok());
}

TEST_F(HybridPredictorTest, CountersTrackAnswerSources) {
  // Each answer carries its source, which is what every count of pattern
  // answers and motion fallbacks (EvalResult, the store's metrics) reads:
  // a route-A query is answered from patterns, and every prediction of
  // it says so.
  PredictiveQuery q = RouteAQuery(10, 4);
  q.k = 3;
  const auto answer = predictor_->Predict(q);
  ASSERT_TRUE(answer.ok());
  ASSERT_FALSE(answer->empty());
  for (const Prediction& p : *answer) {
    EXPECT_EQ(p.source, PredictionSource::kPattern);
    EXPECT_EQ(p.degraded, DegradedReason::kNone);
  }
}

TEST(HybridPredictorTrainTest, InvalidOptionsRejected) {
  const Trajectory history = MakeHistory(10);
  HybridPredictorOptions options = SmallOptions();
  options.distant_threshold = kPeriod;  // Must be < period.
  EXPECT_EQ(HybridPredictor::Train(history, options).status().code(),
            StatusCode::kInvalidArgument);
  options = SmallOptions();
  options.distant_threshold = 0;
  EXPECT_EQ(HybridPredictor::Train(history, options).status().code(),
            StatusCode::kInvalidArgument);
  options = SmallOptions();
  options.time_relaxation = -1;
  EXPECT_EQ(HybridPredictor::Train(history, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HybridPredictorTrainTest, HistoryShorterThanPeriodFails) {
  Trajectory tiny;
  for (int i = 0; i < 5; ++i) tiny.Append({0, 0});
  EXPECT_EQ(
      HybridPredictor::Train(tiny, SmallOptions()).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(HybridPredictorTrainTest, NoPatternsStillAnswersViaMotion) {
  // Pure random data: DBSCAN finds nothing, TPT is empty, every query
  // must still get a sensible motion-function answer.
  Random rng(3);
  Trajectory noise;
  for (int i = 0; i < kPeriod * 10; ++i) {
    noise.Append({rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)});
  }
  HybridPredictorOptions options = SmallOptions();
  options.regions.dbscan.min_pts = 9;  // Can't be met by 10 scattered days.
  auto predictor = HybridPredictor::Train(noise, options);
  ASSERT_TRUE(predictor.ok());
  EXPECT_EQ((*predictor)->summary().num_patterns, 0u);

  PredictiveQuery q;
  for (Timestamp t = 0; t < 5; ++t) {
    q.recent_movements.push_back(
        {t, Point{100.0 * static_cast<double>(t), 100.0}});
  }
  q.current_time = 4;
  q.query_time = 10;
  auto predictions = (*predictor)->Predict(q);
  ASSERT_TRUE(predictions.ok());
  EXPECT_EQ(predictions->front().source,
            PredictionSource::kMotionFunction);
}

TEST(HybridPredictorTrainTest, LimitSubTrajectoriesHonoured) {
  HybridPredictorOptions options = SmallOptions();
  options.regions.limit_sub_trajectories = 10;
  auto predictor = HybridPredictor::Train(MakeHistory(40), options);
  ASSERT_TRUE(predictor.ok());
  EXPECT_EQ((*predictor)->summary().num_sub_trajectories, 10u);
}

TEST(HybridPredictorWeightTest, AllWeightFunctionsTrainAndAnswer) {
  const Trajectory history = MakeHistory(40);
  for (const auto fn :
       {WeightFunction::kLinear, WeightFunction::kQuadratic,
        WeightFunction::kExponential, WeightFunction::kFactorial}) {
    HybridPredictorOptions options = SmallOptions();
    options.weight_function = fn;
    auto predictor = HybridPredictor::Train(history, options);
    ASSERT_TRUE(predictor.ok());
    auto predictions = (*predictor)->Predict(RouteAQuery(10, 4));
    ASSERT_TRUE(predictions.ok());
    EXPECT_LT(Distance(predictions->front().location, RouteA(14)), 50.0);
  }
}

TEST(HybridPredictorTrainTest, PremiseHorizonLimitsMatchedRegions) {
  // A query whose early recent movements ride route A but whose last
  // few ride route B: with a short premise horizon only route B regions
  // enter the premise, so the top pattern answer follows route B.
  HybridPredictorOptions options = SmallOptions();
  options.premise_horizon = 3;
  auto predictor = HybridPredictor::Train(MakeHistory(40), options);
  ASSERT_TRUE(predictor.ok());

  PredictiveQuery q;
  const Timestamp base = 60 * kPeriod;
  for (Timestamp t = 5; t <= 8; ++t) {
    q.recent_movements.push_back({base + t, RouteA(t)});
  }
  for (Timestamp t = 9; t <= 11; ++t) {
    q.recent_movements.push_back({base + t, RouteB(t)});
  }
  q.current_time = base + 11;
  q.query_time = base + 14;
  auto predictions = (*predictor)->ForwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  ASSERT_FALSE(predictions->empty());
  EXPECT_EQ(predictions->front().source, PredictionSource::kPattern);
  EXPECT_LT(Distance(predictions->front().location, RouteB(14)),
            Distance(predictions->front().location, RouteA(14)));
}

TEST(HybridPredictorTrainTest, WeightFunctionSetterTakesEffect) {
  auto predictor = HybridPredictor::Train(MakeHistory(40), SmallOptions());
  ASSERT_TRUE(predictor.ok());
  EXPECT_EQ((*predictor)->options().weight_function,
            WeightFunction::kLinear);
  (*predictor)->set_weight_function(WeightFunction::kQuadratic);
  EXPECT_EQ((*predictor)->options().weight_function,
            WeightFunction::kQuadratic);
  // Queries still answer fine under the new weights.
  EXPECT_TRUE((*predictor)->Predict(RouteAQuery(10, 4)).ok());
}

TEST(HybridPredictorBqpTest, WrapAroundIntervalCrossesPeriodBoundary) {
  // A distant query whose relaxation interval straddles the period
  // boundary (query offset near 0): BQP must union the [lo, T-1] and
  // [0, hi] consequence ranges rather than produce an empty interval.
  auto predictor = HybridPredictor::Train(MakeHistory(40), SmallOptions());
  ASSERT_TRUE(predictor.ok());

  PredictiveQuery q;
  const Timestamp base = 70 * kPeriod;
  // Current time late in one period, query time just after the next
  // period boundary: query offset 1, interval [1 - t_eps, 1 + t_eps]
  // wraps below zero.
  for (Timestamp t = 8; t <= 11; ++t) {
    q.recent_movements.push_back({base + t, RouteA(t)});
  }
  q.current_time = base + 11;
  q.query_time = base + kPeriod + 1;  // Length 10 >= d = 8 -> BQP.
  auto predictions = (*predictor)->BackwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  ASSERT_FALSE(predictions->empty());
  EXPECT_EQ(predictions->front().source, PredictionSource::kPattern);
  // The answer is near one of the routes at an offset within the
  // relaxation of offset 1.
  bool near_any = false;
  for (Timestamp t = 1; t <= 4 && !near_any; ++t) {
    near_any = Distance(predictions->front().location, RouteA(t)) < 300 ||
               Distance(predictions->front().location, RouteB(t)) < 300;
  }
  EXPECT_TRUE(near_any);
}

TEST(HybridPredictorBqpTest, IntervalExpansionFindsSparseConsequences) {
  // Build a predictor whose patterns exist only at even offsets by
  // training on data that dwells: region structure still forms, but we
  // verify BQP widening by querying an offset whose own consequence may
  // be missing — the answer must come from a nearby offset, not the
  // motion fallback, whenever any pattern exists in range.
  auto predictor = HybridPredictor::Train(MakeHistory(40), SmallOptions());
  ASSERT_TRUE(predictor.ok());
  const PredictiveQuery q = RouteAQuery(4, 14);
  auto predictions = (*predictor)->BackwardQuery(q);
  ASSERT_TRUE(predictions.ok());
  EXPECT_EQ(predictions->front().source, PredictionSource::kPattern);
  // Offset 18 answer close to route A or B anchor at a nearby offset.
  const double error_a = Distance(predictions->front().location, RouteA(18));
  const double error_b = Distance(predictions->front().location, RouteB(18));
  EXPECT_LT(std::min(error_a, error_b), 250.0);
}

TEST(HybridPredictorBqpTest, LastBackwardRoundIsTheFirstRoundReachingNow) {
  // The closed form against its definition: the first round r >= 1 with
  // tq - (r + 1) * t_eps <= now.
  for (Timestamp t_eps = 1; t_eps <= 6; ++t_eps) {
    for (Timestamp now = 0; now <= 12; ++now) {
      for (Timestamp tq = now + 1; tq <= now + 80; ++tq) {
        Timestamp want = 1;
        while (tq - (want + 1) * t_eps > now) ++want;
        EXPECT_EQ(LastBackwardRound(tq, now, t_eps), want)
            << "tq " << tq << ", now " << now << ", t_eps " << t_eps;
      }
    }
  }
  // A far horizon needs no walk through the rounds.
  const Timestamp far = 1000000000000;
  const Timestamp round = LastBackwardRound(far + 7, 7, 3);
  EXPECT_LE(far + 7 - (round + 1) * 3, 7);
  EXPECT_GT(far + 7 - round * 3, 7);
}

TEST(HybridPredictorBqpTest, RoundIntervalIsExactAtTheLargestTimestamps) {
  // The interval is widened around tq's offset, not around tq, so the
  // largest timestamps give the intervals of a small tq with the same
  // offset (INT64_MAX mod 20 is 7) instead of overflowing.
  for (const Timestamp tq : {INT64_MAX, INT64_MAX - 1}) {
    const Timestamp near = tq % kPeriod + kPeriod;
    for (const Timestamp t_eps : {2, 3}) {
      for (Timestamp round = 1; round <= 3; ++round) {
        const OffsetInterval want =
            BackwardRoundInterval(near, round, t_eps, kPeriod);
        const OffsetInterval got =
            BackwardRoundInterval(tq, round, t_eps, kPeriod);
        EXPECT_EQ(got.lo, want.lo) << tq << " round " << round;
        EXPECT_EQ(got.hi, want.hi) << tq << " round " << round;
        EXPECT_EQ(want.lo, ((near - round * t_eps) % kPeriod + kPeriod) %
                               kPeriod);
        EXPECT_EQ(want.hi, (near + round * t_eps) % kPeriod);
      }
    }
  }
  const OffsetInterval first = BackwardRoundInterval(INT64_MAX, 1, 2, kPeriod);
  EXPECT_EQ(first.lo, 5);
  EXPECT_EQ(first.hi, 9);
}

/// A model whose regions sit at `dwell_offsets` alone: the object rests
/// at one place per listed offset every period and wanders across a wide
/// field at every other offset, too sparsely for DBSCAN to cluster.
/// Every region but the earliest concludes some pattern.
std::unique_ptr<HybridPredictor> TrainDwellModel(
    const std::vector<Timestamp>& dwell_offsets) {
  Random rng(29);
  Trajectory history;
  for (int day = 0; day < 40; ++day) {
    for (Timestamp t = 0; t < kPeriod; ++t) {
      const bool dwells = std::find(dwell_offsets.begin(),
                                    dwell_offsets.end(),
                                    t) != dwell_offsets.end();
      Point p = dwells ? Point(1000.0 * static_cast<double>(t), 500.0)
                       : Point(rng.UniformDouble(0, 1e6),
                               rng.UniformDouble(0, 1e6));
      p.x += rng.Gaussian(0, 1.0);
      p.y += rng.Gaussian(0, 1.0);
      history.Append(p);
    }
  }
  auto trained = HybridPredictor::Train(history, SmallOptions());
  if (!trained.ok()) {
    ADD_FAILURE() << trained.status().ToString();
    return nullptr;
  }
  return std::move(*trained);
}

/// The offsets some pattern of `model` concludes at.
std::vector<Timestamp> ConsequenceOffsets(const HybridPredictor& model) {
  std::vector<Timestamp> offsets;
  for (Timestamp t = 0; t < kPeriod; ++t) {
    if (model.key_tables().TimeIdForOffset(t) >= 0) offsets.push_back(t);
  }
  return offsets;
}

/// The centres of `model`'s regions at `offset`, in region-id order.
std::vector<Point> CentresAt(const HybridPredictor& model, Timestamp offset) {
  std::vector<Point> centres;
  for (const FrequentRegion& region : model.regions().regions()) {
    if (region.offset == offset) centres.push_back(region.center);
  }
  return centres;
}

std::vector<Point> RunPoints(std::span<const Point> run) {
  return {run.begin(), run.end()};
}

/// A distant query from `now` at `tq`, its recent movements off every
/// region.
PredictiveQuery DwellQuery(Timestamp now, Timestamp tq) {
  PredictiveQuery q;
  for (Timestamp t = now - 3; t <= now; ++t) {
    q.recent_movements.push_back(
        {t, Point(50.0 * static_cast<double>(t - now), 9000.0)});
  }
  q.current_time = now;
  q.query_time = tq;
  q.k = 3;
  return q;
}

TEST(HybridPredictorBqpTest, BoundHoldsOnlyTheAnsweringRoundsCentres) {
  // Consequences at offsets 14 and 18. From tq offset 11 (t_eps 2),
  // round 1's [9, 13] holds neither and round 2's [7, 15] holds 14; the
  // last round (5) spans the period and would reach 18 as well.
  const auto model = TrainDwellModel({2, 14, 18});
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(ConsequenceOffsets(*model), (std::vector<Timestamp>{14, 18}));
  const Timestamp now = 50 * kPeriod - 1;
  const Timestamp tq = now + 12;
  ASSERT_EQ(tq % kPeriod, 11);
  ASSERT_EQ(LastBackwardRound(tq, now, 2), 5);
  EXPECT_EQ(model->BackwardAnswerRound(now, tq), 2);

  const CentreRuns bound = model->PatternAnswerCentres(now, tq);
  EXPECT_EQ(RunPoints(bound.runs[0]), CentresAt(*model, 14));
  EXPECT_TRUE(bound.runs[1].empty());

  const auto answer = model->Predict(DwellQuery(now, tq));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_FALSE(answer->empty());
  for (const Prediction& p : *answer) {
    EXPECT_EQ(p.source, PredictionSource::kPattern);
    EXPECT_EQ(model->regions().Region(p.consequence_region).offset, 14);
  }
}

TEST(HybridPredictorBqpTest, NoAnsweringRoundLeavesOnlyTheMotionFunction) {
  // The one consequence offset is 14. From tq offset 4 at horizon 8 the
  // last round is 3, whose [18, 10] (wrapped) still misses 14.
  const auto model = TrainDwellModel({2, 14});
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(ConsequenceOffsets(*model), (std::vector<Timestamp>{14}));
  const Timestamp now = 50 * kPeriod - 4;
  const Timestamp tq = now + 8;
  ASSERT_EQ(tq % kPeriod, 4);
  ASSERT_EQ(LastBackwardRound(tq, now, 2), 3);
  EXPECT_EQ(model->BackwardAnswerRound(now, tq), std::nullopt);

  const CentreRuns bound = model->PatternAnswerCentres(now, tq);
  EXPECT_TRUE(bound.runs[0].empty());
  EXPECT_TRUE(bound.runs[1].empty());

  const auto answer = model->Predict(DwellQuery(now, tq));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_EQ(answer->front().source, PredictionSource::kMotionFunction);
  EXPECT_EQ(answer->front().degraded, DegradedReason::kNone);

  // Four steps later (offset 8) round 3's [2, 14] reaches 14.
  EXPECT_EQ(model->BackwardAnswerRound(now, tq + 4), 3);
}

TEST(HybridPredictorBqpTest, WrappedAnsweringIntervalBoundsBothRuns) {
  // Consequences at offsets 1 and 19. From tq offset 0, round 1's
  // interval wraps to [18, 19] and [0, 2], and each run holds one.
  const auto model = TrainDwellModel({0, 1, 19});
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(ConsequenceOffsets(*model), (std::vector<Timestamp>{1, 19}));
  const Timestamp now = 50 * kPeriod - 10;
  const Timestamp tq = now + 10;
  EXPECT_EQ(model->BackwardAnswerRound(now, tq), 1);

  const CentreRuns bound = model->PatternAnswerCentres(now, tq);
  EXPECT_EQ(RunPoints(bound.runs[0]), CentresAt(*model, 19));
  EXPECT_EQ(RunPoints(bound.runs[1]), CentresAt(*model, 1));
  EXPECT_FALSE(bound.runs[0].empty());
  EXPECT_FALSE(bound.runs[1].empty());

  const auto answer = model->Predict(DwellQuery(now, tq));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_FALSE(answer->empty());
  for (const Prediction& p : *answer) {
    EXPECT_EQ(p.source, PredictionSource::kPattern);
    const Timestamp offset =
        model->regions().Region(p.consequence_region).offset;
    EXPECT_TRUE(offset == 1 || offset == 19) << offset;
  }
}

TEST(HybridPredictorCountersTest, ConcurrentPredictsLoseNoCounts) {
  // One trained model shared by four threads, each predicting forward
  // and backward queries: every thread's answers equal the ones a single
  // thread got before the threads started (under TSan, also a race check
  // of the shared model).
  auto predictor = HybridPredictor::Train(MakeHistory(40), SmallOptions());
  ASSERT_TRUE(predictor.ok());
  const HybridPredictor& model = **predictor;
  std::vector<PredictiveQuery> queries;
  std::vector<std::vector<Prediction>> want;
  for (Timestamp length : {2, 4, 8, 12}) {
    PredictiveQuery q = RouteAQuery(length < 8 ? 10 : 5, length);
    q.k = 3;
    const auto answer = model.Predict(q);
    ASSERT_TRUE(answer.ok());
    queries.push_back(q);
    want.push_back(*answer);
  }
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::vector<std::vector<std::vector<Prediction>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const auto answer = model.Predict(queries[(t + i) % queries.size()]);
        got[t].push_back(answer.ok() ? *answer : std::vector<Prediction>{});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), static_cast<size_t>(kQueriesPerThread));
    for (int i = 0; i < kQueriesPerThread; ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + ", query " +
                   std::to_string(i));
      EXPECT_TRUE(SameAnswers(got[t][i], want[(t + i) % queries.size()]));
    }
  }
}

TEST(HybridPredictorUpdateTest, WithNewHistoryAddsToAnUntouchedSource) {
  // The §V-B update builds a fresh predictor: the source keeps its
  // pattern set and answers, the result keeps every source pattern
  // under its id and appends the added ones, and two identical sources
  // yield identical results.
  auto source = HybridPredictor::Train(MakeHistory(20), SmallOptions());
  auto twin = HybridPredictor::Train(MakeHistory(20), SmallOptions());
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(twin.ok());

  const Trajectory fresh = MakeHistory(10, 99);
  const std::vector<TrajectoryPattern> before = (*source)->PatternTable();

  auto snapshot = (*source)->WithNewHistory(fresh);
  ASSERT_TRUE(snapshot.ok());
  auto twin_snapshot = (*twin)->WithNewHistory(fresh);
  ASSERT_TRUE(twin_snapshot.ok());

  // The source of WithNewHistory is unchanged.
  EXPECT_EQ((*source)->PatternTable().size(), before.size());

  const std::vector<TrajectoryPattern> after = (*snapshot)->PatternTable();
  const size_t added = after.size() - before.size();
  ASSERT_GE(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].premise, before[i].premise);
    EXPECT_EQ(after[i].consequence, before[i].consequence);
    EXPECT_EQ(after[i].confidence, before[i].confidence);
  }
  EXPECT_EQ((*snapshot)->summary().num_patterns, before.size() + added);
  EXPECT_EQ((*snapshot)->tpt().size(), (*twin_snapshot)->tpt().size());
  EXPECT_EQ((*snapshot)->summary().tpt_height,
            (*twin_snapshot)->summary().tpt_height);

  for (Timestamp tc = 4; tc <= 14; tc += 2) {
    for (Timestamp length : {2, 4, 9, 12}) {
      const PredictiveQuery q = RouteAQuery(tc, length, 4);
      auto a = (*twin_snapshot)->Predict(q);
      auto b = (*snapshot)->Predict(q);
      auto untouched = (*source)->Predict(q);
      auto reference = (*twin)->Predict(q);
      ASSERT_EQ(a.ok(), b.ok());
      ASSERT_EQ(untouched.ok(), reference.ok());
      if (untouched.ok()) {
        ASSERT_EQ(untouched->size(), reference->size());
        for (size_t i = 0; i < untouched->size(); ++i) {
          EXPECT_EQ((*untouched)[i].location.x, (*reference)[i].location.x);
          EXPECT_EQ((*untouched)[i].location.y, (*reference)[i].location.y);
          EXPECT_EQ((*untouched)[i].pattern_id, (*reference)[i].pattern_id);
        }
      }
      if (!a.ok()) continue;
      ASSERT_EQ(a->size(), b->size());
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].location.x, (*b)[i].location.x);
        EXPECT_EQ((*a)[i].location.y, (*b)[i].location.y);
        EXPECT_EQ((*a)[i].score, (*b)[i].score);
        EXPECT_EQ((*a)[i].source, (*b)[i].source);
        EXPECT_EQ((*a)[i].pattern_id, (*b)[i].pattern_id);
      }
    }
  }
}

/// 40 periods in which offsets 0..9 follow route A (probability 0.7) and
/// a route-B day follows route B for offsets 0..4 only; every other
/// sample is scattered over the whole extent. So patterns conclude only
/// at offsets 1..9, and those at 5..9 never have a route-B premise.
Trajectory MakeSparseHistory() {
  Random rng(5);
  Trajectory traj;
  for (int d = 0; d < 40; ++d) {
    const bool on_a = rng.Bernoulli(0.7);
    for (Timestamp t = 0; t < kPeriod; ++t) {
      Point p;
      if (t < 10 && (on_a || t < 5)) {
        p = on_a ? RouteA(t) : RouteB(t);
        p.x += rng.Gaussian(0, 1.0);
        p.y += rng.Gaussian(0, 1.0);
      } else {
        p = {rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
      }
      traj.Append(p);
    }
  }
  return traj;
}

/// Far from every frequent region: a query from here has no premise.
Point Offroute(Timestamp t) {
  return {5000.0 + 37.0 * static_cast<double>(t),
          7000.0 - 11.0 * static_cast<double>(t)};
}

struct GoldenPrediction {
  double x = 0.0;
  double y = 0.0;
  double score = 0.0;
  double confidence = 0.0;
  int pattern_id = -1;
  PredictionSource source = PredictionSource::kMotionFunction;
  DegradedReason degraded = DegradedReason::kNone;
};

struct GoldenQuery {
  const char* route_name;
  Point (*route)(Timestamp);
  Timestamp tc_offset;
  Timestamp length;
  bool expired;
  std::vector<GoldenPrediction> want;
  TptSearchStats tpt;  // Summed over the query's searches.
};

TEST(HybridPredictorGoldenTest, EveryRoutePinsItsExactAnswer) {
  // Exact answers of each FQP/BQP route on a seeded model: locations,
  // scores and confidences bit for bit, and the search effort its
  // context sums. d = 4, t_eps = 2, k = 3.
  HybridPredictorOptions options = SmallOptions();
  options.distant_threshold = 4;
  auto trained = HybridPredictor::Train(MakeSparseHistory(), options);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const HybridPredictor& predictor = **trained;
  ASSERT_EQ(predictor.regions().NumRegions(), 15u);
  ASSERT_EQ(predictor.tpt().size(), 175u);

  constexpr PredictionSource kPattern = PredictionSource::kPattern;
  constexpr PredictionSource kMotion = PredictionSource::kMotionFunction;
  constexpr DegradedReason kNone = DegradedReason::kNone;
  const std::vector<GoldenQuery> queries = {
      // FQP, pattern hit at offset 5: three full premise matches, tied
      // on score and confidence, ordered by pattern id.
      {"route A",
       RouteA,
       3,
       2,
       false,
       {{0x1.12f8bc0c8d8fep+9, 0x1.8fcb70df16a4p+6, 0x1p+0, 0x1p+0, 4,
         kPattern, kNone},
        {0x1.12f8bc0c8d8fep+9, 0x1.8fcb70df16a4p+6, 0x1p+0, 0x1p+0, 16,
         kPattern, kNone},
        {0x1.12f8bc0c8d8fep+9, 0x1.8fcb70df16a4p+6, 0x1p+0, 0x1p+0, 26,
         kPattern, kNone}},
       {2, 35, 51}},
      // FQP fallback, no premise: the search never runs.
      {"off route",
       Offroute,
       15,
       2,
       false,
       {{0x1.5fdp+12, 0x1.a9dp+12, 0x0p+0, 0x0p+0, -1, kMotion, kNone}},
       {0, 0, 0}},
      // FQP fallback, no hit: a route-B premise searched at offset 6.
      {"route B",
       RouteB,
       4,
       2,
       false,
       {{0x1.45p+9, 0x1.2cp+10, 0x0p+0, 0x0p+0, -1, kMotion, kNone}},
       {2, 35, 41}},
      // BQP at offset 13: round 1 ([11, 15]) has no consequence to
      // search, round 2 ([9, 17]) hits offset 9.
      {"route A",
       RouteA,
       5,
       8,
       false,
       {{0x1.db007584bdcacp+9, 0x1.8fc752b026085p+6, 0x1p-1, 0x1p+0, 30,
         kPattern, kNone},
        {0x1.db007584bdcacp+9, 0x1.8fc752b026085p+6, 0x1p-1, 0x1p+0, 38,
         kPattern, kNone},
        {0x1.db007584bdcacp+9, 0x1.8fc752b026085p+6, 0x1p-1, 0x1p+0, 44,
         kPattern, kNone}},
       {3, 64, 64}},
      // BQP at offset 1 of the next period: round 1 wraps to [19, 3].
      {"route A",
       RouteA,
       9,
       12,
       false,
       {{0x1.2c4a27495af7ap+7, 0x1.9086c22eec7ebp+6, 0x1p+0, 0x1p+0, 0,
         kPattern, kNone},
        {0x1.2d4ed62af6077p+7, 0x1.2bef3eaa5906ap+10, 0x1p+0, 0x1p+0, 9,
         kPattern, kNone},
        {0x1.f4491deed2f5cp+7, 0x1.8f3f8a641c887p+6, 0x1.5555555555556p-1,
         0x1p+0, 1, kPattern, kNone}},
       {2, 36, 36}},
      // BQP at offset 15, last round 2: neither [13, 17] nor [11, 19]
      // holds a consequence, so it falls back there.
      {"route A",
       RouteA,
       9,
       6,
       false,
       {{0x1.838p+10, 0x1.9p+6, 0x0p+0, 0x0p+0, -1, kMotion, kNone}},
       {0, 0, 0}},
      // The first query again under an expired deadline: degraded RMF.
      {"route A",
       RouteA,
       3,
       2,
       true,
       {{0x1.13p+9, 0x1.9p+6, 0x0p+0, 0x0p+0, -1, kMotion,
         DegradedReason::kDeadlineExceeded}},
       {0, 0, 0}},
  };

  TptSearchStats total_tpt;
  for (size_t i = 0; i < queries.size(); ++i) {
    const GoldenQuery& g = queries[i];
    SCOPED_TRACE("query " + std::to_string(i) + " (" + g.route_name +
                 ", tc offset " + std::to_string(g.tc_offset) +
                 ", length " + std::to_string(g.length) + ")");
    PredictiveQuery q;
    const Timestamp base = 50 * kPeriod;
    for (Timestamp t = g.tc_offset - 3; t <= g.tc_offset; ++t) {
      q.recent_movements.push_back({base + t, g.route(t)});
    }
    q.current_time = base + g.tc_offset;
    q.query_time = q.current_time + g.length;
    q.k = 3;
    if (g.expired) q.deadline = Deadline::Expired();
    QueryContext ctx;
    ctx.SetLaneCount(1);
    q.context = &ctx;

    const auto answer = predictor.Predict(q);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->size(), g.want.size());
    for (size_t j = 0; j < g.want.size(); ++j) {
      const Prediction& got = (*answer)[j];
      const GoldenPrediction& want = g.want[j];
      SCOPED_TRACE("prediction " + std::to_string(j));
      EXPECT_EQ(got.location.x, want.x);
      EXPECT_EQ(got.location.y, want.y);
      EXPECT_EQ(got.score, want.score);
      EXPECT_EQ(got.confidence, want.confidence);
      EXPECT_EQ(got.pattern_id, want.pattern_id);
      EXPECT_EQ(got.source, want.source);
      EXPECT_EQ(got.degraded, want.degraded);
    }
    const QueryContext::Totals totals = ctx.totals();
    EXPECT_EQ(totals.tpt_nodes_visited, g.tpt.nodes_visited);
    EXPECT_EQ(totals.tpt_entries_tested, g.tpt.entries_tested);
    EXPECT_EQ(totals.tpt_blocks_scanned, g.tpt.blocks_scanned);
    total_tpt.nodes_visited += totals.tpt_nodes_visited;
    total_tpt.entries_tested += totals.tpt_entries_tested;
    total_tpt.blocks_scanned += totals.tpt_blocks_scanned;
  }
  EXPECT_EQ(total_tpt.nodes_visited, 9u);
  EXPECT_EQ(total_tpt.entries_tested, 170u);
  EXPECT_EQ(total_tpt.blocks_scanned, 192u);
}

/// RankAndTake's documented order, written out independently for the
/// oracle: score descending, then confidence descending, then pattern id
/// ascending.
bool OracleRanksBefore(const ScoredHit& a, const ScoredHit& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.pattern_id < b.pattern_id;
}

TEST(RankAndTakeTest, MatchesFullStableSortUnderTheTotalOrder) {
  // Four consequence regions with distinct centres and MBRs.
  FrequentRegionSet regions;
  for (int r = 0; r < 4; ++r) {
    FrequentRegion region;
    region.id = r;
    region.offset = r;
    region.center = {10.0 * r, -3.0 * r};
    region.mbr = BoundingBox({10.0 * r - 1, -3.0 * r - 1},
                             {10.0 * r + 1, -3.0 * r + 1});
    regions.AddRegion(region);
  }

  Random rng(20260417);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    // Few distinct scores and confidences, so most hits tie on both and
    // only the pattern id separates them.
    std::vector<LeafPayload> patterns(static_cast<size_t>(n));
    std::vector<int> ids(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = 3 * i + 1;
    for (int i = n - 1; i > 0; --i) {
      std::swap(ids[static_cast<size_t>(i)],
                ids[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
    std::vector<ScoredHit> hits;
    for (int i = 0; i < n; ++i) {
      LeafPayload& p = patterns[static_cast<size_t>(i)];
      p.pattern_id = ids[static_cast<size_t>(i)];
      p.confidence = 0.5 * static_cast<double>(rng.UniformInt(1, 2));
      p.consequence_region = static_cast<int>(rng.Uniform(4));
      const double score =
          0.25 * static_cast<double>(rng.UniformInt(1, 3)) * p.confidence;
      hits.push_back({score, p.confidence, p.pattern_id, &p});
    }

    std::vector<ScoredHit> expected = hits;
    std::stable_sort(expected.begin(), expected.end(), OracleRanksBefore);

    for (const int k : {1, 3, n, n + 5, INT_MAX}) {
      std::vector<ScoredHit> scratch = hits;
      const std::vector<Prediction> ranked =
          RankAndTake(&scratch, k, regions);
      const size_t want = std::min(static_cast<size_t>(k), hits.size());
      ASSERT_EQ(ranked.size(), want) << "k=" << k << " n=" << n;
      EXPECT_LE(ranked.capacity(), want) << "allocation sized by k";
      for (size_t i = 0; i < want; ++i) {
        const ScoredHit& e = expected[i];
        const FrequentRegion& region =
            regions.Region(e.payload->consequence_region);
        SCOPED_TRACE("k=" + std::to_string(k) + " rank " + std::to_string(i));
        EXPECT_EQ(ranked[i].pattern_id, e.pattern_id);
        EXPECT_EQ(ranked[i].score, e.score);
        EXPECT_EQ(ranked[i].confidence, e.confidence);
        EXPECT_EQ(ranked[i].source, PredictionSource::kPattern);
        EXPECT_EQ(ranked[i].consequence_region,
                  e.payload->consequence_region);
        EXPECT_EQ(ranked[i].location, region.center);
        EXPECT_EQ(ranked[i].uncertainty.ToString(), region.mbr.ToString());
      }
    }
  }
}

}  // namespace
}  // namespace hpm
