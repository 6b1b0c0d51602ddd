// End-to-end pipeline tests: dataset generation -> discovery -> mining ->
// TPT -> hybrid prediction -> evaluation, on scaled-down versions of the
// paper's experimental setup.

#include <gtest/gtest.h>

#include "core/hybrid_predictor.h"
#include "datagen/datasets.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "mining/transaction.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 60;
constexpr int kTrainSubs = 40;
constexpr int kTotalSubs = 50;

PeriodicGeneratorConfig SmallConfig(DatasetKind kind) {
  PeriodicGeneratorConfig config = DefaultConfig(kind);
  config.period = kPeriod;
  config.num_sub_trajectories = kTotalSubs;
  return config;
}

HybridPredictorOptions Options() {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 30.0;
  options.regions.dbscan.min_pts = 4;
  options.regions.limit_sub_trajectories = kTrainSubs;
  options.mining.min_confidence = 0.3;
  options.mining.min_support = 3;
  options.mining.max_pattern_length = 3;
  options.mining.premise_window = 5;
  options.distant_threshold = 15;
  options.time_relaxation = 2;
  options.region_match_slack = 10.0;
  return options;
}

WorkloadConfig Workload(Timestamp length, uint64_t seed = 5) {
  WorkloadConfig c;
  c.num_queries = 30;
  c.recent_length = 8;
  c.prediction_length = length;
  c.seed = seed;
  return c;
}

class IntegrationTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(IntegrationTest, FullPipelineTrainsAndAnswers) {
  const Dataset dataset = MakeDataset(GetParam(), SmallConfig(GetParam()));
  auto predictor = HybridPredictor::Train(dataset.trajectory, Options());
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  EXPECT_GT((*predictor)->summary().num_frequent_regions, 0u);
  EXPECT_GT((*predictor)->summary().num_patterns, 0u);
  EXPECT_TRUE((*predictor)->tpt().CheckInvariants().ok());

  auto cases =
      MakeQueryCases(dataset.trajectory, kPeriod, kTrainSubs, Workload(10));
  ASSERT_TRUE(cases.ok());
  auto result = EvaluateHpm(**predictor, *cases);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pattern_answers + result->motion_answers, 30);
}

TEST_P(IntegrationTest, HpmNeverMuchWorseThanRmfAtDistantTime) {
  // Paper Fig. 5: "HPM errors do not exceed RMF errors throughout".
  const Dataset dataset = MakeDataset(GetParam(), SmallConfig(GetParam()));
  auto predictor = HybridPredictor::Train(dataset.trajectory, Options());
  ASSERT_TRUE(predictor.ok());
  auto cases =
      MakeQueryCases(dataset.trajectory, kPeriod, kTrainSubs, Workload(30));
  ASSERT_TRUE(cases.ok());
  auto hpm = EvaluateHpm(**predictor, *cases);
  auto rmf = EvaluateRmf(*cases);
  ASSERT_TRUE(hpm.ok());
  ASSERT_TRUE(rmf.ok());
  // Allow slack for sampling noise at this reduced scale (the strict
  // claim is exercised at full scale by bench/fig5), but HPM must not
  // lose badly.
  EXPECT_LT(hpm->mean_error, rmf->mean_error * 1.35);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, IntegrationTest,
                         ::testing::Values(DatasetKind::kBike,
                                           DatasetKind::kCow,
                                           DatasetKind::kCar,
                                           DatasetKind::kAirplane));

TEST(IntegrationBikeTest, StrongPatternsBeatRmfClearlyAtLongHorizon) {
  const Dataset dataset =
      MakeDataset(DatasetKind::kBike, SmallConfig(DatasetKind::kBike));
  auto predictor = HybridPredictor::Train(dataset.trajectory, Options());
  ASSERT_TRUE(predictor.ok());
  auto cases =
      MakeQueryCases(dataset.trajectory, kPeriod, kTrainSubs, Workload(40));
  ASSERT_TRUE(cases.ok());
  auto hpm = EvaluateHpm(**predictor, *cases);
  auto rmf = EvaluateRmf(*cases);
  ASSERT_TRUE(hpm.ok());
  ASSERT_TRUE(rmf.ok());
  EXPECT_LT(hpm->mean_error * 2.0, rmf->mean_error);
}

TEST(IntegrationMiningTest, MorePatternsWithLargerEps) {
  // Paper Fig. 7(a): the number of patterns grows with Eps. Strict
  // monotonicity can dip locally when a large Eps merges two routes'
  // clusters into one region, so compare the sweep's endpoints.
  const Dataset dataset =
      MakeDataset(DatasetKind::kBike, SmallConfig(DatasetKind::kBike));
  std::vector<size_t> counts;
  for (const double eps : {10.0, 30.0, 60.0}) {
    HybridPredictorOptions options = Options();
    options.regions.dbscan.eps = eps;
    auto predictor = HybridPredictor::Train(dataset.trajectory, options);
    ASSERT_TRUE(predictor.ok());
    counts.push_back((*predictor)->summary().num_patterns);
  }
  EXPECT_GT(counts.back(), counts.front());
  EXPECT_GT(counts.back(), 0u);
}

TEST(IntegrationMiningTest, FewerPatternsWithHigherMinPts) {
  // Paper Fig. 8(a): the number of patterns falls as MinPts rises.
  const Dataset dataset =
      MakeDataset(DatasetKind::kCar, SmallConfig(DatasetKind::kCar));
  size_t previous = SIZE_MAX;
  for (const int min_pts : {3, 10, 25}) {
    HybridPredictorOptions options = Options();
    options.regions.dbscan.min_pts = min_pts;
    auto predictor = HybridPredictor::Train(dataset.trajectory, options);
    ASSERT_TRUE(predictor.ok());
    EXPECT_LE((*predictor)->summary().num_patterns, previous);
    previous = (*predictor)->summary().num_patterns;
  }
}

TEST(IntegrationMiningTest, FewerPatternsWithHigherConfidence) {
  // Paper Fig. 9(a).
  const Dataset dataset =
      MakeDataset(DatasetKind::kCow, SmallConfig(DatasetKind::kCow));
  size_t previous = SIZE_MAX;
  for (const double conf : {0.0, 0.4, 0.8}) {
    HybridPredictorOptions options = Options();
    options.mining.min_confidence = conf;
    auto predictor = HybridPredictor::Train(dataset.trajectory, options);
    ASSERT_TRUE(predictor.ok());
    EXPECT_LE((*predictor)->summary().num_patterns, previous);
    previous = (*predictor)->summary().num_patterns;
  }
}

TEST(IntegrationMiningTest, StrongerPatternDataYieldsMorePatterns) {
  // Bike (f = 0.9) must discover more patterns than Airplane (f = 0.4)
  // under identical mining parameters — the premise of every
  // per-dataset contrast in §VII.
  const Dataset bike =
      MakeDataset(DatasetKind::kBike, SmallConfig(DatasetKind::kBike));
  const Dataset airplane = MakeDataset(DatasetKind::kAirplane,
                                       SmallConfig(DatasetKind::kAirplane));
  auto bike_predictor = HybridPredictor::Train(bike.trajectory, Options());
  auto airplane_predictor =
      HybridPredictor::Train(airplane.trajectory, Options());
  ASSERT_TRUE(bike_predictor.ok());
  ASSERT_TRUE(airplane_predictor.ok());
  EXPECT_GT((*bike_predictor)->summary().num_patterns,
            (*airplane_predictor)->summary().num_patterns);
}

TEST(IntegrationCountersTest, MotionFallbackRateFallsWithMoreHistory) {
  // Paper Fig. 10's mechanism: more sub-trajectories -> more patterns ->
  // fewer RMF calls.
  const Dataset dataset =
      MakeDataset(DatasetKind::kCar, SmallConfig(DatasetKind::kCar));
  auto cases =
      MakeQueryCases(dataset.trajectory, kPeriod, kTrainSubs, Workload(10));
  ASSERT_TRUE(cases.ok());

  int fallbacks_small = 0, fallbacks_large = 0;
  {
    HybridPredictorOptions options = Options();
    options.regions.limit_sub_trajectories = 6;
    auto predictor = HybridPredictor::Train(dataset.trajectory, options);
    ASSERT_TRUE(predictor.ok());
    const auto result = EvaluateHpm(**predictor, *cases);
    ASSERT_TRUE(result.ok());
    fallbacks_small = result->motion_answers;
  }
  {
    auto predictor = HybridPredictor::Train(dataset.trajectory, Options());
    ASSERT_TRUE(predictor.ok());
    const auto result = EvaluateHpm(**predictor, *cases);
    ASSERT_TRUE(result.ok());
    fallbacks_large = result->motion_answers;
  }
  EXPECT_LE(fallbacks_large, fallbacks_small);
}

TEST(IntegrationDeterminismTest, IdenticalRunsProduceIdenticalModels) {
  // Everything is seeded: two full pipelines over the same inputs must
  // agree bit-for-bit in patterns and answers (this is what makes every
  // bench table reproducible).
  const Dataset a =
      MakeDataset(DatasetKind::kCar, SmallConfig(DatasetKind::kCar));
  const Dataset b =
      MakeDataset(DatasetKind::kCar, SmallConfig(DatasetKind::kCar));
  auto pa = HybridPredictor::Train(a.trajectory, Options());
  auto pb = HybridPredictor::Train(b.trajectory, Options());
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  ASSERT_EQ((*pa)->summary().num_patterns, (*pb)->summary().num_patterns);
  ASSERT_EQ((*pa)->summary().num_frequent_regions,
            (*pb)->summary().num_frequent_regions);
  const std::vector<TrajectoryPattern> table_a = (*pa)->PatternTable();
  const std::vector<TrajectoryPattern> table_b = (*pb)->PatternTable();
  ASSERT_EQ(table_a.size(), table_b.size());
  for (size_t i = 0; i < table_a.size(); ++i) {
    EXPECT_EQ(table_a[i].premise, table_b[i].premise);
    EXPECT_EQ(table_a[i].consequence, table_b[i].consequence);
    EXPECT_DOUBLE_EQ(table_a[i].confidence, table_b[i].confidence);
  }
  auto cases = MakeQueryCases(a.trajectory, kPeriod, kTrainSubs,
                              Workload(20));
  ASSERT_TRUE(cases.ok());
  for (const QueryCase& qc : *cases) {
    auto ra = (*pa)->Predict(qc.query);
    auto rb = (*pb)->Predict(qc.query);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->front().location, rb->front().location);
    EXPECT_DOUBLE_EQ(ra->front().score, rb->front().score);
  }
}

TEST(IntegrationUncertaintyTest, PatternAnswersCarryRegionMbr) {
  const Dataset dataset =
      MakeDataset(DatasetKind::kBike, SmallConfig(DatasetKind::kBike));
  auto predictor = HybridPredictor::Train(dataset.trajectory, Options());
  ASSERT_TRUE(predictor.ok());
  auto cases = MakeQueryCases(dataset.trajectory, kPeriod, kTrainSubs,
                              Workload(10));
  ASSERT_TRUE(cases.ok());
  int pattern_answers = 0;
  for (const QueryCase& qc : *cases) {
    auto predictions = (*predictor)->Predict(qc.query);
    ASSERT_TRUE(predictions.ok());
    const Prediction& top = predictions->front();
    if (top.source == PredictionSource::kPattern) {
      ++pattern_answers;
      ASSERT_FALSE(top.uncertainty.IsEmpty());
      // The returned location is the region's centroid, inside its MBR.
      EXPECT_TRUE(top.uncertainty.Contains(top.location));
    } else {
      EXPECT_TRUE(top.uncertainty.IsEmpty());
    }
  }
  EXPECT_GT(pattern_answers, 0);
}

TEST(IntegrationPruningTest, PruningPreservesEmittedPatterns) {
  // Theorem 1 in vivo: pruning changes the candidate accounting but not
  // the set of prediction-usable patterns.
  const Dataset dataset =
      MakeDataset(DatasetKind::kCow, SmallConfig(DatasetKind::kCow));
  auto discovery =
      MineFrequentRegions(dataset.trajectory, Options().regions);
  ASSERT_TRUE(discovery.ok());
  const auto transactions = BuildTransactions(*discovery);

  AprioriParams pruned = Options().mining;
  AprioriParams unpruned = pruned;
  unpruned.enable_pruning = false;
  auto with = MineTrajectoryPatterns(transactions, discovery->region_set,
                                     pruned);
  auto without = MineTrajectoryPatterns(transactions, discovery->region_set,
                                        unpruned);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->patterns.size(), without->patterns.size());
  const size_t extra = without->stats.rules_pruned_time_order +
                       without->stats.rules_pruned_multi_consequence;
  EXPECT_GT(extra, 0u);
}

}  // namespace
}  // namespace hpm
