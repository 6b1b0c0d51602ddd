// Property suite: metamorphic query laws on a randomly trained store.
// No oracle computes the "right" answer here; instead, related queries
// must relate correctly: growing a range window can only gain hits, and
// asking for more neighbours or more predictions extends — never
// reorders — the shorter answer.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 10;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

struct MetamorphicCase {
  std::vector<Trajectory> histories;
  BoundingBox base_range;
  double grow_x = 0.0;
  double grow_y = 0.0;
  Point knn_target;
  Timestamp query_delta = 1;
};

MetamorphicCase GenCase(Random& rng) {
  MetamorphicCase c;
  const int objects = static_cast<int>(2 + rng.Uniform(4));
  for (int i = 0; i < objects; ++i) {
    const int periods = static_cast<int>(2 + rng.Uniform(5));
    c.histories.push_back(proptest::PeriodicHistory(
        rng, kPeriod, periods, kExtent, rng.UniformDouble(1.0, 3.0)));
  }
  c.base_range = proptest::RandomBox(rng, kExtent);
  c.grow_x = rng.UniformDouble(0.0, 3000.0);
  c.grow_y = rng.UniformDouble(0.0, 3000.0);
  c.knn_target = proptest::RandomPoint(rng, kExtent);
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(15));
  return c;
}

std::set<ObjectId> HitIds(const std::vector<RangeHit>& hits) {
  std::set<ObjectId> ids;
  for (const RangeHit& hit : hits) ids.insert(hit.id);
  return ids;
}

std::string CheckMetamorphicLaws(const MetamorphicCase& input) {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 12.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 5;
  options.predictor.region_match_slack = 6.0;
  options.min_training_periods = 4;
  options.recent_window = 5;
  options.num_shards = 4;
  options.query_threads = 1;

  MovingObjectStore store(options);
  Timestamp max_now = 0;
  for (size_t i = 0; i < input.histories.size(); ++i) {
    const Status status = store.ReportTrajectory(
        static_cast<ObjectId>(i) * 11 + 3, input.histories[i]);
    if (!status.ok()) return "ReportTrajectory failed: " + status.ToString();
    max_now = std::max(
        max_now, static_cast<Timestamp>(input.histories[i].size()));
  }
  const Timestamp tq = max_now + input.query_delta;

  // Law 1: range-query monotonicity — a window that grows in every
  // direction can lose no hit.
  const BoundingBox grown(
      {input.base_range.min().x - input.grow_x,
       input.base_range.min().y - input.grow_y},
      {input.base_range.max().x + input.grow_x,
       input.base_range.max().y + input.grow_y});
  const auto small_hits = store.PredictiveRangeQuery(input.base_range, tq);
  const auto big_hits = store.PredictiveRangeQuery(grown, tq);
  if (!small_hits.ok() || !big_hits.ok()) {
    return "range query failed: " +
           (small_hits.ok() ? big_hits.status() : small_hits.status())
               .ToString();
  }
  const std::set<ObjectId> small_ids = HitIds(small_hits->hits);
  const std::set<ObjectId> big_ids = HitIds(big_hits->hits);
  for (const ObjectId id : small_ids) {
    if (big_ids.count(id) == 0) {
      return "object " + std::to_string(id) +
             " matched the small window but not the grown one";
    }
  }

  // Law 2: kNN k-prefix consistency — nearest-first order must agree
  // between n and n+m neighbours on the shared prefix.
  const int n = 2;
  const int extra = 3;
  const auto knn_short =
      store.PredictiveNearestNeighbors(input.knn_target, tq, n);
  const auto knn_long =
      store.PredictiveNearestNeighbors(input.knn_target, tq, n + extra);
  if (!knn_short.ok() || !knn_long.ok()) {
    return "kNN failed: " +
           (knn_short.ok() ? knn_long.status() : knn_short.status())
               .ToString();
  }
  if (knn_short->hits.size() >
      std::min(static_cast<size_t>(n), knn_long->hits.size())) {
    return "kNN returned more than the requested n";
  }
  for (size_t i = 0; i < knn_short->hits.size(); ++i) {
    if (knn_short->hits[i].id != knn_long->hits[i].id) {
      return "kNN prefix diverges at position " + std::to_string(i);
    }
  }

  // Law 3: top-k prefix consistency of point predictions.
  for (const ObjectId id : store.ObjectIds()) {
    const Timestamp object_tq =
        static_cast<Timestamp>(store.HistoryLength(id)) - 1 +
        input.query_delta;
    const auto top1 = store.PredictLocation(id, object_tq, 1);
    const auto top3 = store.PredictLocation(id, object_tq, 3);
    if (top1.ok() != top3.ok()) {
      return "top-k status differs for object " + std::to_string(id);
    }
    if (!top1.ok()) continue;
    if (top1->size() > 1) {
      return "k=1 returned " + std::to_string(top1->size()) + " predictions";
    }
    if (top3->size() < top1->size()) {
      return "k=3 returned fewer predictions than k=1";
    }
    for (size_t i = 0; i < top1->size(); ++i) {
      if (!((*top1)[i].location == (*top3)[i].location) ||
          (*top1)[i].score != (*top3)[i].score) {
        return "top-k prefix diverges for object " + std::to_string(id);
      }
    }
  }
  return "";
}

TEST(PropQueryMetamorphicTest, RangeGrowthAndPrefixLawsHold) {
  Property<MetamorphicCase> property("query-metamorphic-laws", GenCase,
                                     CheckMetamorphicLaws);
  RunnerOptions options;
  options.num_cases = 15;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
