// Property suite: the sharded MovingObjectStore vs a single-shard,
// single-threaded reference store. Sharding and query fan-out are pure
// serving-layer mechanics — replaying one random op sequence into both
// configurations must leave observably identical fleets.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 10;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

struct StoreOp {
  ObjectId id = 0;
  Point location;
};

struct WorkloadCase {
  std::vector<StoreOp> ops;
  std::vector<BoundingBox> range_queries;
  Timestamp query_delta = 1;
};

ObjectStoreOptions StoreOptions(int num_shards, int query_threads) {
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
  options.num_shards = num_shards;
  options.query_threads = query_threads;
  return options;
}

WorkloadCase GenCase(Random& rng) {
  WorkloadCase c;
  const int num_objects = static_cast<int>(1 + rng.Uniform(5));
  // Sparse ids so objects land in different shards of the sharded store.
  std::vector<ObjectId> ids;
  std::vector<std::vector<Point>> routes;
  std::vector<int> next_step(static_cast<size_t>(num_objects), 0);
  for (int i = 0; i < num_objects; ++i) {
    ids.push_back(static_cast<ObjectId>(i) * 13 + 7);
    std::vector<Point> route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
    }
    routes.push_back(std::move(route));
  }
  // Interleaved reports; lengths straddle train/retrain thresholds.
  const int num_ops = static_cast<int>(rng.Uniform(60ull *
                                                   static_cast<uint64_t>(
                                                       num_objects)));
  for (int i = 0; i < num_ops; ++i) {
    const size_t obj = rng.Uniform(static_cast<uint64_t>(num_objects));
    const int step = next_step[obj]++;
    Point p = routes[obj][static_cast<size_t>(step) % kPeriod];
    p.x += rng.Gaussian(0.0, 2.0);
    p.y += rng.Gaussian(0.0, 2.0);
    c.ops.push_back({ids[obj], p});
  }
  const int num_ranges = static_cast<int>(1 + rng.Uniform(3));
  for (int i = 0; i < num_ranges; ++i) {
    c.range_queries.push_back(proptest::RandomBox(rng, kExtent));
  }
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(15));
  return c;
}

std::string Replay(MovingObjectStore& store,
                   const std::vector<StoreOp>& ops) {
  for (const StoreOp& op : ops) {
    const Status status = store.ReportLocation(op.id, op.location);
    if (!status.ok()) return "ReportLocation failed: " + status.ToString();
  }
  return "";
}

/// Canonical form of a fleet-query answer: id-sorted, because hit order
/// among equal scores legitimately depends on shard merge order.
std::vector<std::pair<ObjectId, Point>> CanonicalHits(
    const std::vector<RangeHit>& hits) {
  std::vector<std::pair<ObjectId, Point>> out;
  out.reserve(hits.size());
  for (const RangeHit& hit : hits) {
    out.push_back({hit.id, hit.prediction.location});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

bool SameHits(const std::vector<std::pair<ObjectId, Point>>& a,
              const std::vector<std::pair<ObjectId, Point>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !(a[i].second == b[i].second)) {
      return false;
    }
  }
  return true;
}

std::string CheckShardedMatchesReference(const WorkloadCase& input) {
  MovingObjectStore sharded(StoreOptions(/*num_shards=*/8,
                                         /*query_threads=*/2));
  MovingObjectStore reference(StoreOptions(/*num_shards=*/1,
                                           /*query_threads=*/1));
  std::string failure = Replay(sharded, input.ops);
  if (!failure.empty()) return "sharded: " + failure;
  failure = Replay(reference, input.ops);
  if (!failure.empty()) return "reference: " + failure;

  if (sharded.NumObjects() != reference.NumObjects() ||
      sharded.ObjectIds() != reference.ObjectIds()) {
    return "fleet membership differs between sharded and reference";
  }
  for (const ObjectId id : reference.ObjectIds()) {
    if (sharded.HistoryLength(id) != reference.HistoryLength(id)) {
      return "history length differs for object " + std::to_string(id);
    }
    if (sharded.GetPredictor(id).ok() != reference.GetPredictor(id).ok()) {
      return "trained-model presence differs for object " +
             std::to_string(id);
    }
    const Timestamp tq = static_cast<Timestamp>(
                             reference.HistoryLength(id)) -
                         1 + input.query_delta;
    const auto sharded_prediction = sharded.PredictLocation(id, tq, 2);
    const auto reference_prediction = reference.PredictLocation(id, tq, 2);
    if (sharded_prediction.ok() != reference_prediction.ok() ||
        sharded_prediction.status().code() !=
            reference_prediction.status().code()) {
      return "point-prediction status differs for object " +
             std::to_string(id);
    }
    if (sharded_prediction.ok()) {
      if (sharded_prediction->size() != reference_prediction->size()) {
        return "prediction count differs for object " + std::to_string(id);
      }
      for (size_t i = 0; i < sharded_prediction->size(); ++i) {
        if (!((*sharded_prediction)[i].location ==
              (*reference_prediction)[i].location) ||
            (*sharded_prediction)[i].score !=
                (*reference_prediction)[i].score) {
          return "prediction " + std::to_string(i) +
                 " differs for object " + std::to_string(id);
        }
      }
    }
  }

  // Fleet queries evaluated at a shared horizon past every history.
  Timestamp max_now = 0;
  for (const ObjectId id : reference.ObjectIds()) {
    max_now = std::max(
        max_now, static_cast<Timestamp>(reference.HistoryLength(id)));
  }
  const Timestamp tq = max_now + input.query_delta;
  for (const BoundingBox& range : input.range_queries) {
    const auto sharded_hits = sharded.PredictiveRangeQuery(range, tq);
    const auto reference_hits = reference.PredictiveRangeQuery(range, tq);
    if (sharded_hits.ok() != reference_hits.ok()) {
      return "range-query status differs";
    }
    if (sharded_hits.ok() &&
        !SameHits(CanonicalHits(sharded_hits->hits),
                  CanonicalHits(reference_hits->hits))) {
      return "range-query hits differ on " + range.ToString();
    }
  }
  if (!input.ops.empty()) {
    const Point target = input.ops.front().location;
    const auto sharded_nn =
        sharded.PredictiveNearestNeighbors(target, tq, 3);
    const auto reference_nn =
        reference.PredictiveNearestNeighbors(target, tq, 3);
    if (sharded_nn.ok() != reference_nn.ok()) {
      return "kNN status differs";
    }
    if (sharded_nn.ok() && !SameHits(CanonicalHits(sharded_nn->hits),
                                     CanonicalHits(reference_nn->hits))) {
      return "kNN hits differ";
    }
  }
  return "";
}

std::vector<WorkloadCase> ShrinkCase(const WorkloadCase& input) {
  std::vector<WorkloadCase> out;
  for (std::vector<StoreOp>& fewer : proptest::ShrinkVector(input.ops)) {
    out.push_back({std::move(fewer), input.range_queries,
                   input.query_delta});
  }
  return out;
}

TEST(PropStoreTest, ShardedStoreMatchesSingleShardReference) {
  Property<WorkloadCase> property("sharded-store-vs-reference", GenCase,
                                  CheckShardedMatchesReference);
  property.WithShrinker(ShrinkCase);
  RunnerOptions options;
  options.num_cases = 12;
  options.max_shrink_checks = 40;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
