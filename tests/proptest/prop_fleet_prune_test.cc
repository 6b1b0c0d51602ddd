// Property suite: fleet queries skip objects by their answer bound
// (MovingObjectStore::AnyAnswerLocation) without changing a single
// answer. The oracle is a brute-force loop of per-object PredictLocation
// calls on the same store:
//   * range — every eligible object's best-scored prediction inside the
//     box, sorted by (score desc, id asc);
//   * kNN — every eligible object's top-1 prediction, sorted by
//     (distance, id), first n.
// Hits must match the oracle bit for bit (ids, locations, scores,
// confidences, sources, degraded stamps, pattern ids), and every fleet
// query must account each eligible object exactly once as evaluated or
// pruned. Cases mix trained, cold-start and single-report objects on
// unrelated clocks; horizons fall on both sides of the distant
// threshold, so both FQP offsets and BQP intervals (wrapping the period
// included) are bounded; boxes run from a few units around one object's
// answer to "everywhere"; k_per_object is 1, 3 or INT32_MAX and n is 1,
// 10 or more than the fleet. Each case also runs under an expired
// deadline and under rung-1 shedding. A fixed case queries trained
// fleets about 1e9 time units ahead and at INT64_MAX under a time
// budget.
// Every failure replays from its seed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
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
const BoundingBox kEverywhere({-1e7, -1e7}, {1e7, 1e7});

struct ReportOp {
  ObjectId id = 0;
  Point location;
};

/// How a query's box is drawn.
enum class BoxKind { kAroundAnswer, kRandom, kEverywhere };

struct FleetQuerySpec {
  BoxKind box = BoxKind::kRandom;
  /// kAroundAnswer: which eligible object's answer the box surrounds
  /// (modulo the eligible count) and the box's half side.
  size_t anchor = 0;
  double half_side = 1.0;
  /// kRandom: the box; every kind: the kNN target when not anchored.
  BoundingBox random_box;
  Point target;
  Timestamp tq = 1;
  int k_per_object = 1;
  /// n for kNN; 0 stands for "more than the fleet".
  int n = 1;
};

struct PruneCase {
  std::vector<ReportOp> ops;
  Timestamp distant_threshold = 5;
  Timestamp time_relaxation = 2;
  std::vector<FleetQuerySpec> queries;
};

ObjectStoreOptions PruneStoreOptions(const PruneCase& input) {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 12.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = input.distant_threshold;
  options.predictor.time_relaxation = input.time_relaxation;
  options.predictor.region_match_slack = 6.0;
  options.min_training_periods = 4;
  options.recent_window = 5;
  options.num_shards = 4;
  options.query_threads = 2;
  return options;
}

PruneCase GenPruneCase(Random& rng) {
  PruneCase c;
  c.distant_threshold = static_cast<Timestamp>(2 + rng.Uniform(6));
  c.time_relaxation = static_cast<Timestamp>(rng.Uniform(4));
  // Per object: a noisy periodic route and a report budget that leaves
  // it single-report, cold (under the 4-period training threshold) or
  // trained, each on its own clock. At some offsets the object wanders
  // instead, so those offsets get no region and BQP must widen past
  // its first rounds to find a consequence.
  const int num_objects = static_cast<int>(2 + rng.Uniform(9));
  std::vector<std::vector<Point>> routes;
  std::vector<std::vector<bool>> wanders;
  std::vector<int> budget;
  for (int i = 0; i < num_objects; ++i) {
    std::vector<Point> route;
    std::vector<bool> wander;
    const uint64_t wander_odds = rng.Uniform(3);
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
      wander.push_back(rng.Uniform(4) < wander_odds);
    }
    routes.push_back(std::move(route));
    wanders.push_back(std::move(wander));
    switch (rng.Uniform(4)) {
      case 0:
        budget.push_back(static_cast<int>(1 + rng.Uniform(2)));
        break;
      case 1:
        budget.push_back(static_cast<int>(2 + rng.Uniform(35)));
        break;
      default:
        budget.push_back(static_cast<int>(40 + rng.Uniform(30)));
        break;
    }
  }
  // Interleave the objects' reports in a random order.
  std::vector<int> sent(static_cast<size_t>(num_objects), 0);
  int remaining = 0;
  for (const int b : budget) remaining += b;
  for (; remaining > 0; --remaining) {
    size_t obj = rng.Uniform(static_cast<uint64_t>(num_objects));
    while (sent[obj] == budget[obj]) obj = (obj + 1) % budget.size();
    const size_t offset = static_cast<size_t>(sent[obj]++) % kPeriod;
    Point p = wanders[obj][offset] ? proptest::RandomPoint(rng, kExtent)
                                   : routes[obj][offset];
    p.x += rng.Gaussian(0.0, 2.0);
    p.y += rng.Gaussian(0.0, 2.0);
    c.ops.push_back({static_cast<ObjectId>(obj) * 17 + 5, p});
  }
  // Query times around the longest clock: some objects are past tq,
  // the rest see horizons on both sides of the distant threshold.
  const int longest = *std::max_element(budget.begin(), budget.end());
  const int num_queries = static_cast<int>(3 + rng.Uniform(4));
  for (int i = 0; i < num_queries; ++i) {
    FleetQuerySpec q;
    const uint64_t kind = rng.Uniform(5);
    q.box = kind < 3   ? BoxKind::kAroundAnswer
            : kind < 4 ? BoxKind::kRandom
                       : BoxKind::kEverywhere;
    q.anchor = rng.Uniform(64);
    q.half_side = rng.Uniform(2) == 0 ? rng.UniformDouble(0.5, 20.0)
                                      : rng.UniformDouble(20.0, 3000.0);
    q.random_box = proptest::RandomBox(rng, kExtent);
    q.target = proptest::RandomPoint(rng, kExtent);
    // Half the queries sit just past the longest clock, where BQP's
    // widest interval is still narrower than a period and may wrap it.
    q.tq = static_cast<Timestamp>(longest) +
           (rng.Uniform(2) == 0
                ? 1 + static_cast<Timestamp>(rng.Uniform(7))
                : static_cast<Timestamp>(rng.Uniform(2 * kPeriod)) - 5);
    q.tq = std::max<Timestamp>(q.tq, 1);
    const int k_choices[] = {1, 3, INT32_MAX};
    q.k_per_object = k_choices[rng.Uniform(3)];
    const int n_choices[] = {1, 10, 0};
    q.n = n_choices[rng.Uniform(3)];
    c.queries.push_back(q);
  }
  return c;
}

std::vector<PruneCase> ShrinkPruneCase(const PruneCase& input) {
  std::vector<PruneCase> out;
  for (std::vector<FleetQuerySpec>& fewer :
       proptest::ShrinkVector(input.queries)) {
    if (fewer.empty()) continue;
    PruneCase c = input;
    c.queries = std::move(fewer);
    out.push_back(std::move(c));
  }
  for (std::vector<ReportOp>& fewer : proptest::ShrinkVector(input.ops)) {
    PruneCase c = input;
    c.ops = std::move(fewer);
    out.push_back(std::move(c));
  }
  return out;
}

std::string DiffHits(const std::vector<RangeHit>& got,
                     const std::vector<RangeHit>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " hits, oracle has " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Prediction& a = got[i].prediction;
    const Prediction& b = want[i].prediction;
    const std::string at = "hit " + std::to_string(i) + " (object " +
                           std::to_string(want[i].id) + "): ";
    if (got[i].id != want[i].id) {
      return at + "object " + std::to_string(got[i].id) + " instead";
    }
    if (!(a.location == b.location)) return at + "location differs";
    if (a.score != b.score) return at + "score differs";
    if (a.confidence != b.confidence) return at + "confidence differs";
    if (a.source != b.source) return at + "source differs";
    if (a.degraded != b.degraded) return at + "degraded reason differs";
    if (a.pattern_id != b.pattern_id) return at + "pattern id differs";
    if (a.consequence_region != b.consequence_region) {
      return at + "consequence region differs";
    }
  }
  return "";
}

/// The eligible objects at `tq`: two or more reports, last one before tq.
std::vector<ObjectId> Eligible(const MovingObjectStore& store, Timestamp tq) {
  std::vector<ObjectId> ids;
  for (const ObjectId id : store.ObjectIds()) {
    const size_t length = store.HistoryLength(id);
    if (length >= 2 && static_cast<Timestamp>(length) - 1 < tq) {
      ids.push_back(id);
    }
  }
  return ids;
}

/// Runs one range and one kNN query under `deadline` and compares both
/// with the brute-force oracle on the same store.
std::string CheckOneQuery(MovingObjectStore& store, const FleetQuerySpec& q,
                          const Deadline& deadline) {
  const std::vector<ObjectId> eligible = Eligible(store, q.tq);

  // Every eligible object's answer, straight from PredictLocation.
  std::vector<std::vector<Prediction>> answers;
  std::vector<Prediction> top1;
  for (const ObjectId id : eligible) {
    const auto all = store.PredictLocation(id, q.tq, q.k_per_object, deadline);
    const auto one = store.PredictLocation(id, q.tq, 1, deadline);
    if (!all.ok() || !one.ok() || all->empty() || one->empty()) {
      return "oracle PredictLocation failed for object " + std::to_string(id);
    }
    answers.push_back(*all);
    top1.push_back(one->front());
  }

  BoundingBox box = kEverywhere;
  Point target = q.target;
  if (q.box == BoxKind::kRandom) box = q.random_box;
  if (q.box == BoxKind::kAroundAnswer && !eligible.empty()) {
    const std::vector<Prediction>& around =
        answers[q.anchor % eligible.size()];
    const Point at = around[q.anchor % around.size()].location;
    box = BoundingBox({at.x - q.half_side, at.y - q.half_side},
                      {at.x + q.half_side, at.y + q.half_side});
    target = Point(at.x + q.half_side / 2, at.y - q.half_side / 3);
  }

  std::vector<RangeHit> range_oracle;
  for (size_t i = 0; i < eligible.size(); ++i) {
    const Prediction* best = nullptr;
    for (const Prediction& p : answers[i]) {
      if (!box.Contains(p.location)) continue;
      if (best == nullptr || p.score > best->score) best = &p;
    }
    if (best != nullptr) range_oracle.push_back({eligible[i], *best});
  }
  std::sort(range_oracle.begin(), range_oracle.end(),
            [](const RangeHit& a, const RangeHit& b) {
              if (a.prediction.score != b.prediction.score) {
                return a.prediction.score > b.prediction.score;
              }
              return a.id < b.id;
            });

  const int n =
      q.n > 0 ? q.n : static_cast<int>(store.NumObjects()) + 5;
  std::vector<RangeHit> knn_oracle;
  for (size_t i = 0; i < eligible.size(); ++i) {
    knn_oracle.push_back({eligible[i], top1[i]});
  }
  std::sort(knn_oracle.begin(), knn_oracle.end(),
            [&target](const RangeHit& a, const RangeHit& b) {
              const double da = SquaredDistance(a.prediction.location, target);
              const double db = SquaredDistance(b.prediction.location, target);
              if (da != db) return da < db;
              return a.id < b.id;
            });
  if (knn_oracle.size() > static_cast<size_t>(n)) {
    knn_oracle.resize(static_cast<size_t>(n));
  }

  const auto evaluated_pruned = [&store] {
    const MetricsSnapshot snap = store.metrics_snapshot();
    return snap.counter("store.objects_evaluated") +
           snap.counter("store.objects_pruned");
  };

  uint64_t before = evaluated_pruned();
  const auto range =
      store.PredictiveRangeQuery(box, q.tq, q.k_per_object, deadline);
  if (!range.ok()) return "range failed: " + range.status().ToString();
  if (range->partial) return "range answered partial";
  if (evaluated_pruned() - before != eligible.size()) {
    return "range accounted " + std::to_string(evaluated_pruned() - before) +
           " objects of " + std::to_string(eligible.size()) + " eligible";
  }
  if (std::string diff = DiffHits(range->hits, range_oracle); !diff.empty()) {
    return "range: " + diff;
  }

  before = evaluated_pruned();
  const auto knn = store.PredictiveNearestNeighbors(target, q.tq, n, deadline);
  if (!knn.ok()) return "kNN failed: " + knn.status().ToString();
  if (knn->partial) return "kNN answered partial";
  if (evaluated_pruned() - before != eligible.size()) {
    return "kNN accounted " + std::to_string(evaluated_pruned() - before) +
           " objects of " + std::to_string(eligible.size()) + " eligible";
  }
  if (std::string diff = DiffHits(knn->hits, knn_oracle); !diff.empty()) {
    return "kNN (n = " + std::to_string(n) + "): " + diff;
  }
  return "";
}

std::string Replay(MovingObjectStore& store, const PruneCase& input) {
  for (const ReportOp& op : input.ops) {
    const Status status = store.ReportLocation(op.id, op.location);
    if (!status.ok()) return "ReportLocation failed: " + status.ToString();
  }
  return "";
}

/// True when some trained object's BQP answer to one of `input`'s
/// queries comes from widening round 2 or later.
bool WidensPastRoundOne(const MovingObjectStore& store,
                        const PruneCase& input) {
  for (const ObjectId id : store.ObjectIds()) {
    const auto model = store.GetPredictor(id);
    if (!model.ok()) continue;
    const Timestamp now = static_cast<Timestamp>(store.HistoryLength(id)) - 1;
    for (const FleetQuerySpec& q : input.queries) {
      if (q.tq - now < input.distant_threshold) continue;
      const std::optional<Timestamp> round =
          (*model)->BackwardAnswerRound(now, q.tq);
      if (round.has_value() && *round >= 2) return true;
    }
  }
  return false;
}

/// Counts the cases that widen past round 1 in `*widened_cases`.
std::string CheckPruneMatchesBruteForce(const PruneCase& input,
                                        size_t* widened_cases) {
  MovingObjectStore store(PruneStoreOptions(input));
  if (std::string failure = Replay(store, input); !failure.empty()) {
    return failure;
  }
  if (WidensPastRoundOne(store, input)) ++*widened_cases;
  for (const FleetQuerySpec& q : input.queries) {
    const std::string at = "tq " + std::to_string(q.tq) + ", k " +
                           std::to_string(q.k_per_object) + ": ";
    if (std::string diff = CheckOneQuery(store, q, Deadline::Infinite());
        !diff.empty()) {
      return at + diff;
    }
    // An expired deadline degrades every trained object to its RMF
    // answer, in the fleet query and in the oracle alike.
    if (std::string diff = CheckOneQuery(store, q, Deadline::Expired());
        !diff.empty()) {
      return at + "expired deadline: " + diff;
    }
  }
  return "";
}

TEST(PropFleetPruneTest, PrunedFleetQueriesMatchBruteForcePredictions) {
  size_t widened_cases = 0;
  Property<PruneCase> property(
      "fleet-prune-vs-brute-force", GenPruneCase,
      [&widened_cases](const PruneCase& input) {
        return CheckPruneMatchesBruteForce(input, &widened_cases);
      });
  property.WithShrinker(ShrinkPruneCase);
  RunnerOptions options;
  options.num_cases = 100;
  options.max_shrink_checks = 40;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
  // The bound is the answering round's interval, so the generator must
  // reach answers past round 1 for the oracle to check a narrowed bound.
  if (!proptest::ForcedSeed().has_value()) EXPECT_GT(widened_cases, 0u);
}

std::string CheckShedPruneMatchesBruteForce(const PruneCase& input) {
  ObjectStoreOptions options = PruneStoreOptions(input);
  // Rung 1 trips on any finite deadline: every trained object answers
  // with its stamped RMF point, so the bound holds that point alone.
  options.degrade_min_headroom =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::hours(1));
  MovingObjectStore store(options);
  if (std::string failure = Replay(store, input); !failure.empty()) {
    return failure;
  }
  for (const FleetQuerySpec& q : input.queries) {
    if (std::string diff =
            CheckOneQuery(store, q, Deadline::AfterMillis(60000));
        !diff.empty()) {
      return "shed, tq " + std::to_string(q.tq) + ": " + diff;
    }
  }
  return "";
}

TEST(PropFleetPruneTest, ShedFleetQueriesMatchBruteForcePredictions) {
  Property<PruneCase> property("fleet-prune-shed-vs-brute-force",
                               GenPruneCase, CheckShedPruneMatchesBruteForce);
  property.WithShrinker(ShrinkPruneCase);
  RunnerOptions options;
  options.num_cases = 15;
  options.max_shrink_checks = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

/// A fleet of trained objects on clean periodic routes, so every model
/// has patterns and BQP answers from one, queried about 1e9 time units
/// past every object's clock.
PruneCase FarHorizonCase(uint64_t seed) {
  Random rng(seed);
  PruneCase c;
  c.distant_threshold = static_cast<Timestamp>(2 + rng.Uniform(6));
  c.time_relaxation = static_cast<Timestamp>(rng.Uniform(4));
  constexpr int kObjects = 8;
  std::vector<std::vector<Point>> routes(kObjects);
  std::vector<int> budget;
  for (std::vector<Point>& route : routes) {
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
    }
    budget.push_back(static_cast<int>(50 + rng.Uniform(20)));
  }
  const int longest = *std::max_element(budget.begin(), budget.end());
  for (int step = 0; step < longest; ++step) {
    for (size_t obj = 0; obj < routes.size(); ++obj) {
      if (step >= budget[obj]) continue;
      Point p = routes[obj][static_cast<size_t>(step) % kPeriod];
      p.x += rng.Gaussian(0.0, 2.0);
      p.y += rng.Gaussian(0.0, 2.0);
      c.ops.push_back({static_cast<ObjectId>(obj) * 17 + 5, p});
    }
  }
  const BoxKind kinds[] = {BoxKind::kAroundAnswer, BoxKind::kRandom,
                           BoxKind::kEverywhere};
  for (const BoxKind kind : kinds) {
    FleetQuerySpec q;
    q.box = kind;
    q.anchor = rng.Uniform(64);
    q.half_side = rng.UniformDouble(0.5, 20.0);
    q.random_box = proptest::RandomBox(rng, kExtent);
    q.target = proptest::RandomPoint(rng, kExtent);
    q.tq = static_cast<Timestamp>(longest) + 1000000000 +
           static_cast<Timestamp>(rng.Uniform(kPeriod));
    q.k_per_object = 3;
    q.n = 1;
    c.queries.push_back(q);
  }
  // The largest timestamp the wire accepts: BQP's intervals must not
  // overflow there.
  FleetQuerySpec last = c.queries.back();
  last.box = BoxKind::kAroundAnswer;
  last.tq = INT64_MAX;
  c.queries.push_back(last);
  return c;
}

// However far tq lies past an object's clock, neither the answer bound
// nor the pruned queries may cost more than the pattern search does: BQP
// answers within a period's worth of rounds, and the bound must not
// walk the rounds (or the RMF recurrence) step by step up to tq.
TEST(PropFleetPruneTest, FarHorizonQueriesStayFastAndMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const PruneCase input = FarHorizonCase(seed);
    MovingObjectStore store(PruneStoreOptions(input));
    ASSERT_EQ(Replay(store, input), "") << "seed " << seed;
    for (const ObjectId id : store.ObjectIds()) {
      const auto answer =
          store.PredictLocation(id, input.queries.front().tq, 1);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer->front().source, PredictionSource::kPattern)
          << "seed " << seed << ", object " << id;
    }
    // Nor at INT64_MAX, so no answer steps the RMF recurrence there.
    for (const ObjectId id : store.ObjectIds()) {
      const auto answer = store.PredictLocation(id, INT64_MAX, 1);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer->front().source, PredictionSource::kPattern)
          << "seed " << seed << ", object " << id << " at INT64_MAX";
    }
    const auto start = std::chrono::steady_clock::now();
    for (const FleetQuerySpec& q : input.queries) {
      EXPECT_EQ(CheckOneQuery(store, q, Deadline::Infinite()), "")
          << "seed " << seed << ", tq " << q.tq;
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 5.0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hpm
