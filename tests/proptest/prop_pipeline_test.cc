// Property suite: the unified query pipeline is a pure refactor of the
// serving path. The contracts under test:
//   * observability is non-intrusive — a store with a trace sink
//     installed and metrics snapshots taken mid-workload answers every
//     query bit-identically (locations, scores, confidences, sources,
//     degraded reasons, skipped shards) to an unobserved store replaying
//     the same seeded workload,
//   * the overload ladder's degraded stamps are consistent (trained
//     objects shed to RMF are stamped kOverloaded, untrained objects
//     never are) and the degraded-prediction metric counts exactly the
//     stamped answers,
//   * the Account stage is the single accounting point — per-op metric
//     counters match the test's own tally of admitted/shed calls under
//     any random interleaving, and no admission ticket leaks
//     (InFlight() returns to 0),
//   * (with -DHPM_ENABLE_FAULTS=ON) deterministic `always` fault
//     schedules on shard fan-out sites make every range and kNN query
//     skip exactly the armed shards, and the first query after the
//     faults clear covers every object again.
// Every failure replays from its seed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
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

struct ReportOp {
  ObjectId id = 0;
  Point location;
};

struct PipelineCase {
  std::vector<ReportOp> ops;
  std::vector<BoundingBox> range_queries;
  Timestamp query_delta = 1;
};

ObjectStoreOptions PipelineStoreOptions() {
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
  options.query_threads = 2;
  return options;
}

PipelineCase GenPipelineCase(Random& rng) {
  PipelineCase c;
  const int num_objects = static_cast<int>(1 + rng.Uniform(4));
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
  const int num_ops = static_cast<int>(rng.Uniform(
      50ull * static_cast<uint64_t>(num_objects)));
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
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(12));
  return c;
}

std::string Replay(MovingObjectStore& store,
                   const std::vector<ReportOp>& ops) {
  for (const ReportOp& op : ops) {
    const Status status = store.ReportLocation(op.id, op.location);
    if (!status.ok()) return "ReportLocation failed: " + status.ToString();
  }
  return "";
}

/// Exact, field-complete prediction comparison — "bit-identical" means
/// every observable field, not just the location.
std::string DiffPredictions(const std::vector<Prediction>& a,
                            const std::vector<Prediction>& b) {
  if (a.size() != b.size()) return "prediction counts differ";
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].location == b[i].location)) return "location differs";
    if (a[i].score != b[i].score) return "score differs";
    if (a[i].confidence != b[i].confidence) return "confidence differs";
    if (a[i].source != b[i].source) return "source differs";
    if (a[i].degraded != b[i].degraded) return "degraded reason differs";
    if (a[i].pattern_id != b[i].pattern_id) return "pattern id differs";
  }
  return "";
}

/// Canonical id-sorted fleet answer (merge order among equal scores is
/// shard-dependent and not part of the contract).
std::vector<std::pair<ObjectId, Prediction>> CanonicalHits(
    const std::vector<RangeHit>& hits) {
  std::vector<std::pair<ObjectId, Prediction>> out;
  out.reserve(hits.size());
  for (const RangeHit& hit : hits) out.push_back({hit.id, hit.prediction});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

std::string DiffFleet(const FleetQueryResult& a, const FleetQueryResult& b) {
  if (a.partial != b.partial) return "partial flag differs";
  if (a.skipped_shards != b.skipped_shards) return "skipped shards differ";
  const auto ca = CanonicalHits(a.hits);
  const auto cb = CanonicalHits(b.hits);
  if (ca.size() != cb.size()) return "hit counts differ";
  for (size_t i = 0; i < ca.size(); ++i) {
    if (ca[i].first != cb[i].first) return "hit ids differ";
    const std::string diff =
        DiffPredictions({ca[i].second}, {cb[i].second});
    if (!diff.empty()) return "hit " + std::to_string(ca[i].first) +
                              ": " + diff;
  }
  return "";
}

// --- P1: observability is non-intrusive --------------------------------

std::string CheckObservedMatchesUnobserved(const PipelineCase& input) {
  ObjectStoreOptions observed_options = PipelineStoreOptions();
  size_t traces_seen = 0;
  observed_options.trace_sink = [&traces_seen](const char*, const Trace&) {
    ++traces_seen;
  };
  MovingObjectStore observed(observed_options);
  MovingObjectStore plain(PipelineStoreOptions());

  std::string failure = Replay(observed, input.ops);
  if (!failure.empty()) return "observed: " + failure;
  failure = Replay(plain, input.ops);
  if (!failure.empty()) return "plain: " + failure;
  // Mid-workload snapshots must not perturb anything either.
  (void)observed.metrics_snapshot();

  if (observed.ObjectIds() != plain.ObjectIds()) {
    return "fleet membership differs under observation";
  }
  std::vector<ObjectId> ids = plain.ObjectIds();
  Timestamp max_now = 0;
  for (const ObjectId id : ids) {
    max_now = std::max(max_now,
                       static_cast<Timestamp>(plain.HistoryLength(id)));
    const Timestamp tq =
        static_cast<Timestamp>(plain.HistoryLength(id)) - 1 +
        input.query_delta;
    const auto a = observed.PredictLocation(id, tq, 2);
    const auto b = plain.PredictLocation(id, tq, 2);
    if (a.ok() != b.ok() || a.status().code() != b.status().code()) {
      return "prediction status differs for object " + std::to_string(id);
    }
    if (a.ok()) {
      const std::string diff = DiffPredictions(*a, *b);
      if (!diff.empty()) {
        return "object " + std::to_string(id) + ": " + diff;
      }
    }
  }

  // Batch answers must equal the singles, element by element.
  if (!ids.empty()) {
    const Timestamp tq = max_now + input.query_delta;
    const auto batch = observed.PredictLocationBatch(ids, tq, 2);
    if (batch.size() != ids.size()) return "batch size mismatch";
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto single = plain.PredictLocation(ids[i], tq, 2);
      if (batch[i].ok() != single.ok()) {
        return "batch/single status differs for object " +
               std::to_string(ids[i]);
      }
      if (batch[i].ok()) {
        const std::string diff = DiffPredictions(*batch[i], *single);
        if (!diff.empty()) {
          return "batch object " + std::to_string(ids[i]) + ": " + diff;
        }
      }
    }

    for (const BoundingBox& range : input.range_queries) {
      const auto a = observed.PredictiveRangeQuery(range, tq);
      const auto b = plain.PredictiveRangeQuery(range, tq);
      if (a.ok() != b.ok()) return "range status differs";
      if (a.ok()) {
        const std::string diff = DiffFleet(*a, *b);
        if (!diff.empty()) return "range: " + diff;
      }
    }
    const auto a = observed.PredictiveNearestNeighbors(
        input.ops.empty() ? Point{0, 0} : input.ops.front().location, tq, 3);
    const auto b = plain.PredictiveNearestNeighbors(
        input.ops.empty() ? Point{0, 0} : input.ops.front().location, tq, 3);
    if (a.ok() != b.ok()) return "kNN status differs";
    if (a.ok()) {
      const std::string diff = DiffFleet(*a, *b);
      if (!diff.empty()) return "kNN: " + diff;
    }
  }

  if (traces_seen == 0 && !input.ops.empty()) {
    return "trace sink never invoked despite being installed";
  }
  return "";
}

std::vector<PipelineCase> ShrinkPipelineCase(const PipelineCase& input) {
  std::vector<PipelineCase> out;
  for (std::vector<ReportOp>& fewer : proptest::ShrinkVector(input.ops)) {
    out.push_back({std::move(fewer), input.range_queries,
                   input.query_delta});
  }
  return out;
}

TEST(PropPipelineTest, ObservedStoreAnswersBitIdenticallyToUnobserved) {
  Property<PipelineCase> property("observed-vs-unobserved",
                                  GenPipelineCase,
                                  CheckObservedMatchesUnobserved);
  property.WithShrinker(ShrinkPipelineCase);
  RunnerOptions options;
  options.num_cases = 10;
  options.max_shrink_checks = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P2: degraded stamps are consistent and exactly counted ------------

std::string CheckDegradedStampsAreCounted(const PipelineCase& input) {
  ObjectStoreOptions options = PipelineStoreOptions();
  // Rung 1 trips on any finite deadline: deterministic without clocks.
  options.degrade_min_headroom =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::hours(1));
  MovingObjectStore store(options);
  std::string failure = Replay(store, input.ops);
  if (!failure.empty()) return failure;

  uint64_t expect_degraded = 0;
  for (const ObjectId id : store.ObjectIds()) {
    if (store.HistoryLength(id) < 2) continue;  // Unpredictable yet.
    const bool trained = store.GetPredictor(id).ok();
    const Timestamp tq =
        static_cast<Timestamp>(store.HistoryLength(id)) - 1 +
        input.query_delta;
    const auto shed =
        store.PredictLocation(id, tq, 1, Deadline::AfterMillis(50));
    if (!shed.ok()) {
      return "shed prediction failed: " + shed.status().ToString();
    }
    const DegradedReason reason = shed->front().degraded;
    if (trained && reason != DegradedReason::kOverloaded) {
      return "trained object " + std::to_string(id) +
             " not stamped kOverloaded under rung 1";
    }
    if (!trained && reason != DegradedReason::kNone) {
      return "untrained object " + std::to_string(id) +
             " wrongly stamped degraded";
    }
    if (reason == DegradedReason::kOverloaded) ++expect_degraded;

    // An infinite deadline never sheds, whatever the ladder config.
    const auto full = store.PredictLocation(id, tq, 1);
    if (!full.ok()) return "full prediction failed";
    if (full->front().degraded != DegradedReason::kNone) {
      return "infinite-deadline answer wrongly degraded";
    }
  }

  const MetricsSnapshot snap = store.metrics_snapshot();
  if (snap.counter("store.degraded_predictions") != expect_degraded) {
    return "degraded metric " +
           std::to_string(snap.counter("store.degraded_predictions")) +
           " != observed degraded answers " +
           std::to_string(expect_degraded);
  }
  return "";
}

TEST(PropPipelineTest, DegradedStampsAreConsistentAndExactlyCounted) {
  Property<PipelineCase> property("degraded-stamps-counted",
                                  GenPipelineCase,
                                  CheckDegradedStampsAreCounted);
  property.WithShrinker(ShrinkPipelineCase);
  RunnerOptions options;
  options.num_cases = 8;
  options.max_shrink_checks = 24;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P3: single accounting point — metrics reconcile exactly -----------

struct AccountingCase {
  /// Operation stream: 0 = report, 1 = predict, 2 = batch, 3 = range,
  /// 4 = kNN, 5 = refill one admission token.
  std::vector<int> ops;
  double burst = 1.0;
};

AccountingCase GenAccountingCase(Random& rng) {
  AccountingCase c;
  c.burst = 1.0 + static_cast<double>(rng.Uniform(3));
  const int num_ops = static_cast<int>(10 + rng.Uniform(60));
  for (int i = 0; i < num_ops; ++i) {
    c.ops.push_back(static_cast<int>(rng.Uniform(6)));
  }
  return c;
}

std::string CheckAccountingReconciles(const AccountingCase& input) {
  using AdmissionClock = AdmissionOptions::Clock;
  AdmissionClock::time_point now{};
  ObjectStoreOptions options = PipelineStoreOptions();
  options.query_threads = 1;
  options.admission.tokens_per_second = 1.0;
  options.admission.burst = input.burst;
  options.admission.clock = [&now] { return now; };
  MovingObjectStore store(options);

  // Expected per-op admitted/shed, mirrored from entry-point statuses.
  uint64_t admitted[5] = {0, 0, 0, 0, 0};
  uint64_t shed[5] = {0, 0, 0, 0, 0};
  auto tally = [&](int op, StatusCode code) -> std::string {
    if (code == StatusCode::kUnavailable) {
      ++shed[op];
    } else if (code == StatusCode::kOk || code == StatusCode::kNotFound ||
               code == StatusCode::kFailedPrecondition) {
      ++admitted[op];
    } else {
      return "unexpected status code in accounting workload";
    }
    return "";
  };

  ObjectId next_id = 0;
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  for (const int op : input.ops) {
    std::string failure;
    switch (op) {
      case 0:
        failure = tally(0, store.ReportLocation(next_id++ % 7,
                                                {1.0, 2.0})
                               .code());
        break;
      case 1:
        failure =
            tally(1, store.PredictLocation(3, 1000).status().code());
        break;
      case 2: {
        const auto results = store.PredictLocationBatch({3, 4}, 1000);
        failure = tally(2, results.front().status().code());
        break;
      }
      case 3:
        failure = tally(
            3, store.PredictiveRangeQuery(everywhere, 1000).status().code());
        break;
      case 4:
        failure = tally(
            4,
            store.PredictiveNearestNeighbors({0, 0}, 1000, 1)
                .status()
                .code());
        break;
      default:
        now += std::chrono::seconds(1);  // Refill one token.
        break;
    }
    if (!failure.empty()) return failure;
  }

  const MetricsSnapshot snap = store.metrics_snapshot();
  const char* kOps[5] = {"report", "predict", "predict_batch", "range",
                         "nearest"};
  for (int op = 0; op < 5; ++op) {
    const std::string name(kOps[op]);
    if (snap.counter("store.admitted." + name) != admitted[op]) {
      return "admitted counter mismatch for op " + name;
    }
    if (snap.counter("store.shed." + name) != shed[op]) {
      return "shed counter mismatch for op " + name;
    }
    // Every pipeline instantiation records exactly one total-latency
    // sample, admitted or shed.
    const auto* histogram = snap.histogram("op." + name + "_us");
    if (histogram == nullptr ||
        histogram->count != admitted[op] + shed[op]) {
      return "op latency sample count mismatch for op " + name;
    }
  }
  if (store.InFlight() != 0) return "admission ticket leaked";
  return "";
}

TEST(PropPipelineTest, AccountingReconcilesAcrossRandomInterleavings) {
  Property<AccountingCase> property(
      "accounting-reconciles", GenAccountingCase,
      CheckAccountingReconciles);
  RunnerOptions options;
  options.num_cases = 20;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P4: fault schedules skip exactly the armed shards -----------------

#ifdef HPM_ENABLE_FAULTS

struct FaultMaskCase {
  int num_shards = 4;
  std::vector<uint32_t> masks;
};

FaultMaskCase GenFaultMaskCase(Random& rng) {
  FaultMaskCase c;
  c.num_shards = static_cast<int>(2 + rng.Uniform(5));
  const int rounds = static_cast<int>(1 + rng.Uniform(5));
  for (int r = 0; r < rounds; ++r) {
    c.masks.push_back(
        static_cast<uint32_t>(rng.Uniform(1u << c.num_shards)));
  }
  return c;
}

std::string CheckFaultMasksSkipExactlyArmedShards(
    const FaultMaskCase& input) {
  constexpr int kObjects = 6;
  FaultInjector::Global().Reset();
  ObjectStoreOptions options = PipelineStoreOptions();
  options.num_shards = input.num_shards;
  MovingObjectStore store(options);
  for (ObjectId id = 0; id < kObjects; ++id) {
    const Status status = store.ReportLocation(id, {1.0 * id, 2.0});
    if (!status.ok()) return status.ToString();
    const Status second = store.ReportLocation(id, {1.0 * id + 1, 3.0});
    if (!second.ok()) return second.ToString();
  }

  uint64_t expect_skipped = 0;
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  const auto query = [&](int q) {
    return q % 2 == 0
               ? store.PredictiveRangeQuery(everywhere, 100)
               : store.PredictiveNearestNeighbors({0.0, 0.0}, 100, kObjects);
  };
  for (const uint32_t mask : input.masks) {
    std::vector<int> armed;
    for (int s = 0; s < input.num_shards; ++s) {
      if ((mask >> s) & 1u) {
        FaultRule rule;
        rule.always = true;
        rule.code = StatusCode::kUnavailable;
        FaultInjector::Global().Arm(ShardQueryFaultSite(s), rule);
        armed.push_back(s);
      } else {
        FaultInjector::Global().Disarm(ShardQueryFaultSite(s));
      }
    }
    // Range and kNN queries alternate; each one skips exactly this
    // round's armed shards, whatever earlier rounds armed.
    for (int q = 0; q < 4; ++q) {
      const auto result = query(q);
      if (!result.ok()) {
        FaultInjector::Global().Reset();
        return "fleet query failed outright: " + result.status().ToString();
      }
      if (result->skipped_shards != armed) {
        FaultInjector::Global().Reset();
        return "skipped_shards != armed shards for mask " +
               std::to_string(mask) + " on query " + std::to_string(q);
      }
      if (result->partial != !armed.empty()) {
        FaultInjector::Global().Reset();
        return "partial flag inconsistent with armed mask";
      }
      expect_skipped += armed.size();
    }
  }
  FaultInjector::Global().Reset();

  // The faults are gone: the very first query covers every object.
  for (int q = 0; q < 2; ++q) {
    const auto healed = query(q);
    if (!healed.ok()) return "query after disarm failed";
    if (healed->partial || !healed->skipped_shards.empty()) {
      return "query after disarm still skipped a shard";
    }
    if (healed->hits.size() != static_cast<size_t>(kObjects)) {
      return "query after disarm missed objects";
    }
  }

  if (store.metrics_snapshot().counter("store.shards_skipped") !=
      expect_skipped) {
    return "shards_skipped metric does not sum the armed masks";
  }
  return "";
}

TEST(PropPipelineTest, FaultSchedulesSkipExactlyTheArmedShards) {
  Property<FaultMaskCase> property("fault-masks-skip-armed",
                                   GenFaultMaskCase,
                                   CheckFaultMasksSkipExactlyArmedShards);
  RunnerOptions options;
  options.num_cases = 12;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

#else  // !HPM_ENABLE_FAULTS

TEST(PropPipelineTest, FaultSchedulesSkipExactlyTheArmedShards) {
  GTEST_SKIP() << "fault hooks compiled out";
}

#endif  // HPM_ENABLE_FAULTS

}  // namespace
}  // namespace hpm
