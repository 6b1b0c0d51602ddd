// Overload-resilience integration tests (ctest label `overload`): the
// admission ladder, RMF-only load shedding, and partial fleet answers
// when a shard's share fails. Everything timing-sensitive runs on
// injected manual clocks so the suite is deterministic in plain, ASan
// and TSan builds; the shard kill test additionally needs
// -DHPM_ENABLE_FAULTS=ON and skips itself elsewhere.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/retry.h"
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
  return options;
}

/// Ingests `num_objects` trained objects plus a fresh partial day, so
/// point/range queries at kNow + small deltas answer from patterns.
void Populate(MovingObjectStore* store, int num_objects, uint64_t seed) {
  Random rng(seed);
  for (ObjectId id = 0; id < num_objects; ++id) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(store->ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 5; ++t) {
      ASSERT_TRUE(store->ReportLocation(id, Route(id, t)).ok());
    }
  }
}

constexpr Timestamp kNow = 5 * kPeriod + 5;

/// Mirrors MovingObjectStore's splitmix64 shard hash so tests can pick a
/// shard that actually holds objects. (If the store's hash ever changes,
/// the kill test's missing-hits assertion fails loudly.) Only the
/// fault-gated kill test uses it.
[[maybe_unused]] size_t ShardOf(ObjectId id, size_t num_shards) {
  uint64_t x = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

using AdmissionClock = AdmissionOptions::Clock;

/// Manual steady-clock for the admission token bucket.
struct ManualClock {
  AdmissionClock::time_point now{};
  std::function<AdmissionClock::time_point()> fn() {
    return [this] { return now; };
  }
  void Advance(std::chrono::microseconds d) { now += d; }
};

// ---- Rung 2: admission control --------------------------------------------

TEST(OverloadTest, AdmissionGatesEveryEntryPoint) {
  ManualClock clock;
  ObjectStoreOptions options = BaseOptions();
  options.admission.tokens_per_second = 1.0;  // One request per second.
  options.admission.burst = 1.0;
  options.admission.clock = clock.fn();
  MovingObjectStore store(options);

  const BoundingBox box({0, 0}, {1, 1});
  int rejections = 0;
  auto expect_rejected = [&](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    // Machine-readable retry-after hint, parsable by common/retry.h.
    EXPECT_TRUE(RetryAfterHint(status).has_value())
        << status.ToString();
    ++rejections;
  };

  // Each entry point: the refilled token admits the first call, the
  // second is shed with kUnavailable + retry-after.
  EXPECT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());
  expect_rejected(store.ReportLocation(1, {1.0, 1.0}));

  clock.Advance(std::chrono::seconds(1));
  EXPECT_EQ(store.PredictLocation(99, 10).status().code(),
            StatusCode::kNotFound);  // Admitted; fails on its merits.
  expect_rejected(store.PredictLocation(99, 10).status());

  clock.Advance(std::chrono::seconds(1));
  EXPECT_TRUE(store.PredictiveRangeQuery(box, 10).ok());
  expect_rejected(store.PredictiveRangeQuery(box, 10).status());

  clock.Advance(std::chrono::seconds(1));
  EXPECT_TRUE(store.PredictiveNearestNeighbors({0, 0}, 10, 1).ok());
  expect_rejected(
      store.PredictiveNearestNeighbors({0, 0}, 10, 1).status());

  clock.Advance(std::chrono::seconds(1));
  auto batch = store.PredictLocationBatch({1}, 10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_NE(batch[0].status().code(), StatusCode::kUnavailable);
  batch = store.PredictLocationBatch({1}, 10);
  ASSERT_EQ(batch.size(), 1u);
  expect_rejected(batch[0].status());

  const MetricsSnapshot metrics = store.metrics_snapshot();
  EXPECT_EQ(metrics.counter_sum("store.shed."),
            static_cast<uint64_t>(rejections));
  EXPECT_EQ(metrics.counter_sum("store.admitted."), 5u);
  EXPECT_EQ(store.InFlight(), 0);
}

TEST(OverloadTest, RejectedClientBacksOffToTheServersSchedule) {
  ManualClock clock;
  ObjectStoreOptions options = BaseOptions();
  options.admission.tokens_per_second = 10.0;
  options.admission.burst = 1.0;
  options.admission.clock = clock.fn();
  MovingObjectStore store(options);
  ASSERT_TRUE(store.ReportLocation(1, {0.0, 0.0}).ok());

  const Status rejected = store.ReportLocation(1, {1.0, 1.0});
  ASSERT_EQ(rejected.code(), StatusCode::kUnavailable);
  const auto hint = RetryAfterHint(rejected);
  ASSERT_TRUE(hint.has_value());
  // The hint is honest: waiting it out makes the retry succeed.
  clock.Advance(*hint);
  EXPECT_TRUE(store.ReportLocation(1, {1.0, 1.0}).ok());
}

// ---- Rung 1: RMF-only load shedding ---------------------------------------

TEST(OverloadTest, LowDeadlineHeadroomShedsToRmfStampedOverloaded) {
  ObjectStoreOptions options = BaseOptions();
  // Any deadline with less than an hour of headroom sheds: rung 1 is
  // deterministic without wall-clock games.
  options.degrade_min_headroom =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::hours(1));
  MovingObjectStore store(options);
  Populate(&store, 1, 41);

  auto full = store.PredictLocation(0, kNow + 5);  // Infinite: no shed.
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->front().degraded, DegradedReason::kNone);

  auto shed = store.PredictLocation(0, kNow + 5, 1,
                                    Deadline::AfterMillis(100));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->front().degraded, DegradedReason::kOverloaded);
  EXPECT_EQ(shed->front().source, PredictionSource::kMotionFunction);
  EXPECT_NE(shed->front().ToString().find("Overloaded"),
            std::string::npos);

  // Fleet queries shed the same way, still covering every object.
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  auto hits = store.PredictiveRangeQuery(everywhere, kNow + 5, 3,
                                         Deadline::AfterMillis(100));
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->partial);
  ASSERT_EQ(hits->hits.size(), 1u);
  EXPECT_EQ(hits->hits[0].prediction.degraded,
            DegradedReason::kOverloaded);

  EXPECT_GE(store.metrics_snapshot().counter("store.degraded_predictions"),
            2u);
}

// ---- The 4x-overload contract ---------------------------------------------

// Offered load far beyond capacity: every single response must be one of
//   (a) a full answer,
//   (b) a degraded answer stamped Overloaded,
//   (c) kUnavailable carrying a retry-after hint,
// the fan-out queue must stay within its bound, and the store must drain
// to idle afterwards.
TEST(OverloadTest, SaturatingLoadIsShedOrDegradedNeverDropped) {
  ObjectStoreOptions options = BaseOptions();
  options.num_shards = 4;
  options.query_threads = 2;
  options.admission.max_in_flight = 3;
  options.max_pool_queue = 4;
  options.degrade_queue_depth = 2;
  MovingObjectStore store(options);
  Populate(&store, 2, 43);

  constexpr int kThreads = 8;  // Well beyond max_in_flight.
  constexpr int kPerThread = 60;
  std::atomic<int> full{0};
  std::atomic<int> degraded{0};
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::atomic<size_t> max_queue_depth{0};

  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  // Clients wait for one another before the first query, so they overlap
  // even when thread start-up is slower than a client's whole run.
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        const size_t depth = store.PoolQueueDepth();
        size_t seen = max_queue_depth.load();
        while (depth > seen &&
               !max_queue_depth.compare_exchange_weak(seen, depth)) {
        }
        StatusOr<FleetQueryResult> hits =
            (c + i) % 2 == 0
                ? store.PredictiveRangeQuery(everywhere, kNow + 5, 3)
                : store.PredictiveNearestNeighbors({0, 0}, kNow + 5, 2);
        if (!hits.ok()) {
          if (hits.status().code() == StatusCode::kUnavailable &&
              RetryAfterHint(hits.status()).has_value()) {
            shed.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
          continue;
        }
        bool any_degraded = false;
        bool bad_stamp = false;
        for (const RangeHit& hit : hits->hits) {
          if (hit.prediction.degraded == DegradedReason::kOverloaded) {
            any_degraded = true;
          } else if (hit.prediction.degraded != DegradedReason::kNone) {
            bad_stamp = true;
          }
        }
        if (bad_stamp) {
          other.fetch_add(1);
        } else if (any_degraded) {
          degraded.fetch_add(1);
        } else {
          full.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // The contract: nothing outside {full, degraded(Overloaded),
  // kUnavailable+hint} was ever observed.
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(full.load() + degraded.load() + shed.load(),
            kThreads * kPerThread);
  // 8 clients against max_in_flight=3 must actually shed.
  EXPECT_GT(shed.load(), 0);
  EXPECT_GT(full.load() + degraded.load(), 0);
  // Bounded queue: the fan-out backlog never exceeded its cap.
  EXPECT_LE(max_queue_depth.load(), options.max_pool_queue);
  // And the store drains to idle.
  EXPECT_EQ(store.InFlight(), 0);
  EXPECT_EQ(store.PoolQueueDepth(), 0u);
  EXPECT_EQ(store.metrics_snapshot().counter_sum("store.shed."),
            static_cast<uint64_t>(shed.load()));
}

// ---- Partial answers from a failed shard ----------------------------------

TEST(OverloadTest, KilledShardAnswersPartialAndRecoversOnNextQuery) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  FaultInjector::Global().Reset();
  ObjectStoreOptions options = BaseOptions();
  options.num_shards = 4;
  MovingObjectStore store(options);
  Populate(&store, 4, 44);

  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  auto baseline = store.PredictiveRangeQuery(everywhere, kNow + 5);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->hits.size(), 4u);
  ASSERT_FALSE(baseline->partial);

  // Kill the shard holding object 0, so "partial" visibly drops hits:
  // 100% of its fan-out share fails.
  const int killed = static_cast<int>(ShardOf(0, 4));
  const std::string site = ShardQueryFaultSite(killed);
  FaultRule rule;
  rule.always = true;
  rule.message = "shard killed by test";
  FaultInjector::Global().Arm(site, rule);

  // Every query still calls the killed shard and answers partial, within
  // a real deadline, from the other shards.
  for (int i = 0; i < 4; ++i) {
    const int64_t fires_before = FaultInjector::Global().fires(site);
    auto hits = i % 2 == 0
                    ? store.PredictiveRangeQuery(everywhere, kNow + 5, 3,
                                                 Deadline::AfterMillis(2000))
                    : store.PredictiveNearestNeighbors(
                          {0, 0}, kNow + 5, 4, Deadline::AfterMillis(2000));
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_TRUE(hits->partial);
    EXPECT_EQ(hits->skipped_shards, std::vector<int>{killed});
    EXPECT_EQ(FaultInjector::Global().fires(site), fires_before + 1);
    // The killed shard's objects are missing — service, not silence.
    EXPECT_LT(hits->hits.size(), 4u);
    EXPECT_FALSE(hits->hits.empty());
    for (const RangeHit& hit : hits->hits) {
      EXPECT_NE(ShardOf(hit.id, 4), static_cast<size_t>(killed));
    }
  }

  // The shard heals: the very next query covers it again.
  FaultInjector::Global().Disarm(site);
  auto healed = store.PredictiveRangeQuery(everywhere, kNow + 5);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->partial);
  EXPECT_TRUE(healed->skipped_shards.empty());
  EXPECT_EQ(healed->hits.size(), 4u);
  FaultInjector::Global().Reset();
#endif
}

}  // namespace
}  // namespace hpm
