// Concurrency tests for the sharded MovingObjectStore. Built and run
// under -fsanitize=thread in CI (cmake -DHPM_SANITIZE=thread); the
// assertions here cover what the sanitizer cannot: no lost reports and
// a final state identical to single-threaded ingestion.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "proptest/proptest.h"
#include "server/object_store.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;
constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kPeriodsPerObject = 7;  // Crosses train + retrain thresholds.

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t % kPeriod) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
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
  options.num_shards = 4;
  options.query_threads = 2;
  return options;
}

/// Deterministic per-object noise so concurrent and single-threaded
/// ingestion see byte-identical trajectories. `base` comes from
/// proptest::SeedForTest, so a failure replays via HPM_PROP_SEED.
Point NoisySample(ObjectId id, Timestamp t, uint64_t base) {
  Random rng(base ^
             (static_cast<uint64_t>(id) * 7919 + static_cast<uint64_t>(t)));
  Point p = Route(id, t);
  p.x += rng.Gaussian(0, 1.0);
  p.y += rng.Gaussian(0, 1.0);
  return p;
}

// N writers own disjoint objects; M readers hammer point, range, kNN,
// and batch queries plus the metadata accessors while ingestion runs.
// Writers and readers meet at a barrier after every writer step (one
// report per writer), so all readers start together on the views that
// step just published: each reader opens with a range and a kNN query
// over the whole fleet, so first calls of a fresh view's per-object
// memos collide on every step, not only by chance. Readers keep going,
// step for step, until the writers finish, while the writers ingest the
// next step.
// Afterwards the store must hold exactly what a single-threaded store
// fed the same samples holds.
void ParallelWritersAndReadersKeepStateExact(int query_threads) {
  const uint64_t seed = proptest::SeedForTest(7919);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  ObjectStoreOptions options = Options();
  options.query_threads = query_threads;
  MovingObjectStore store(options);
  const Timestamp samples = kPeriodsPerObject * kPeriod;

  std::barrier step_published(kWriters + kReaders);
  std::atomic<int> writer_failures{0};

  // No thread leaves the loop early: a missing arrival would stall the
  // barrier, so failures are counted and the steps run to the end.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back(
        [&store, &step_published, &writer_failures, w, samples, seed] {
          const ObjectId id = w;  // Disjoint: one object per writer.
          for (Timestamp t = 0; t < samples; ++t) {
            if (!store.ReportLocation(id, NoisySample(id, t, seed)).ok()) {
              writer_failures.fetch_add(1);
            }
            step_published.arrive_and_wait();
          }
        });
  }

  std::vector<std::thread> readers;
  std::atomic<int> reader_failures{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &step_published, &reader_failures,
                          samples] {
      const BoundingBox everywhere{{-1e7, -1e7}, {1e7, 1e7}};
      const std::vector<ObjectId> all_ids = {0, 1, 2, 3};
      for (Timestamp step = 0; step < samples; ++step) {
        step_published.arrive_and_wait();
        // After every report (so always after "now"), and near enough
        // that the motion function's recurrence stays cheap.
        const Timestamp tq = samples + step % kPeriod;
        if (!store.PredictiveRangeQuery(everywhere, tq).ok()) {
          reader_failures.fetch_add(1);
        }
        if (!store.PredictiveNearestNeighbors({0.0, 0.0}, tq, 2).ok()) {
          reader_failures.fetch_add(1);
        }
        if (store.PredictLocationBatch(all_ids, tq).size() != all_ids.size()) {
          reader_failures.fetch_add(1);
        }
        // Metadata snapshots must be internally consistent.
        const std::vector<ObjectId> ids = store.ObjectIds();
        if (!std::is_sorted(ids.begin(), ids.end())) {
          reader_failures.fetch_add(1);
        }
        for (ObjectId id : ids) {
          // Listed objects have at least one report.
          if (store.HistoryLength(id) == 0) reader_failures.fetch_add(1);
          auto point = store.PredictLocation(id, tq);
          if (!point.ok() &&
              point.status().code() != StatusCode::kFailedPrecondition) {
            reader_failures.fetch_add(1);
          }
        }
      }
    });
  }

  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(writer_failures.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  // No lost reports.
  ASSERT_EQ(store.NumObjects(), static_cast<size_t>(kWriters));
  for (ObjectId id = 0; id < kWriters; ++id) {
    EXPECT_EQ(store.HistoryLength(id), static_cast<size_t>(samples));
  }

  // Deterministic final state: a single-threaded store fed the same
  // samples must agree on every prediction and on the trained models'
  // pattern sets.
  MovingObjectStore reference(Options());
  for (ObjectId id = 0; id < kWriters; ++id) {
    for (Timestamp t = 0; t < samples; ++t) {
      ASSERT_TRUE(reference.ReportLocation(id, NoisySample(id, t, seed)).ok());
    }
  }
  const Timestamp tq = samples + 3;
  for (ObjectId id = 0; id < kWriters; ++id) {
    auto concurrent_model = store.GetPredictor(id);
    auto reference_model = reference.GetPredictor(id);
    ASSERT_EQ(concurrent_model.ok(), reference_model.ok());
    if (concurrent_model.ok()) {
      EXPECT_EQ((*concurrent_model)->PatternTable().size(),
                (*reference_model)->PatternTable().size());
    }
    auto got = store.PredictLocation(id, tq, 3);
    auto want = reference.PredictLocation(id, tq, 3);
    ASSERT_EQ(got.ok(), want.ok());
    if (!got.ok()) continue;
    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].location.x, (*want)[i].location.x);
      EXPECT_EQ((*got)[i].location.y, (*want)[i].location.y);
      EXPECT_EQ((*got)[i].score, (*want)[i].score);
      EXPECT_EQ((*got)[i].source, (*want)[i].source);
    }
  }
}

TEST(ConcurrentStoreTest, ParallelWritersAndReadersKeepStateExact) {
  ParallelWritersAndReadersKeepStateExact(2);
}

// With one query thread the range and kNN lanes run on the readers' own
// threads, so no pool queue mutex orders one reader's lanes before the
// next reader's: whatever the lanes share must be synchronised itself.
TEST(ConcurrentStoreTest, ParallelWritersAndReadersKeepStateExactInlineLanes) {
  ParallelWritersAndReadersKeepStateExact(1);
}

// Regression test for the ObjectIds()/HistoryLength() satellite: both
// must be safe (and sane) while ReportLocation runs on other threads.
TEST(ConcurrentStoreTest, MetadataReadsDuringConcurrentReports) {
  MovingObjectStore store(Options());
  constexpr Timestamp kSamples = 2 * kPeriod;  // Below training threshold.

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (Timestamp t = 0; t < kSamples; ++t) {
        ASSERT_TRUE(store.ReportLocation(w, Route(w, t)).ok());
      }
    });
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &failures] {
      size_t max_seen = 0;
      while (!stop.load()) {
        const std::vector<ObjectId> ids = store.ObjectIds();
        if (ids.size() > static_cast<size_t>(kWriters) ||
            !std::is_sorted(ids.begin(), ids.end())) {
          failures.fetch_add(1);
          return;
        }
        size_t total = 0;
        for (ObjectId id = 0; id < kWriters; ++id) {
          total += store.HistoryLength(id);
        }
        if (total < max_seen ||  // Histories only grow.
            total > static_cast<size_t>(kWriters) * kSamples) {
          failures.fetch_add(1);
          return;
        }
        max_seen = total;
      }
    });
  }

  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.ObjectIds(),
            (std::vector<ObjectId>{0, 1, 2, 3}));
  for (ObjectId id = 0; id < kWriters; ++id) {
    EXPECT_EQ(store.HistoryLength(id), static_cast<size_t>(kSamples));
  }
}

// Model snapshots handed out by GetPredictor stay valid and give the
// same answers after later retrains swap the live model.
TEST(ConcurrentStoreTest, SnapshotsSurviveRetrains) {
  const uint64_t seed = proptest::SeedForTest(7919);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  ObjectStoreOptions options = Options();
  // A zero drift threshold rebuilds at every period boundary, so the
  // steady route below still replaces the live model.
  options.rebuild.drift_threshold = 0;
  MovingObjectStore store(options);
  const Timestamp trained = options.min_training_periods * kPeriod;
  for (Timestamp t = 0; t < trained; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, NoisySample(0, t, seed)).ok());
  }
  auto snapshot = store.GetPredictor(0);
  ASSERT_TRUE(snapshot.ok());

  PredictiveQuery query;
  query.current_time = trained - 1;
  query.query_time = trained + 2;
  query.k = 3;
  Trajectory so_far;
  for (Timestamp t = 0; t < trained; ++t) {
    so_far.Append(NoisySample(0, t, seed));
  }
  query.recent_movements = so_far.RecentMovements(trained - 1, 5);
  auto before = (*snapshot)->Predict(query);
  ASSERT_TRUE(before.ok());

  // Drive four more rebuilds; the live model is replaced.
  for (Timestamp t = trained; t < trained + 4 * kPeriod; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, NoisySample(0, t, seed)).ok());
  }
  auto live = store.GetPredictor(0);
  ASSERT_TRUE(live.ok());
  EXPECT_NE(snapshot->get(), live->get());
  EXPECT_GE((*live)->PatternTable().size(), (*snapshot)->PatternTable().size());

  // The old snapshot still answers, identically.
  auto after = (*snapshot)->Predict(query);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].location.x, (*before)[i].location.x);
    EXPECT_EQ((*after)[i].location.y, (*before)[i].location.y);
    EXPECT_EQ((*after)[i].score, (*before)[i].score);
  }
}

}  // namespace
}  // namespace hpm
