// Sanitizer stress battery for the lock-free epoch-protected read path.
// Built and run under -fsanitize=thread (data races between the no-lock
// readers and the publish/retire writers) and under -fsanitize=address
// with an aggressive retire/free churn workload (a view or table freed
// while a pinned reader still dereferences it is a use-after-free the
// sanitizer catches deterministically). scripts/check.sh runs the
// `concurrency` label in both legs.
//
// The assertions cover what the sanitizers cannot: no lost reports, and
// the epoch.* accounting invariants (pins observed, every retirement
// eventually freed, never the other way round).

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "proptest/proptest.h"
#include "server/object_store.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 8;
constexpr int kWriters = 2;
constexpr int kReaders = 3;
// Each writer grows this many objects mid-run; every creation rebuilds
// (publishes + retires) the owning shard's table.
constexpr int kObjectsPerWriter = 3;
constexpr Timestamp kSamplesPerObject = 5 * kPeriod;

/// Rebuild on every completed period (a zero drift threshold is always
/// reached): maximum model swap (and therefore view retire) pressure
/// per report.
ObjectStoreOptions ChurnOptions() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 4;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = 2;
  options.rebuild.drift_threshold = 0;
  options.recent_window = 4;
  options.num_shards = 4;
  options.query_threads = 2;
  return options;
}

Point NoisySample(ObjectId id, Timestamp t, uint64_t base) {
  Random rng(base ^
             (static_cast<uint64_t>(id) * 7919 + static_cast<uint64_t>(t)));
  Point p{100.0 * static_cast<double>(t % kPeriod) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
  p.x += rng.Gaussian(0, 1.0);
  p.y += rng.Gaussian(0, 1.0);
  return p;
}

// Writers continuously swap views (every report) and models (every
// period) and rebuild shard tables (every object creation) while readers
// hammer all four query kinds with no lock to hide behind. Ids that do
// not exist yet exercise the table-miss path.
void ReadersSurviveViewSwapsAndShardRebuilds(int query_threads) {
  const uint64_t seed = proptest::SeedForTest(4871);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  ObjectStoreOptions options = ChurnOptions();
  options.query_threads = query_threads;
  MovingObjectStore store(options);

  std::atomic<bool> stop{false};
  std::atomic<int> writer_failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &writer_failures, w, seed] {
      // Objects join the rotation one at a time; each join publishes a
      // rebuilt shard table under live readers.
      for (int alive = 1; alive <= kObjectsPerWriter; ++alive) {
        for (Timestamp t = 0; t < kSamplesPerObject; ++t) {
          for (int o = 0; o < alive; ++o) {
            const ObjectId id = w + o * kWriters;
            // Interleaved rotation: object o is kSamplesPerObject ticks
            // ahead of object o+1, so every object keeps growing (and
            // keeps retraining) for the rest of the run.
            const Timestamp at =
                static_cast<Timestamp>(alive - 1 - o) * kSamplesPerObject +
                t;
            if (!store.ReportLocationAt(id, at, NoisySample(id, at, seed))
                     .ok()) {
              writer_failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }

  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  std::vector<ObjectId> all_ids;
  for (int w = 0; w < kWriters; ++w) {
    for (int o = 0; o < kObjectsPerWriter; ++o) {
      all_ids.push_back(w + o * kWriters);
    }
  }
  all_ids.push_back(9999);  // Never created: permanent table miss.
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &reader_failures, &all_ids, r] {
      const BoundingBox everywhere{{-1e7, -1e7}, {1e7, 1e7}};
      int rounds = 0;
      while (!stop.load()) {
        ++rounds;
        const Timestamp tq = 1000000 + rounds;
        switch ((r + rounds) % 4) {
          case 0:
            for (const ObjectId id : all_ids) {
              const auto got = store.PredictLocation(id, tq, 2);
              if (!got.ok() &&
                  got.status().code() != StatusCode::kNotFound &&
                  got.status().code() != StatusCode::kFailedPrecondition) {
                reader_failures.fetch_add(1);
                return;
              }
            }
            break;
          case 1: {
            const auto hits = store.PredictiveRangeQuery(everywhere, tq);
            if (!hits.ok()) reader_failures.fetch_add(1);
            break;
          }
          case 2: {
            const auto hits =
                store.PredictiveNearestNeighbors({0.0, 0.0}, tq, 3);
            if (!hits.ok()) reader_failures.fetch_add(1);
            break;
          }
          default: {
            const auto batch = store.PredictLocationBatch(all_ids, tq, 2);
            if (batch.size() != all_ids.size()) {
              reader_failures.fetch_add(1);
              break;
            }
            // The sentinel id must always miss; real ids must never
            // surface an unexpected status.
            if (batch.back().ok() ||
                batch.back().status().code() != StatusCode::kNotFound) {
              reader_failures.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }

  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(writer_failures.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  // No lost reports.
  ASSERT_EQ(store.NumObjects(),
            static_cast<size_t>(kWriters * kObjectsPerWriter));
  for (int w = 0; w < kWriters; ++w) {
    for (int o = 0; o < kObjectsPerWriter; ++o) {
      const ObjectId id = w + o * kWriters;
      EXPECT_EQ(store.HistoryLength(id),
                static_cast<size_t>(kObjectsPerWriter - o) *
                    kSamplesPerObject)
          << "object " << id;
    }
  }

  // Epoch accounting invariants. Every query pinned at least once;
  // every report retired at least the replaced view; frees never
  // outrun retirements.
  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_GT(snap.counter("epoch.pinned"), 0u);
  EXPECT_GE(snap.counter("epoch.retired"),
            static_cast<uint64_t>(kWriters) * kObjectsPerWriter *
                kSamplesPerObject - static_cast<uint64_t>(store.NumObjects()));
  EXPECT_LE(snap.counter("epoch.freed"), snap.counter("epoch.retired"));
}

TEST(EpochStressTest, ReadersSurviveViewSwapsAndShardRebuilds) {
  ReadersSurviveViewSwapsAndShardRebuilds(2);
}

// With one query thread the range and kNN lanes run on the readers' own
// threads, so no pool queue mutex orders one reader's lanes before the
// next reader's: whatever the lanes share must be synchronised itself.
TEST(EpochStressTest, ReadersSurviveViewSwapsAndShardRebuildsInlineLanes) {
  ReadersSurviveViewSwapsAndShardRebuilds(1);
}

// Aggressive-free churn: one shard, one hot object, every report
// retires the previous view (and every period the previous model's
// view), while readers re-resolve the view pointer in the tightest
// possible loop. Under ASan a premature free is an immediate
// use-after-free; under TSan an unsynchronised publish is a race.
TEST(EpochStressTest, AggressiveFreeChurnOnAHotObject) {
  const uint64_t seed = proptest::SeedForTest(6203);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  ObjectStoreOptions options = ChurnOptions();
  options.num_shards = 1;
  options.query_threads = 1;  // Fan-out inline: readers pin on their own.
  MovingObjectStore store(options);
  constexpr ObjectId kHot = 42;
  constexpr Timestamp kReports = 12 * kPeriod;

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &reader_failures] {
      int rounds = 0;
      while (!stop.load()) {
        ++rounds;
        const auto got = store.PredictLocation(kHot, 1000000 + rounds, 1);
        if (!got.ok() &&
            got.status().code() != StatusCode::kNotFound &&
            got.status().code() != StatusCode::kFailedPrecondition) {
          reader_failures.fetch_add(1);
          return;
        }
        // GetPredictor's shared snapshot must outlive any later swap.
        const auto model = store.GetPredictor(kHot);
        if (model.ok() && (*model)->tpt().empty() &&
            !(*model)->tpt().empty()) {
          reader_failures.fetch_add(1);  // Unreachable; forces the deref.
          return;
        }
      }
    });
  }

  for (Timestamp t = 0; t < kReports; ++t) {
    ASSERT_TRUE(store.ReportLocation(kHot, NoisySample(kHot, t, seed)).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);

  // With no reader pinned any more, one further report's auto-reclaim
  // frees everything retired before it: limbo cannot grow without
  // bound under churn.
  ASSERT_TRUE(
      store.ReportLocation(kHot, NoisySample(kHot, kReports, seed)).ok());
  const MetricsSnapshot snap = store.metrics_snapshot();
  const uint64_t retired = snap.counter("epoch.retired");
  const uint64_t freed = snap.counter("epoch.freed");
  EXPECT_GE(retired, static_cast<uint64_t>(kReports));
  EXPECT_LE(freed, retired);
  // Everything except the final report's own retirements must be free.
  EXPECT_GE(freed + 2, static_cast<uint64_t>(kReports) - 1);
}

// Each published view carries a memoised RMF fit that its first reader
// computes, so a query's first use of a view writes into shared,
// epoch-protected state. Readers race to fit views that the reporters
// keep replacing: range and kNN queries at near horizons, with boxes
// and targets on the live routes, bound every object (fitting its view)
// and prune most of them, while point queries take their RMF answers
// from the same fits. Under TSan an unsynchronised fit is a race; under
// ASan a fit written after its view was freed is a use-after-free.
TEST(EpochStressTest, ReadersShareEachViewsMotionFitWhileReportersRepublish) {
  const uint64_t seed = proptest::SeedForTest(7417);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  ObjectStoreOptions options = ChurnOptions();
  // Fan-out inline on each reader: pool hand-offs go through the pool's
  // mutex, which would order the readers' fits for TSan.
  options.query_threads = 1;
  MovingObjectStore store(options);
  constexpr ObjectId kObjects = 6;
  constexpr Timestamp kReports = 8 * kPeriod;
  for (ObjectId id = 0; id < kObjects; ++id) {
    for (Timestamp t = 0; t < 2; ++t) {
      ASSERT_TRUE(store.ReportLocation(id, NoisySample(id, t, seed)).ok());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &reader_failures, &reads, r, seed] {
      Random rng(seed + static_cast<uint64_t>(r));
      // Relaxed: a read-modify-write chain through `reads` would order
      // the readers for TSan and hide a race between them.
      for (int rounds = 0; !stop.load();
           ++rounds, reads.fetch_add(1, std::memory_order_relaxed)) {
        const ObjectId id = static_cast<ObjectId>(rng.Uniform(kObjects));
        const Timestamp tq =
            static_cast<Timestamp>(store.HistoryLength(id)) +
            static_cast<Timestamp>(rng.Uniform(2 * kPeriod));
        const Point at = NoisySample(id, tq, seed);
        const BoundingBox box({at.x - 60.0, at.y - 60.0},
                              {at.x + 60.0, at.y + 60.0});
        switch (rounds % 3) {
          case 0: {
            const auto range = store.PredictiveRangeQuery(box, tq, 3);
            if (!range.ok() || range->partial) {
              reader_failures.fetch_add(1);
              return;
            }
            for (const RangeHit& hit : range->hits) {
              if (!box.Contains(hit.prediction.location)) {
                reader_failures.fetch_add(1);
              }
            }
            break;
          }
          case 1: {
            const auto knn = store.PredictiveNearestNeighbors(at, tq, 2);
            if (!knn.ok() || knn->partial || knn->hits.size() > 2) {
              reader_failures.fetch_add(1);
              return;
            }
            for (size_t i = 1; i < knn->hits.size(); ++i) {
              if (SquaredDistance(knn->hits[i].prediction.location, at) <
                  SquaredDistance(knn->hits[i - 1].prediction.location, at)) {
                reader_failures.fetch_add(1);
              }
            }
            break;
          }
          default: {
            // A report may land first and pass tq: InvalidArgument.
            const auto got = store.PredictLocation(id, tq, 2);
            if (!got.ok() &&
                got.status().code() != StatusCode::kInvalidArgument) {
              reader_failures.fetch_add(1);
              return;
            }
            break;
          }
        }
      }
    });
  }

  for (Timestamp t = 2; t < kReports; ++t) {
    for (ObjectId id = 0; id < kObjects; ++id) {
      ASSERT_TRUE(store.ReportLocation(id, NoisySample(id, t, seed)).ok());
    }
    // Keep the readers in step, so every tick's views get read: wait
    // for rounds completed after this tick's reports, not for a running
    // total that rounds read before any model existed can already meet.
    const int64_t published_at = reads.load(std::memory_order_relaxed);
    while (reader_failures.load() == 0 &&
           reads.load(std::memory_order_relaxed) <
               published_at + 4 * kReaders) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);

  const MetricsSnapshot snap = store.metrics_snapshot();
  EXPECT_GT(snap.counter("store.motion_fits"), 0u);
  EXPECT_GT(snap.counter("store.objects_pruned"), 0u);
  EXPECT_LE(snap.counter("epoch.freed"), snap.counter("epoch.retired"));
}

}  // namespace
}  // namespace hpm
