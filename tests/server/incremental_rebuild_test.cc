// Incremental pattern maintenance + drift-triggered rebuilds (the
// store's one model-maintenance path): scheduler mechanics, the sync-mode
// differential against a from-scratch Train over the miner's window,
// background publication, the rebuild kill points (last-good model
// keeps serving) and WAL-replayed miner convergence.
//
// The kill-point and WAL cases need the compiled-in fault hooks and
// skip themselves in plain builds.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/hybrid_predictor.h"
#include "server/object_store.h"
#include "server/rebuild_scheduler.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

/// `variant` shifts the whole route, far beyond region_match_slack, so a
/// variant switch makes every report unmatched until a rebuild re-mines.
Point Route(ObjectId id, Timestamp offset, int variant) {
  return {100.0 * static_cast<double>(offset) + 50.0 +
              400.0 * static_cast<double>(variant),
          500.0 + 1000.0 * static_cast<double>(id)};
}

ObjectStoreOptions StoreOptions(bool background) {
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
  options.rebuild.background = background;
  options.rebuild.drift_threshold = 1.0;
  options.rebuild.miner.window_periods = 8;
  return options;
}

/// Ingests `periods` noisy laps of the variant's route. Ingest statuses
/// are asserted OK unless `expect_ok` is false (the armed-fault legs,
/// where an inline rebuild failure propagates but the report has
/// already been applied and journaled).
void Feed(MovingObjectStore& store, ObjectId id, int periods, int variant,
          Random* rng, bool expect_ok = true) {
  for (int p = 0; p < periods; ++p) {
    for (Timestamp off = 0; off < kPeriod; ++off) {
      Point point = Route(id, off, variant);
      point.x += rng->Gaussian(0, 1.0);
      point.y += rng->Gaussian(0, 1.0);
      const Status status = store.ReportLocation(id, point);
      if (expect_ok) {
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
    }
  }
}

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadSmallFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  if (f != nullptr) std::fclose(f);
  return content;
}

// ---- RebuildScheduler mechanics ---------------------------------------

TEST(RebuildSchedulerTest, RunsDeduplicatesAndBoundsTheQueue) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> runs{0};
  RebuildScheduler::Options options;
  options.max_pending = 2;
  RebuildScheduler scheduler(
      options,
      [&](ObjectId) {
        started.store(true);
        while (!release.load()) std::this_thread::yield();
        ++runs;
      },
      [] { return false; });

  // The worker picks up the first id and blocks in the rebuild, leaving
  // the queue itself empty.
  EXPECT_EQ(scheduler.Enqueue(1), RebuildScheduler::EnqueueResult::kQueued);
  while (!started.load()) std::this_thread::yield();

  EXPECT_EQ(scheduler.Enqueue(2), RebuildScheduler::EnqueueResult::kQueued);
  EXPECT_EQ(scheduler.Enqueue(2),
            RebuildScheduler::EnqueueResult::kAlreadyPending);
  EXPECT_EQ(scheduler.Enqueue(3), RebuildScheduler::EnqueueResult::kQueued);
  EXPECT_EQ(scheduler.Enqueue(4), RebuildScheduler::EnqueueResult::kDropped);

  release.store(true);
  scheduler.Drain();
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(RebuildSchedulerTest, DefersWhileUnderPressure) {
  std::atomic<bool> pressure{true};
  std::atomic<int> runs{0};
  Counter deferred;
  RebuildScheduler::Options options;
  options.defer_backoff = std::chrono::milliseconds(1);
  options.deferred_counter = &deferred;
  RebuildScheduler scheduler(
      options, [&](ObjectId) { ++runs; },
      [&] { return pressure.load(); });

  ASSERT_EQ(scheduler.Enqueue(7), RebuildScheduler::EnqueueResult::kQueued);
  while (deferred.value() < 3) std::this_thread::yield();
  EXPECT_EQ(runs.load(), 0);  // query traffic outranks the rebuild

  pressure.store(false);
  scheduler.Drain();
  EXPECT_EQ(runs.load(), 1);
}

TEST(RebuildSchedulerTest, DestructionDropsQueuedWork) {
  std::atomic<int> runs{0};
  RebuildScheduler::Options options;
  options.defer_backoff = std::chrono::milliseconds(1);
  {
    RebuildScheduler scheduler(
        options, [&](ObjectId) { ++runs; }, [] { return true; });
    scheduler.Enqueue(1);
    scheduler.Enqueue(2);
    // Permanent pressure: the worker only defers until the destructor
    // stops it. Queued-but-unstarted work is dropped, never run.
  }
  EXPECT_EQ(runs.load(), 0);
}

TEST(RebuildSchedulerTest, ThrottleSpacesStartsAndDrainOverridesIt) {
  std::atomic<int> runs{0};
  RebuildScheduler::Options options;
  // Far beyond the test's lifetime: only the first rebuild may start on
  // its own; the second waits until Drain overrides the throttle.
  options.min_start_interval = std::chrono::hours(1);
  RebuildScheduler scheduler(
      options, [&](ObjectId) { ++runs; }, nullptr);
  scheduler.Enqueue(1);
  scheduler.Enqueue(2);
  while (runs.load() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(runs.load(), 1);  // throttled, not lost
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.Drain();
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(scheduler.pending(), 0u);
}

// ---- The sync-mode differential ---------------------------------------

TEST(IncrementalRebuildTest, SyncRebuildEqualsTrainOverMinerWindow) {
  MovingObjectStore store(StoreOptions(/*background=*/false));
  Random rng(99);
  Feed(store, 1, 6, /*variant=*/0, &rng);
  ASSERT_TRUE(store.GetPredictor(1).ok());  // bootstrapped at 5 periods
  Feed(store, 1, 6, /*variant=*/1, &rng);   // drift-triggering route change
  ASSERT_TRUE(store.FlushRebuilds().ok());

  const StatusOr<MovingObjectStore::MinerSnapshot> state = store.MinerState(1);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->consumed_samples, state->window_end);  // fully flushed
  EXPECT_EQ(state->window.size(),
            8u * static_cast<size_t>(kPeriod));  // window_periods

  // The served model must be byte-for-byte the model a from-scratch
  // Train over the miner's window produces — the rebuild is a pure
  // function of the window.
  const StatusOr<std::unique_ptr<HybridPredictor>> reference =
      HybridPredictor::Train(state->window, StoreOptions(false).predictor);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const StatusOr<std::shared_ptr<const HybridPredictor>> served =
      store.GetPredictor(1);
  ASSERT_TRUE(served.ok());

  const std::string dir = FreshDir("incremental_rebuild_diff");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  ASSERT_TRUE((*served)->SaveToFile(dir + "/served.hpm").ok());
  ASSERT_TRUE((*reference)->SaveToFile(dir + "/reference.hpm").ok());
  EXPECT_EQ(ReadSmallFile(dir + "/served.hpm"),
            ReadSmallFile(dir + "/reference.hpm"));
  std::filesystem::remove_all(dir);
}

TEST(IncrementalRebuildTest, MinerStateReportsDriftAndPatterns) {
  MovingObjectStore store(StoreOptions(/*background=*/false));
  Random rng(7);
  Feed(store, 1, 6, 0, &rng);
  const StatusOr<MovingObjectStore::MinerSnapshot> state = store.MinerState(1);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->patterns.empty());
  EXPECT_GT(state->stats.transactions, 0u);
  EXPECT_EQ(store.MinerState(999).status().code(), StatusCode::kNotFound);

  // Default options: every object has a miner from its first report,
  // and flushing an untrained object is a no-op.
  MovingObjectStore defaults{ObjectStoreOptions{}};
  ASSERT_TRUE(defaults.ReportLocation(1, {1.0, 2.0}).ok());
  const StatusOr<MovingObjectStore::MinerSnapshot> fresh =
      defaults.MinerState(1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->window_end, 0u);
  EXPECT_TRUE(fresh->patterns.empty());
  EXPECT_TRUE(defaults.FlushRebuilds().ok());
}

// ---- Background publication + metrics ---------------------------------

TEST(IncrementalRebuildTest, BackgroundRebuildPublishesOffTheHotPath) {
  MovingObjectStore store(StoreOptions(/*background=*/true));
  Random rng(13);
  Feed(store, 1, 6, 0, &rng);
  const StatusOr<std::shared_ptr<const HybridPredictor>> before =
      store.GetPredictor(1);
  ASSERT_TRUE(before.ok());

  Feed(store, 1, 8, 1, &rng);  // route change: drift triggers rebuilds
  ASSERT_TRUE(store.FlushRebuilds().ok());

  const MetricsSnapshot snapshot = store.metrics_snapshot();
  EXPECT_GE(snapshot.counter("rebuild.scheduled"), 1u);
  EXPECT_GE(snapshot.counter("rebuild.completed"), 1u);
  EXPECT_EQ(snapshot.counter("rebuild.failed"), 0u);
  // Hooks count periods finalized after the first region adoption (the
  // adoption recount itself is a re-basing, not traffic): 14 fed - 5
  // pre-bootstrap = 9.
  EXPECT_EQ(snapshot.counter("miner.transactions"), 9u);
  EXPECT_GT(snapshot.counter("miner.unmatched_points"), 0u);
  const LatencyHistogram::Snapshot* build_us =
      snapshot.histogram("rebuild.build_us");
  ASSERT_NE(build_us, nullptr);
  EXPECT_GE(build_us->count, snapshot.counter("rebuild.completed"));

  // The swap actually published a new model, and it serves.
  const StatusOr<std::shared_ptr<const HybridPredictor>> after =
      store.GetPredictor(1);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  const Timestamp tq = static_cast<Timestamp>(store.HistoryLength(1)) + 4;
  EXPECT_TRUE(store.PredictLocation(1, tq).ok());
}

// ---- Kill points ------------------------------------------------------

TEST(IncrementalRebuildFaultTest, EveryKillPointLeavesLastGoodServing) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks not compiled in (-DHPM_ENABLE_FAULTS=ON)";
#else
  for (const char* site : {"rebuild/mine", "rebuild/freeze",
                           "rebuild/publish"}) {
    SCOPED_TRACE(site);
    FaultInjector::Global().Reset();
    MovingObjectStore store(StoreOptions(/*background=*/false));
    Random rng(31);
    Feed(store, 1, 6, 0, &rng);  // one pending period past the bootstrap
    const StatusOr<std::shared_ptr<const HybridPredictor>> good =
        store.GetPredictor(1);
    ASSERT_TRUE(good.ok());

    FaultRule rule;
    rule.always = true;
    FaultInjector::Global().Arm(site, rule);
    EXPECT_FALSE(store.FlushRebuilds().ok());

    // The failed rebuild is observable but invisible to serving: the
    // last-good model still answers, nothing was consumed, and ingest
    // keeps flowing (steady route: no drift, so no inline rebuild).
    EXPECT_GE(store.metrics_snapshot().counter("rebuild.failed"), 1u);
    const StatusOr<std::shared_ptr<const HybridPredictor>> still =
        store.GetPredictor(1);
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(good->get(), still->get());
    Feed(store, 1, 1, 0, &rng);
    const Timestamp tq = static_cast<Timestamp>(store.HistoryLength(1)) + 4;
    EXPECT_TRUE(store.PredictLocation(1, tq).ok());

    // The fault heals: the next flush completes and swaps the model.
    FaultInjector::Global().Disarm(site);
    EXPECT_TRUE(store.FlushRebuilds().ok());
    const StatusOr<MovingObjectStore::MinerSnapshot> state =
        store.MinerState(1);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->consumed_samples, state->window_end);
    EXPECT_GE(store.metrics_snapshot().counter("rebuild.completed"), 1u);
  }
  FaultInjector::Global().Reset();
#endif
}

TEST(IncrementalRebuildFaultTest, WalReplayConvergesThroughTheMiner) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks not compiled in (-DHPM_ENABLE_FAULTS=ON)";
#else
  const std::string dir = FreshDir("incremental_rebuild_wal");
  ObjectStoreOptions durable_options = StoreOptions(/*background=*/false);
  durable_options.durability.wal_dir = dir + "/wal";

  // The reference store sees the same reports, uninterrupted.
  MovingObjectStore reference(StoreOptions(/*background=*/false));
  {
    MovingObjectStore durable(durable_options);
    ASSERT_TRUE(durable.wal_durable());
    Random rng_a(57);
    Random rng_b(57);
    Feed(durable, 1, 6, 0, &rng_a);
    Feed(reference, 1, 6, 0, &rng_b);

    // From here every rebuild the drifting route triggers dies at the
    // publish step (the inline failure propagates out of ReportLocation,
    // but the report itself is already journaled and applied). The
    // injector is global, so the reference store fails its rebuilds the
    // same way; both converge at the post-crash FlushRebuilds.
    FaultRule rule;
    rule.always = true;
    FaultInjector::Global().Arm("rebuild/publish", rule);
    Feed(durable, 1, 6, 1, &rng_a, /*expect_ok=*/false);
    Feed(reference, 1, 6, 1, &rng_b, /*expect_ok=*/false);
    // Crash: drop the store with rebuilds still failing.
  }
  FaultInjector::Global().Reset();

  StatusOr<MovingObjectStore> recovered =
      MovingObjectStore::LoadFromDirectory(dir, durable_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(reference.FlushRebuilds().ok());
  ASSERT_TRUE(recovered->FlushRebuilds().ok());

  // Replay fed the miner exactly as live ingest did: the recovered
  // store's pattern state and serving answers equal the reference's.
  const StatusOr<MovingObjectStore::MinerSnapshot> want =
      reference.MinerState(1);
  const StatusOr<MovingObjectStore::MinerSnapshot> got =
      recovered->MinerState(1);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->window_end, want->window_end);
  EXPECT_EQ(got->consumed_samples, want->consumed_samples);
  ASSERT_EQ(got->patterns.size(), want->patterns.size());
  for (size_t i = 0; i < want->patterns.size(); ++i) {
    EXPECT_EQ(got->patterns[i].premise, want->patterns[i].premise);
    EXPECT_EQ(got->patterns[i].consequence, want->patterns[i].consequence);
    EXPECT_EQ(got->patterns[i].support, want->patterns[i].support);
    EXPECT_EQ(got->patterns[i].confidence, want->patterns[i].confidence);
  }
  const Timestamp tq = static_cast<Timestamp>(reference.HistoryLength(1)) + 4;
  const auto want_pred = reference.PredictLocation(1, tq, 2);
  const auto got_pred = recovered->PredictLocation(1, tq, 2);
  ASSERT_TRUE(want_pred.ok());
  ASSERT_TRUE(got_pred.ok());
  ASSERT_EQ(want_pred->size(), got_pred->size());
  for (size_t i = 0; i < want_pred->size(); ++i) {
    EXPECT_EQ((*want_pred)[i].location.x, (*got_pred)[i].location.x);
    EXPECT_EQ((*want_pred)[i].location.y, (*got_pred)[i].location.y);
    EXPECT_EQ((*want_pred)[i].score, (*got_pred)[i].score);
  }
  std::filesystem::remove_all(dir);
#endif
}

}  // namespace
}  // namespace hpm
