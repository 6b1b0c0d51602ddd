// Incremental pattern maintenance + drift-triggered rebuilds (the
// store's one model-maintenance path): the differential against a
// from-scratch Train over the miner's window, publication and metrics,
// miner state across save/reload, the build kill points (last-good
// model keeps serving, the bootstrap publishes nothing) and
// WAL-replayed miner convergence.
//
// The kill-point and WAL cases need the compiled-in fault hooks and
// skip themselves in plain builds.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/hybrid_predictor.h"
#include "server/object_store.h"

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

ObjectStoreOptions StoreOptions() {
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

// ---- The sync-mode differential ---------------------------------------

TEST(IncrementalRebuildTest, SyncRebuildEqualsTrainOverMinerWindow) {
  MovingObjectStore store(StoreOptions());
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
      HybridPredictor::Train(state->window, StoreOptions().predictor);
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
  MovingObjectStore store(StoreOptions());
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

// ---- Publication + metrics --------------------------------------------

TEST(IncrementalRebuildTest, DriftRebuildPublishesAndCounts) {
  MovingObjectStore store(StoreOptions());
  Random rng(13);
  Feed(store, 1, 6, 0, &rng);
  const StatusOr<std::shared_ptr<const HybridPredictor>> before =
      store.GetPredictor(1);
  ASSERT_TRUE(before.ok());

  Feed(store, 1, 8, 1, &rng);  // route change: drift triggers rebuilds
  // Rebuilds run on the reporting thread: the drifting reports
  // themselves replaced the model, before any flush.
  EXPECT_GE(store.metrics_snapshot().counter("rebuild.completed"), 1u);
  ASSERT_TRUE(store.FlushRebuilds().ok());

  const MetricsSnapshot snapshot = store.metrics_snapshot();
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
  // One timing per replaced model; the bootstrap replaces none.
  EXPECT_EQ(build_us->count, snapshot.counter("rebuild.completed"));

  // The swap actually published a new model, and it serves.
  const StatusOr<std::shared_ptr<const HybridPredictor>> after =
      store.GetPredictor(1);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  const Timestamp tq = static_cast<Timestamp>(store.HistoryLength(1)) + 4;
  EXPECT_TRUE(store.PredictLocation(1, tq).ok());
}

TEST(IncrementalRebuildTest, ReloadCountsOnlyPeriodsPastTheConsumedMark) {
  const std::string dir = FreshDir("incremental_rebuild_reload");
  MovingObjectStore store(StoreOptions());
  Random rng(21);
  Feed(store, 1, 9, 0, &rng);  // bootstrap at 5 periods, then steady
  const StatusOr<MovingObjectStore::MinerSnapshot> live = store.MinerState(1);
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live->consumed_samples, 5u * static_cast<size_t>(kPeriod));
  // Live, the bootstrap adoption re-bases the counts and only the four
  // later periods are traffic.
  EXPECT_EQ(live->stats.transactions, 4u);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());

  StatusOr<MovingObjectStore> reloaded =
      MovingObjectStore::LoadFromDirectory(dir, StoreOptions());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const StatusOr<MovingObjectStore::MinerSnapshot> primed =
      reloaded->MinerState(1);
  ASSERT_TRUE(primed.ok());
  // Priming replays the live order: the periods up to the consumed mark
  // are re-based by the adoption recount, not counted as new traffic.
  EXPECT_EQ(primed->stats.transactions, 4u);
  EXPECT_EQ(primed->stats.promoted, live->stats.promoted);
  EXPECT_EQ(primed->stats.demoted, live->stats.demoted);
  EXPECT_EQ(reloaded->metrics_snapshot().counter("miner.transactions"), 4u);
  // Counts and drift are unchanged by the reload.
  EXPECT_EQ(primed->consumed_samples, live->consumed_samples);
  EXPECT_EQ(primed->window_end, live->window_end);
  EXPECT_EQ(primed->drift, live->drift);
  ASSERT_EQ(primed->patterns.size(), live->patterns.size());
  for (size_t i = 0; i < live->patterns.size(); ++i) {
    EXPECT_EQ(primed->patterns[i].premise, live->patterns[i].premise);
    EXPECT_EQ(primed->patterns[i].consequence, live->patterns[i].consequence);
    EXPECT_EQ(primed->patterns[i].support, live->patterns[i].support);
  }
  std::filesystem::remove_all(dir);
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
    MovingObjectStore store(StoreOptions());
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

TEST(IncrementalRebuildFaultTest, BootstrapFailsAtTheFreezeKillPoint) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks not compiled in (-DHPM_ENABLE_FAULTS=ON)";
#else
  // The bootstrap train runs the same capture → build → publish cycle
  // as a rebuild, so the rebuild kill points bracket it too.
  FaultInjector::Global().Reset();
  MovingObjectStore store(StoreOptions());
  Random rng(41);
  Feed(store, 1, 4, 0, &rng);
  for (Timestamp off = 0; off + 1 < kPeriod; ++off) {
    ASSERT_TRUE(store.ReportLocation(1, Route(1, off, 0)).ok());
  }
  FaultRule rule;
  rule.always = true;
  FaultInjector::Global().Arm("rebuild/freeze", rule);
  // The report completing the fifth period reaches the threshold; its
  // build dies after mining, so nothing is published.
  const Status failed = store.ReportLocation(1, Route(1, kPeriod - 1, 0));
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("train"), std::string::npos);
  EXPECT_EQ(store.HistoryLength(1), 5u * static_cast<size_t>(kPeriod));
  EXPECT_EQ(store.GetPredictor(1).status().code(),
            StatusCode::kFailedPrecondition);
  // A bootstrap replaces no model, so it is not a failed rebuild.
  EXPECT_EQ(store.metrics_snapshot().counter("rebuild.failed"), 0u);

  // The threshold still holds: the next report trains.
  FaultInjector::Global().Disarm("rebuild/freeze");
  ASSERT_TRUE(store.ReportLocation(1, Route(1, 0, 0)).ok());
  EXPECT_TRUE(store.GetPredictor(1).ok());
  const StatusOr<MovingObjectStore::MinerSnapshot> state = store.MinerState(1);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->consumed_samples, 5u * static_cast<size_t>(kPeriod));
  FaultInjector::Global().Reset();
#endif
}

TEST(IncrementalRebuildFaultTest, RebuildRetriesATransientTrainFault) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks not compiled in (-DHPM_ENABLE_FAULTS=ON)";
#else
  FaultInjector::Global().Reset();
  MovingObjectStore store(StoreOptions());
  Random rng(43);
  Feed(store, 1, 6, 0, &rng);  // one pending period past the bootstrap
  const StatusOr<std::shared_ptr<const HybridPredictor>> before =
      store.GetPredictor(1);
  ASSERT_TRUE(before.ok());

  // Fail the first rebuild's first training attempt with a transient
  // fault; the build's retry absorbs it.
  FaultRule rule;
  rule.nth_call = FaultInjector::Global().calls("core/train") + 1;
  FaultInjector::Global().Arm("core/train", rule);
  EXPECT_TRUE(store.FlushRebuilds().ok());
  EXPECT_EQ(FaultInjector::Global().fires("core/train"), 1);

  const MetricsSnapshot snapshot = store.metrics_snapshot();
  EXPECT_EQ(snapshot.counter("rebuild.failed"), 0u);
  EXPECT_EQ(snapshot.counter("rebuild.completed"), 1u);
  const StatusOr<std::shared_ptr<const HybridPredictor>> after =
      store.GetPredictor(1);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  FaultInjector::Global().Reset();
#endif
}

TEST(IncrementalRebuildFaultTest, WalReplayConvergesThroughTheMiner) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks not compiled in (-DHPM_ENABLE_FAULTS=ON)";
#else
  const std::string dir = FreshDir("incremental_rebuild_wal");
  ObjectStoreOptions durable_options = StoreOptions();
  durable_options.durability.wal_dir = dir + "/wal";

  // The reference store sees the same reports, uninterrupted.
  MovingObjectStore reference(StoreOptions());
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
