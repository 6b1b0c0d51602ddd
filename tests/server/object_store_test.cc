#include "server/object_store.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
}

/// One noisy period for object `id`.
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
  return options;
}

TEST(ObjectStoreTest, StartsEmpty) {
  MovingObjectStore store(Options());
  EXPECT_EQ(store.NumObjects(), 0u);
  EXPECT_TRUE(store.ObjectIds().empty());
  EXPECT_EQ(store.HistoryLength(7), 0u);
  EXPECT_EQ(store.PredictLocation(7, 10).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.GetPredictor(7).status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, TracksMultipleObjects) {
  MovingObjectStore store(Options());
  Random rng(1);
  for (ObjectId id : {3, 1, 2}) {
    ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
  }
  EXPECT_EQ(store.NumObjects(), 3u);
  EXPECT_EQ(store.ObjectIds(), (std::vector<ObjectId>{1, 2, 3}));
  EXPECT_EQ(store.HistoryLength(2), static_cast<size_t>(kPeriod));
}

TEST(ObjectStoreTest, ColdStartUsesMotionFunction) {
  MovingObjectStore store(Options());
  Random rng(2);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  EXPECT_EQ(store.GetPredictor(0).status().code(),
            StatusCode::kFailedPrecondition);
  auto predictions = store.PredictLocation(0, kPeriod + 3);
  ASSERT_TRUE(predictions.ok());
  EXPECT_EQ(predictions->front().source,
            PredictionSource::kMotionFunction);
}

TEST(ObjectStoreTest, TrainsAfterThresholdAndAnswersFromPatterns) {
  MovingObjectStore store(Options());
  Random rng(3);
  for (int day = 0; day < 5; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  ASSERT_TRUE(store.GetPredictor(0).ok());
  // Report a fresh partial day so "now" sits mid-period.
  for (Timestamp t = 0; t <= 10; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
  }
  const Timestamp now = 5 * kPeriod + 10;
  auto predictions = store.PredictLocation(0, now + 5);
  ASSERT_TRUE(predictions.ok());
  EXPECT_EQ(predictions->front().source, PredictionSource::kPattern);
  EXPECT_LT(Distance(predictions->front().location, Route(0, 15)), 20.0);
}

TEST(ObjectStoreTest, QueryTimeMustBeFuture) {
  MovingObjectStore store(Options());
  Random rng(4);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  EXPECT_EQ(store.PredictLocation(0, kPeriod - 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ObjectStoreTest, DriftRebuildConsumesTheWindow) {
  MovingObjectStore store(Options());
  Random rng(5);
  for (int day = 0; day < 5; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  auto predictor = store.GetPredictor(0);
  ASSERT_TRUE(predictor.ok());
  const HybridPredictor* bootstrap = predictor->get();
  // The same route again: nothing drifts, so the model is kept however
  // many periods pass.
  for (int day = 0; day < 3; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  predictor = store.GetPredictor(0);
  ASSERT_TRUE(predictor.ok());
  EXPECT_EQ(predictor->get(), bootstrap);

  // A new route matches no region: each such period adds its unmatched
  // share to the drift score, which reaches the default threshold of 3
  // on the fourth, and the model is rebuilt from the miner's window,
  // which it then covers.
  for (int day = 0; day < 4; ++day) {
    for (Timestamp off = 0; off < kPeriod; ++off) {
      Point p = Route(0, off);
      p.y += 400.0;
      ASSERT_TRUE(store.ReportLocation(0, p).ok());
    }
  }
  predictor = store.GetPredictor(0);
  ASSERT_TRUE(predictor.ok());
  EXPECT_NE(predictor->get(), bootstrap);
  EXPECT_TRUE((*predictor)->tpt().CheckInvariants().ok());
  const StatusOr<MovingObjectStore::MinerSnapshot> state = store.MinerState(0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->consumed_samples, state->window_end);
  EXPECT_EQ(state->window_end, 12u * static_cast<size_t>(kPeriod));
  EXPECT_EQ(store.metrics_snapshot().counter("rebuild.completed"), 1u);
}

TEST(ObjectStoreTest, PredictiveRangeQueryFindsTheRightObjects) {
  MovingObjectStore store(Options());
  Random rng(6);
  // Objects 0/1/2 run parallel routes at y = 500 / 1500 / 2500.
  for (ObjectId id : {0, 1, 2}) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 5; ++t) {
      ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
    }
  }
  const Timestamp tq = 5 * kPeriod + 10;  // Offset 10 of the fresh day.
  // A box around object 1's offset-10 position only.
  const Point center = Route(1, 10);
  const BoundingBox around(center - Point{120, 120},
                           center + Point{120, 120});
  auto hits = store.PredictiveRangeQuery(around, tq);
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->partial);
  ASSERT_EQ(hits->hits.size(), 1u);
  EXPECT_EQ(hits->hits[0].id, 1);
  EXPECT_TRUE(around.Contains(hits->hits[0].prediction.location));
}

TEST(ObjectStoreTest, PredictiveRangeQueryWholeSpaceReturnsEveryone) {
  MovingObjectStore store(Options());
  Random rng(7);
  for (ObjectId id : {0, 1}) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 5; ++t) {
      ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
    }
  }
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  auto hits = store.PredictiveRangeQuery(everywhere, 5 * kPeriod + 9);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->hits.size(), 2u);
  // Sorted by score descending.
  EXPECT_GE(hits->hits[0].prediction.score, hits->hits[1].prediction.score);
}

TEST(ObjectStoreTest, RangeQueryValidation) {
  MovingObjectStore store(Options());
  EXPECT_EQ(store.PredictiveRangeQuery(BoundingBox(), 10).status().code(),
            StatusCode::kInvalidArgument);
  const BoundingBox box({0, 0}, {1, 1});
  EXPECT_EQ(store.PredictiveRangeQuery(box, 10, 0).status().code(),
            StatusCode::kInvalidArgument);
  // No objects: empty result, not an error.
  auto hits = store.PredictiveRangeQuery(box, 10);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->hits.empty());
  EXPECT_FALSE(hits->partial);
}

TEST(ObjectStoreTest, RangeQuerySkipsObjectsWithStaleClocks) {
  MovingObjectStore store(Options());
  Random rng(8);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  // tq == the object's last timestamp: nothing to predict.
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  auto hits = store.PredictiveRangeQuery(everywhere, kPeriod - 1);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->hits.empty());
}

TEST(ObjectStoreTest, PredictiveNearestNeighborsOrdersByDistance) {
  MovingObjectStore store(Options());
  Random rng(9);
  for (ObjectId id : {0, 1, 2}) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 5; ++t) {
      ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
    }
  }
  const Timestamp tq = 5 * kPeriod + 10;
  // Target at object 1's future position: expect order 1, then 0/2.
  auto nn = store.PredictiveNearestNeighbors(Route(1, 10), tq, 2);
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn->hits.size(), 2u);
  EXPECT_EQ(nn->hits[0].id, 1);
  const double d0 = Distance(nn->hits[0].prediction.location, Route(1, 10));
  const double d1 = Distance(nn->hits[1].prediction.location, Route(1, 10));
  EXPECT_LE(d0, d1);
  // n larger than the fleet returns everyone.
  auto all = store.PredictiveNearestNeighbors(Route(1, 10), tq, 10);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->hits.size(), 3u);
  // Validation.
  EXPECT_EQ(store.PredictiveNearestNeighbors({0, 0}, tq, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// With no fault armed, no object can fail its shard's share of a fleet
// query: every object the fan-out reaches answers (pattern, fallback,
// cold-start or degraded), and every one it cannot answer is skipped
// before evaluation. So range and kNN are OK and whole at every query
// time, for single-report, cold, stationary and trained objects on
// unrelated clocks, under any deadline — which is also what makes
// skipping an object by its answer bound safe.
TEST(ObjectStoreTest, FleetQueriesHaveNoPerObjectErrorPath) {
  MovingObjectStore store(Options());
  Random rng(12);
  ASSERT_TRUE(store.ReportLocation(0, Route(0, 0)).ok());  // One report.
  for (Timestamp t = 0; t < 3; ++t) {  // Cold.
    ASSERT_TRUE(store.ReportLocation(1, Route(1, t)).ok());
  }
  for (Timestamp t = 0; t < 2; ++t) {  // Cold and stationary.
    ASSERT_TRUE(store.ReportLocation(2, {4000.0, 4000.0}).ok());
  }
  for (ObjectId id : {3, 4}) {  // Trained, on different clocks.
    for (int day = 0; day < 5 + static_cast<int>(id); ++day) {
      ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
  }
  for (Timestamp t = 0; t < 7; ++t) {
    ASSERT_TRUE(store.ReportLocation(4, Route(4, t)).ok());
  }
  ASSERT_TRUE(store.GetPredictor(3).ok());
  ASSERT_TRUE(store.GetPredictor(4).ok());

  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  const BoundingBox tiny({4999.0, 4999.0}, {5001.0, 5001.0});
  const Timestamp last = static_cast<Timestamp>(store.HistoryLength(4)) - 1;
  for (Timestamp tq = 0; tq <= last + 2 * kPeriod; ++tq) {
    size_t eligible = 0;
    for (const ObjectId id : store.ObjectIds()) {
      const size_t length = store.HistoryLength(id);
      eligible += length >= 2 && static_cast<Timestamp>(length) - 1 < tq;
    }
    for (const Deadline& deadline :
         {Deadline::Infinite(), Deadline::Expired()}) {
      for (const int k : {1, 3, std::numeric_limits<int>::max()}) {
        for (const BoundingBox& box : {everywhere, tiny}) {
          const auto range = store.PredictiveRangeQuery(box, tq, k, deadline);
          ASSERT_TRUE(range.ok()) << "tq " << tq << ": "
                                  << range.status().ToString();
          EXPECT_FALSE(range->partial) << "tq " << tq;
          EXPECT_TRUE(range->skipped_shards.empty()) << "tq " << tq;
          if (&box == &everywhere) {
            EXPECT_EQ(range->hits.size(), eligible) << "tq " << tq;
          }
        }
      }
      for (const int n : {1, 3, 100}) {
        const auto knn =
            store.PredictiveNearestNeighbors({5000.0, 5000.0}, tq, n,
                                             deadline);
        ASSERT_TRUE(knn.ok()) << "tq " << tq << ": "
                              << knn.status().ToString();
        EXPECT_FALSE(knn->partial) << "tq " << tq;
        EXPECT_EQ(knn->hits.size(),
                  std::min(eligible, static_cast<size_t>(n)))
            << "tq " << tq;
      }
    }
  }
  EXPECT_EQ(store.metrics_snapshot().counter("store.shards_skipped"), 0u);
}

TEST(ObjectStoreTest, ReportRejectsNonFiniteCoordinates) {
  MovingObjectStore store(Options());
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point& bad :
       {Point{nan, 0.0}, Point{0.0, nan}, Point{inf, 0.0}, Point{0.0, -inf}}) {
    const Status status = store.ReportLocation(7, bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("non-finite"), std::string::npos);
  }
  // Counted per object, and no phantom object was created.
  EXPECT_EQ(store.RejectedReports(7), 4u);
  EXPECT_EQ(store.RejectedReports(8), 0u);
  EXPECT_EQ(store.NumObjects(), 0u);
  EXPECT_EQ(store.HistoryLength(7), 0u);
  // A good report afterwards is unaffected.
  ASSERT_TRUE(store.ReportLocation(7, {1.0, 2.0}).ok());
  EXPECT_EQ(store.HistoryLength(7), 1u);
  EXPECT_EQ(store.RejectedReports(7), 4u);
}

TEST(ObjectStoreTest, ReportAtRejectsNonMonotoneTimestamps) {
  MovingObjectStore store(Options());
  ASSERT_TRUE(store.ReportLocationAt(1, 0, {0.0, 0.0}).ok());
  ASSERT_TRUE(store.ReportLocationAt(1, 1, {1.0, 0.0}).ok());
  // Duplicate / out-of-order tick.
  Status status = store.ReportLocationAt(1, 1, {2.0, 0.0});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("non-monotone"), std::string::npos);
  // Gap in the unit-step time base.
  status = store.ReportLocationAt(1, 5, {2.0, 0.0});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("gap"), std::string::npos);
  // Negative timestamp.
  EXPECT_EQ(store.ReportLocationAt(1, -1, {2.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.RejectedReports(1), 3u);
  // The trajectory is untouched and the next tick still lands.
  EXPECT_EQ(store.HistoryLength(1), 2u);
  ASSERT_TRUE(store.ReportLocationAt(1, 2, {2.0, 0.0}).ok());
  EXPECT_EQ(store.HistoryLength(1), 3u);
}

TEST(ObjectStoreTest, ReportAtRejectsUnknownObjectNonZeroStart) {
  MovingObjectStore store(Options());
  // First tick of an unknown object must be 0 — and the rejection must
  // not create the object.
  EXPECT_EQ(store.ReportLocationAt(9, 3, {0.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.NumObjects(), 0u);
  EXPECT_EQ(store.RejectedReports(9), 1u);
}

TEST(ObjectStoreTest, DirectoryPersistenceRoundTrips) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/store_roundtrip";
  Random rng(12);
  MovingObjectStore original(Options());
  for (ObjectId id : {0, 1}) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(original.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
    for (Timestamp t = 0; t <= 5; ++t) {
      ASSERT_TRUE(original.ReportLocation(id, Route(id, t)).ok());
    }
  }
  ASSERT_TRUE(original.SaveToDirectory(dir).ok());

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumObjects(), 2u);
  EXPECT_EQ(restored->HistoryLength(0), original.HistoryLength(0));
  ASSERT_TRUE(restored->GetPredictor(0).ok());

  // Same answers from both stores.
  const Timestamp tq = 5 * kPeriod + 10;
  auto before = original.PredictLocation(1, tq);
  auto after = restored->PredictLocation(1, tq);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->front().location, after->front().location);

  // And the restored store keeps ingesting + training.
  ASSERT_TRUE(restored->ReportLocation(0, Route(0, 6)).ok());
  EXPECT_EQ(restored->HistoryLength(0), original.HistoryLength(0) + 1);
}

TEST(ObjectStoreTest, LoadFromMissingDirectoryFails) {
  EXPECT_EQ(MovingObjectStore::LoadFromDirectory("/nonexistent/store",
                                                 Options())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

namespace {

/// A saved single-object store whose manifest the test then vandalises.
std::string SavedStoreDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  Random rng(14);
  MovingObjectStore original(Options());
  EXPECT_TRUE(original.ReportTrajectory(3, OnePeriod(3, &rng)).ok());
  EXPECT_TRUE(original.SaveToDirectory(dir).ok());
  return dir;
}

std::string ReadSmallFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buf[256];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

/// The manifest name CURRENT points at, e.g. "MANIFEST-1".
std::string CurrentManifestName(const std::string& dir) {
  std::string name = ReadSmallFile(dir + "/CURRENT");
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  return name;
}

/// The generation number CURRENT points at.
std::string CurrentGeneration(const std::string& dir) {
  return CurrentManifestName(dir).substr(std::string("MANIFEST-").size());
}

/// CRC (manifest hex form) of the current generation's csv for `id`.
std::string CsvCrcHex(const std::string& dir, ObjectId id) {
  const std::string csv = ReadSmallFile(
      dir + "/" + std::to_string(id) + "-" + CurrentGeneration(dir) + ".csv");
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", Crc32(csv));
  return hex;
}

/// Replaces the current generation's manifest body with `body` (object
/// lines), re-stamping the v2 header and checksum line so the corruption
/// under test is what the parser sees — not a checksum mismatch.
void WriteManifest(const std::string& dir, const std::string& body) {
  std::string content = "hpm-store-manifest v2\n" + body;
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n", Crc32(content));
  content += crc_line;
  std::FILE* f =
      std::fopen((dir + "/" + CurrentManifestName(dir)).c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
}

}  // namespace

TEST(ObjectStoreTest, LoadRejectsMalformedManifestLine) {
  const std::string dir = SavedStoreDir("store_bad_manifest");
  const std::string manifest_name = CurrentManifestName(dir);
  WriteManifest(dir, "object three 20 0 0 00000000\n");
  const Status status =
      MovingObjectStore::LoadFromDirectory(dir, Options()).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("malformed manifest line"),
            std::string::npos);
  // The sole generation failed: its manifest is quarantined for autopsy.
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/" + manifest_name));
}

TEST(ObjectStoreTest, LoadRejectsTamperedManifestChecksum) {
  const std::string dir = SavedStoreDir("store_manifest_bitrot");
  const std::string path = dir + "/" + CurrentManifestName(dir);
  std::string content = ReadSmallFile(path);
  content[content.find("object") + 7] ^= 0x01;  // Flip a digit of the id.
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
  const Status status =
      MovingObjectStore::LoadFromDirectory(dir, Options()).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("manifest checksum mismatch"),
            std::string::npos);
}

TEST(ObjectStoreTest, LoadRejectsHistoryLengthMismatch) {
  const std::string dir = SavedStoreDir("store_len_mismatch");
  WriteManifest(dir, "object 3 999 0 0 " + CsvCrcHex(dir, 3) + "\n");
  const Status status =
      MovingObjectStore::LoadFromDirectory(dir, Options()).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("history length mismatch"),
            std::string::npos);
}

TEST(ObjectStoreTest, LoadRejectsCorruptConsumedCount) {
  const std::string dir = SavedStoreDir("store_bad_consumed");
  // Consumed count larger than the (true) history length.
  WriteManifest(dir, "object 3 20 21 0 " + CsvCrcHex(dir, 3) + "\n");
  const Status status =
      MovingObjectStore::LoadFromDirectory(dir, Options()).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("corrupt consumed count"),
            std::string::npos);
}

TEST(ObjectStoreTest, LoadRejectsConsumedWithoutModel) {
  const std::string dir = SavedStoreDir("store_consumed_no_model");
  const std::string manifest_name = CurrentManifestName(dir);
  // A period multiple inside the history, but an untrained object has
  // consumed nothing.
  WriteManifest(dir, "object 3 20 20 0 " + CsvCrcHex(dir, 3) + "\n");
  const Status status =
      MovingObjectStore::LoadFromDirectory(dir, Options()).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("corrupt consumed count"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/" + manifest_name));
}

TEST(ObjectStoreTest, ConsumedOffAPeriodBoundaryFallsBackAGeneration) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/store_consumed_off_boundary";
  std::filesystem::remove_all(dir);
  Random rng(16);
  MovingObjectStore store(Options());
  for (int day = 0; day < 6; ++day) {
    ASSERT_TRUE(store.ReportTrajectory(3, OnePeriod(3, &rng)).ok());
  }
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  ASSERT_TRUE(store.ReportTrajectory(3, OnePeriod(3, &rng)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const std::string manifest_name = CurrentManifestName(dir);
  const std::string manifest = ReadSmallFile(dir + "/" + manifest_name);
  // The trained object consumed the 5-period bootstrap window (100
  // samples); 101 is no window end.
  const std::string line = "object 3 140 100 1 " + CsvCrcHex(dir, 3) + "\n";
  ASSERT_NE(manifest.find(line), std::string::npos) << manifest;
  WriteManifest(dir, "object 3 140 101 1 " + CsvCrcHex(dir, 3) + "\n");

  // The vandalised generation is quarantined and the previous one loads.
  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/" + manifest_name));
  EXPECT_EQ(restored->HistoryLength(3), 6u * static_cast<size_t>(kPeriod));
  EXPECT_EQ(restored->metrics_snapshot().counter("store.quarantined_files"),
            1u);
  EXPECT_TRUE(restored->GetPredictor(3).ok());
}

TEST(ObjectStoreTest, LoadRejectsManifestEntryWithoutCsv) {
  const std::string dir = SavedStoreDir("store_missing_csv");
  // References an object whose history file does not exist.
  WriteManifest(dir, "object 4 20 0 0 00000000\n");
  EXPECT_FALSE(
      MovingObjectStore::LoadFromDirectory(dir, Options()).ok());
}

TEST(ObjectStoreTest, LoadRejectsManifestClaimingMissingModel) {
  const std::string dir = SavedStoreDir("store_missing_model");
  // Claims a trained model, but no 3-<gen>.model file was saved.
  WriteManifest(dir, "object 3 20 20 1 " + CsvCrcHex(dir, 3) + "\n");
  EXPECT_FALSE(
      MovingObjectStore::LoadFromDirectory(dir, Options()).ok());
}

TEST(ObjectStoreTest, ResavingAdvancesGenerationAndKeepsPrevious) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/store_generations";
  std::filesystem::remove_all(dir);
  Random rng(15);
  MovingObjectStore store(Options());
  ASSERT_TRUE(store.ReportTrajectory(1, OnePeriod(1, &rng)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  EXPECT_EQ(CurrentManifestName(dir), "MANIFEST-1");
  ASSERT_TRUE(store.ReportTrajectory(1, OnePeriod(1, &rng)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  EXPECT_EQ(CurrentManifestName(dir), "MANIFEST-2");
  // The previous generation stays on disk as the recovery target...
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST-1"));
  // ...and a third save retires it.
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  EXPECT_EQ(CurrentManifestName(dir), "MANIFEST-3");
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST-1"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/1-1.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST-2"));

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->HistoryLength(1), store.HistoryLength(1));
}

TEST(ObjectStoreTest, ColdObjectsPersistWithoutModels) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/store_cold";
  Random rng(13);
  MovingObjectStore original(Options());
  ASSERT_TRUE(original.ReportTrajectory(5, OnePeriod(5, &rng)).ok());
  ASSERT_TRUE(original.SaveToDirectory(dir).ok());
  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->GetPredictor(5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(restored->HistoryLength(5), static_cast<size_t>(kPeriod));
}

TEST(ObjectStoreDeathTest, BadOptionsAbort) {
  ObjectStoreOptions bad = Options();
  bad.min_training_periods = 0;
  EXPECT_DEATH(MovingObjectStore{bad}, "HPM_CHECK");
  bad = Options();
  bad.recent_window = 1;
  EXPECT_DEATH(MovingObjectStore{bad}, "HPM_CHECK");
  bad = Options();
  bad.rebuild.miner.window_periods = 0;
  EXPECT_DEATH(MovingObjectStore{bad}, "HPM_CHECK");
  bad = Options();
  bad.rebuild.miner.window_periods = IncrementalMiner::kMaxWindowPeriods + 1;
  EXPECT_DEATH(MovingObjectStore{bad}, "HPM_CHECK");
}

}  // namespace
}  // namespace hpm
