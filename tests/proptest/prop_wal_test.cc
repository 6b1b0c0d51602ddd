// Property suite: crash-replay equivalence for the write-ahead report
// journal. A store that dies at a random kill point — under any sync
// policy, with or without a mid-stream snapshot — must recover from disk
// into a store observably identical to one that executed the same prefix
// uninterrupted: same fleet, same histories, same rejected-report
// accounting, same trained-model predictions. A second property tears a
// random number of bytes off a random segment tail and demands recovery
// stay a clean per-object prefix that converges back to the reference
// once the lost suffix is re-reported.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "io/wal.h"
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

struct WalOp {
  ObjectId id = 0;
  Point location;
  bool malformed = false;  ///< Sent with a gapped timestamp: rejected.
};

struct WalCase {
  std::vector<WalOp> ops;
  /// Ops executed before the crash (the rest never happened).
  size_t kill_point = 0;
  /// SaveToDirectory after this many ops; SIZE_MAX = never.
  size_t save_point = SIZE_MAX;
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryRecord;
  int num_shards = 2;
};

ObjectStoreOptions StoreOptions(const WalCase& c, const std::string& dir) {
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
  options.num_shards = c.num_shards;
  if (!dir.empty()) {
    options.durability.wal_dir = dir + "/wal";
    options.durability.sync_policy = c.sync_policy;
    // Tiny segments so realistic cases exercise size rotation too.
    options.durability.max_segment_bytes = 512;
  }
  return options;
}

WalCase GenCase(Random& rng) {
  WalCase c;
  const int num_objects = static_cast<int>(1 + rng.Uniform(4));
  std::vector<std::vector<Point>> routes;
  for (int i = 0; i < num_objects; ++i) {
    std::vector<Point> route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
    }
    routes.push_back(std::move(route));
  }
  std::vector<int> next_step(static_cast<size_t>(num_objects), 0);
  const int num_ops = static_cast<int>(
      rng.Uniform(50ull * static_cast<uint64_t>(num_objects)));
  for (int i = 0; i < num_ops; ++i) {
    const size_t obj = rng.Uniform(static_cast<uint64_t>(num_objects));
    WalOp op;
    op.id = static_cast<ObjectId>(obj) * 13 + 7;  // spread across shards
    if (rng.Uniform(10) == 0) {
      op.malformed = true;
      op.location = routes[obj][0];
    } else {
      const int step = next_step[obj]++;
      Point p = routes[obj][static_cast<size_t>(step) % kPeriod];
      p.x += rng.Gaussian(0.0, 2.0);
      p.y += rng.Gaussian(0.0, 2.0);
      op.location = p;
    }
    c.ops.push_back(op);
  }
  c.kill_point = c.ops.empty() ? 0 : rng.Uniform(c.ops.size() + 1);
  if (!c.ops.empty() && rng.Uniform(2) == 0) {
    c.save_point = rng.Uniform(c.kill_point + 1);
  }
  switch (rng.Uniform(3)) {
    case 0:
      c.sync_policy = WalSyncPolicy::kEveryRecord;
      break;
    case 1:
      c.sync_policy = WalSyncPolicy::kInterval;
      break;
    default:
      c.sync_policy = WalSyncPolicy::kNone;
      break;
  }
  c.num_shards = static_cast<int>(1 + rng.Uniform(4));
  return c;
}

/// A unique on-disk scratch directory per executed case.
std::string CaseDir(const char* stem) {
  static std::atomic<uint64_t> counter{0};
  const std::string dir = std::string(::testing::TempDir()) + "/" + stem +
                          "_" +
                          std::to_string(counter.fetch_add(1)) + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Executes one op; the malformed flavour must be rejected.
std::string Apply(MovingObjectStore& store, const WalOp& op) {
  if (op.malformed) {
    const Timestamp gap =
        static_cast<Timestamp>(store.HistoryLength(op.id)) + 3;
    if (store.ReportLocationAt(op.id, gap, op.location).ok()) {
      return "gapped report unexpectedly accepted";
    }
    return "";
  }
  const Status status = store.ReportLocation(op.id, op.location);
  if (!status.ok()) return "ReportLocation failed: " + status.ToString();
  return "";
}

std::string CompareServing(const MovingObjectStore& reference,
                           const MovingObjectStore& recovered) {
  if (reference.ObjectIds() != recovered.ObjectIds()) {
    return "fleet membership differs after recovery";
  }
  for (const ObjectId id : reference.ObjectIds()) {
    if (reference.HistoryLength(id) != recovered.HistoryLength(id)) {
      return "history length differs for object " + std::to_string(id) +
             ": " + std::to_string(reference.HistoryLength(id)) + " vs " +
             std::to_string(recovered.HistoryLength(id));
    }
    if (reference.RejectedReports(id) != recovered.RejectedReports(id)) {
      return "rejected-report count differs for object " +
             std::to_string(id);
    }
    if (reference.GetPredictor(id).ok() != recovered.GetPredictor(id).ok()) {
      return "trained-model presence differs for object " +
             std::to_string(id);
    }
    const Timestamp tq =
        static_cast<Timestamp>(reference.HistoryLength(id)) - 1 + 5;
    const auto expected = reference.PredictLocation(id, tq, 2);
    const auto actual = recovered.PredictLocation(id, tq, 2);
    if (expected.ok() != actual.ok()) {
      return "prediction status differs for object " + std::to_string(id);
    }
    if (expected.ok()) {
      if (expected->size() != actual->size()) {
        return "prediction count differs for object " + std::to_string(id);
      }
      for (size_t i = 0; i < expected->size(); ++i) {
        if (!((*expected)[i].location == (*actual)[i].location) ||
            (*expected)[i].score != (*actual)[i].score) {
          return "prediction differs for object " + std::to_string(id);
        }
      }
    }
  }
  return "";
}

std::string CheckCrashReplayMatchesUninterrupted(const WalCase& input) {
  const std::string dir = CaseDir("prop_wal_replay");
  // The reference store executes the kill-point prefix uninterrupted and
  // never touches disk.
  MovingObjectStore reference(StoreOptions(input, ""));
  {
    MovingObjectStore durable(StoreOptions(input, dir));
    if (!durable.wal_durable()) return "journal failed to open";
    for (size_t i = 0; i < input.kill_point; ++i) {
      std::string failure = Apply(durable, input.ops[i]);
      if (!failure.empty()) return "durable: " + failure;
      failure = Apply(reference, input.ops[i]);
      if (!failure.empty()) return "reference: " + failure;
      if (i == input.save_point) {
        const Status saved = durable.SaveToDirectory(dir);
        if (!saved.ok()) return "save: " + saved.ToString();
        if (!durable.wal_durable()) return "save degraded the journal";
      }
    }
    // Crash: the store object is dropped with no further persistence.
  }
  auto recovered =
      MovingObjectStore::LoadFromDirectory(dir, StoreOptions(input, dir));
  if (!recovered.ok()) {
    return "recovery failed: " + recovered.status().ToString();
  }
  if (!recovered->wal_durable()) return "recovered store is not durable";
  std::string failure = CompareServing(reference, *recovered);
  if (!failure.empty()) return failure;
  // Ids whose every report was rejected never join ObjectIds(), but
  // their rejection tally is journaled and must survive the crash too.
  for (const WalOp& op : input.ops) {
    if (reference.RejectedReports(op.id) !=
        recovered->RejectedReports(op.id)) {
      return "rejected-report count differs for object " +
             std::to_string(op.id);
    }
  }
  std::filesystem::remove_all(dir);  // only on success: keep evidence
  return "";
}

std::string CheckTornTailRecoversPrefixAndConverges(const WalCase& input) {
  if (input.kill_point == 0) return "";
  const std::string dir = CaseDir("prop_wal_torn");
  MovingObjectStore reference(StoreOptions(input, ""));
  {
    MovingObjectStore durable(StoreOptions(input, dir));
    if (!durable.wal_durable()) return "journal failed to open";
    for (size_t i = 0; i < input.kill_point; ++i) {
      std::string failure = Apply(durable, input.ops[i]);
      if (!failure.empty()) return "durable: " + failure;
      failure = Apply(reference, input.ops[i]);
      if (!failure.empty()) return "reference: " + failure;
    }
  }
  // Tear bytes off the tail of the last segment — the shape any crash
  // that outruns the page cache leaves behind.
  const std::vector<WalSegmentInfo> segments =
      ListWalSegments(dir + "/wal");
  if (segments.empty()) return "no segments written";
  const std::string& victim = segments.back().path;
  const uintmax_t size = std::filesystem::file_size(victim);
  const uintmax_t cut =
      1 + input.kill_point % (size > 1 ? size - 1 : 1);
  std::filesystem::resize_file(victim, size - cut);

  auto recovered =
      MovingObjectStore::LoadFromDirectory(dir, StoreOptions(input, dir));
  if (!recovered.ok()) {
    return "recovery failed: " + recovered.status().ToString();
  }
  // Every recovered history must be a prefix of the reference's.
  for (const ObjectId id : recovered->ObjectIds()) {
    if (recovered->HistoryLength(id) > reference.HistoryLength(id)) {
      return "recovered history longer than ever reported for object " +
             std::to_string(id);
    }
  }
  // Re-report what the torn tail lost: the fleet converges back to the
  // reference (same histories from the same values → same serving).
  for (const ObjectId id : reference.ObjectIds()) {
    const size_t have = recovered->HistoryLength(id);
    const size_t want = reference.HistoryLength(id);
    if (have >= want) continue;
    // Replay this object's reports in order, skipping the recovered
    // prefix.
    size_t seen = 0;
    for (size_t i = 0; i < input.kill_point; ++i) {
      const WalOp& op = input.ops[i];
      if (op.id != id || op.malformed) continue;
      if (seen++ < have) continue;
      const Status status = recovered->ReportLocation(id, op.location);
      if (!status.ok()) {
        return "refill failed for object " + std::to_string(id) + ": " +
               status.ToString();
      }
    }
    if (recovered->HistoryLength(id) != want) {
      return "refill did not converge for object " + std::to_string(id);
    }
  }
  // Rejections recorded before the torn tail may be lost with it; only
  // histories and models must converge, so compare those.
  for (const ObjectId id : reference.ObjectIds()) {
    if (reference.HistoryLength(id) != recovered->HistoryLength(id)) {
      return "history differs after refill for object " +
             std::to_string(id);
    }
    if (reference.GetPredictor(id).ok() !=
        recovered->GetPredictor(id).ok()) {
      return "model presence differs after refill for object " +
             std::to_string(id);
    }
  }
  std::filesystem::remove_all(dir);
  return "";
}

std::vector<WalCase> ShrinkCase(const WalCase& input) {
  std::vector<WalCase> out;
  for (std::vector<WalOp>& fewer : proptest::ShrinkVector(input.ops)) {
    WalCase smaller = input;
    smaller.kill_point = std::min(smaller.kill_point, fewer.size());
    if (smaller.save_point != SIZE_MAX) {
      smaller.save_point = std::min(smaller.save_point, smaller.kill_point);
    }
    smaller.ops = std::move(fewer);
    out.push_back(std::move(smaller));
  }
  return out;
}

TEST(PropWalTest, CrashReplayMatchesUninterruptedStore) {
  Property<WalCase> property("wal-crash-replay-vs-uninterrupted", GenCase,
                             CheckCrashReplayMatchesUninterrupted);
  property.WithShrinker(ShrinkCase);
  RunnerOptions options;
  options.num_cases = 10;
  options.max_shrink_checks = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropWalTest, TornTailRecoversCleanPrefixAndConverges) {
  Property<WalCase> property("wal-torn-tail-prefix", GenCase,
                             CheckTornTailRecoversPrefixAndConverges);
  property.WithShrinker(ShrinkCase);
  RunnerOptions options;
  options.num_cases = 8;
  options.max_shrink_checks = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
