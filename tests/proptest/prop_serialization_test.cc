// Property suite: serialization round-trips on randomized instances. A
// trained model written by SaveToFile and read back by LoadFromFile must
// be observably identical (regions, patterns, summary, and — since the
// bytes are written raw — bit-identical predictions), and saving the
// loaded model again must reproduce the file byte for byte; a store
// saved to a directory must restore to the same fleet.

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "mining/offline_miner.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 12;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

HybridPredictorOptions PredictorOptions() {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 12.0;
  options.regions.dbscan.min_pts = 3;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 2;
  options.distant_threshold = 6;
  options.region_match_slack = 6.0;
  return options;
}

/// Unique scratch path per invocation (checks may not reuse paths:
/// shrinking re-runs the check many times in one process).
std::string ScratchPath(const std::string& stem) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "hpm_" + stem + "_" +
         std::to_string(counter.fetch_add(1));
}

struct ModelCase {
  Trajectory history;
  Timestamp query_delta = 1;
};

ModelCase GenModelCase(Random& rng) {
  ModelCase c;
  const int periods = static_cast<int>(5 + rng.Uniform(4));
  c.history = proptest::PeriodicHistory(rng, kPeriod, periods, kExtent,
                                        rng.UniformDouble(1.0, 3.0));
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(2 * kPeriod));
  return c;
}

/// Empty when `table` equals the patterns MineOffline produces for
/// `history` (the pass Train runs), in order and field for field.
std::string CompareWithMiner(const Trajectory& history,
                             const std::vector<TrajectoryPattern>& table) {
  const HybridPredictorOptions options = PredictorOptions();
  StatusOr<OfflineMineResult> offline =
      MineOffline(history, options.regions, options.mining);
  if (!offline.ok()) {
    return "MineOffline failed: " + offline.status().ToString();
  }
  const std::vector<TrajectoryPattern>& mined = offline->mined.patterns;
  if (mined.size() != table.size()) {
    return "derived pattern table has " + std::to_string(table.size()) +
           " rules, the miner " + std::to_string(mined.size());
  }
  for (size_t i = 0; i < mined.size(); ++i) {
    if (mined[i].premise != table[i].premise ||
        mined[i].consequence != table[i].consequence ||
        mined[i].confidence != table[i].confidence ||
        mined[i].support != table[i].support) {
      return "derived pattern " + std::to_string(i) + " (" +
             table[i].ToString() + ") differs from the mined rule " +
             mined[i].ToString();
    }
  }
  return "";
}

std::string CheckModelRoundTrip(const ModelCase& input) {
  StatusOr<std::unique_ptr<HybridPredictor>> trained =
      HybridPredictor::Train(input.history, PredictorOptions());
  if (!trained.ok()) return "Train failed: " + trained.status().ToString();
  const HybridPredictor& original = **trained;

  const std::string path = ScratchPath("model");
  const Status saved = original.SaveToFile(path);
  if (!saved.ok()) return "SaveToFile failed: " + saved.ToString();
  const StatusOr<std::string> saved_bytes = ReadFileToString(path);
  StatusOr<std::unique_ptr<HybridPredictor>> loaded =
      HybridPredictor::LoadFromFile(path);
  std::filesystem::remove(path);
  if (!saved_bytes.ok()) return "reading the saved model failed";
  if (!loaded.ok()) {
    return "LoadFromFile failed: " + loaded.status().ToString();
  }
  const HybridPredictor& restored = **loaded;

  // Save -> Load -> Save is byte-identical: the pattern table derived
  // from the reloaded arena, the supports filled from the file, and the
  // arena itself all reproduce what was written.
  const std::string resave_path = ScratchPath("model_resaved");
  const Status resaved = restored.SaveToFile(resave_path);
  const StatusOr<std::string> resaved_bytes =
      ReadFileToString(resave_path);
  std::filesystem::remove(resave_path);
  if (!resaved.ok()) return "re-save failed: " + resaved.ToString();
  if (!resaved_bytes.ok()) return "reading the re-saved model failed";
  if (*resaved_bytes != *saved_bytes) {
    return "re-saving the loaded model changed the file bytes";
  }

  if (restored.regions().NumRegions() != original.regions().NumRegions()) {
    return "region count changed across the round trip";
  }
  for (size_t i = 0; i < original.regions().NumRegions(); ++i) {
    const FrequentRegion& a = original.regions().Region(static_cast<int>(i));
    const FrequentRegion& b = restored.regions().Region(static_cast<int>(i));
    if (a.offset != b.offset || a.index_at_offset != b.index_at_offset ||
        a.support != b.support || !(a.center == b.center) ||
        a.mbr.ToString() != b.mbr.ToString()) {
      return "region " + std::to_string(i) + " changed across the round trip";
    }
  }
  const std::vector<TrajectoryPattern> original_table =
      original.PatternTable();
  // The table the model derives from its arena is the one the miner
  // produced: same rules, same order, same confidences and supports.
  const std::string mined_check =
      CompareWithMiner(input.history, original_table);
  if (!mined_check.empty()) return mined_check;
  const std::vector<TrajectoryPattern> restored_table =
      restored.PatternTable();
  if (restored_table.size() != original_table.size()) {
    return "pattern count changed across the round trip";
  }
  for (size_t i = 0; i < original_table.size(); ++i) {
    const TrajectoryPattern& a = original_table[i];
    const TrajectoryPattern& b = restored_table[i];
    if (a.premise != b.premise || a.consequence != b.consequence ||
        a.confidence != b.confidence || a.support != b.support) {
      return "pattern " + std::to_string(i) + " changed across the round trip";
    }
  }
  if (restored.summary().num_sub_trajectories !=
      original.summary().num_sub_trajectories) {
    return "sub-trajectory count changed across the round trip";
  }

  // The rebuilt index must answer queries exactly like the original.
  PredictiveQuery query;
  const Timestamp now = static_cast<Timestamp>(input.history.size()) - 1;
  query.recent_movements = input.history.RecentMovements(now, 6);
  query.current_time = now;
  query.query_time = now + input.query_delta;
  query.k = 3;
  const StatusOr<std::vector<Prediction>> before = original.Predict(query);
  const StatusOr<std::vector<Prediction>> after = restored.Predict(query);
  if (before.ok() != after.ok() ||
      before.status().code() != after.status().code()) {
    return "prediction status changed across the round trip";
  }
  if (before.ok()) {
    if (before->size() != after->size()) {
      return "prediction count changed across the round trip";
    }
    for (size_t i = 0; i < before->size(); ++i) {
      if (!((*before)[i].location == (*after)[i].location) ||
          (*before)[i].score != (*after)[i].score ||
          (*before)[i].source != (*after)[i].source) {
        return "prediction " + std::to_string(i) +
               " changed across the round trip";
      }
    }
  }
  return "";
}

TEST(PropSerializationTest, ModelRoundTripPreservesEverything) {
  Property<ModelCase> property("model-save-load-round-trip", GenModelCase,
                               CheckModelRoundTrip);
  property.WithShrinker([](const ModelCase& input) {
    std::vector<ModelCase> out;
    for (Trajectory& shorter : proptest::ShrinkTrajectory(input.history)) {
      out.push_back({std::move(shorter), input.query_delta});
    }
    return out;
  });
  RunnerOptions options;
  options.num_cases = 15;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

struct StoreCase {
  std::vector<Trajectory> histories;
  Timestamp query_delta = 1;
};

StoreCase GenStoreCase(Random& rng) {
  StoreCase c;
  const int objects = static_cast<int>(1 + rng.Uniform(3));
  for (int i = 0; i < objects; ++i) {
    // Lengths straddle the training threshold so manifests carry both
    // modelled and model-less objects.
    const int periods = static_cast<int>(2 + rng.Uniform(6));
    c.histories.push_back(proptest::PeriodicHistory(
        rng, kPeriod, periods, kExtent, rng.UniformDouble(1.0, 3.0)));
  }
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(kPeriod));
  return c;
}

std::string CheckStoreRoundTrip(const StoreCase& input) {
  ObjectStoreOptions options;
  options.predictor = PredictorOptions();
  options.min_training_periods = 4;
  options.recent_window = 6;
  options.num_shards = 4;
  options.query_threads = 1;

  MovingObjectStore store(options);
  for (size_t i = 0; i < input.histories.size(); ++i) {
    const Status status = store.ReportTrajectory(
        static_cast<ObjectId>(i) * 17, input.histories[i]);
    if (!status.ok()) {
      return "ReportTrajectory failed: " + status.ToString();
    }
  }

  const std::string dir = ScratchPath("store");
  const Status saved = store.SaveToDirectory(dir);
  if (!saved.ok()) return "SaveToDirectory failed: " + saved.ToString();
  StatusOr<MovingObjectStore> loaded =
      MovingObjectStore::LoadFromDirectory(dir, options);
  std::filesystem::remove_all(dir);
  if (!loaded.ok()) {
    return "LoadFromDirectory failed: " + loaded.status().ToString();
  }

  if (loaded->ObjectIds() != store.ObjectIds()) {
    return "object ids changed across the round trip";
  }
  for (const ObjectId id : store.ObjectIds()) {
    if (loaded->HistoryLength(id) != store.HistoryLength(id)) {
      return "history length changed for object " + std::to_string(id);
    }
    const bool had_model = store.GetPredictor(id).ok();
    if (loaded->GetPredictor(id).ok() != had_model) {
      return "trained-model presence changed for object " +
             std::to_string(id);
    }
    const Timestamp tq = static_cast<Timestamp>(store.HistoryLength(id)) -
                         1 + input.query_delta;
    const auto before = store.PredictLocation(id, tq, 2);
    const auto after = loaded->PredictLocation(id, tq, 2);
    if (before.ok() != after.ok() ||
        before.status().code() != after.status().code()) {
      return "prediction status changed for object " + std::to_string(id);
    }
    if (before.ok()) {
      if (before->size() != after->size()) {
        return "prediction count changed for object " + std::to_string(id);
      }
      for (size_t i = 0; i < before->size(); ++i) {
        if (!((*before)[i].location == (*after)[i].location)) {
          return "prediction changed for object " + std::to_string(id);
        }
      }
    }
  }
  return "";
}

TEST(PropSerializationTest, StoreDirectoryRoundTripPreservesFleet) {
  Property<StoreCase> property("store-save-load-round-trip", GenStoreCase,
                               CheckStoreRoundTrip);
  RunnerOptions options;
  options.num_cases = 10;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
