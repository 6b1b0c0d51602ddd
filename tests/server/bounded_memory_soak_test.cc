// Bounded memory on an unbounded report stream: one object follows a
// route that re-draws half its waypoints every 4 periods, for 2,000
// periods, under the default model-maintenance options. Every model the
// store publishes is trained on at most one miner window (or the
// bootstrap history), so its pattern count, its frozen arena and the
// miner beside it must stay under bounds derived from window_periods —
// however long the stream runs.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/report_stream.h"
#include "server/object_store.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;
constexpr int kPeriods = 2000;

/// The stream's geometry needs these; model maintenance stays at the
/// library defaults.
ObjectStoreOptions SoakOptions() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.num_shards = 1;
  options.query_threads = 1;
  return options;
}

/// The most constraint-valid item sets one transaction can hold: a
/// transaction has at most one region per offset, so this counts offset
/// sets of 2..max_pattern_length at strictly increasing offsets whose
/// premise (all but the last) spans at most premise_window.
uint64_t MaxItemsetsPerTransaction(Timestamp period,
                                   const AprioriParams& mining) {
  uint64_t count = 0;
  std::vector<Timestamp> chosen;
  const auto recurse = [&](const auto& self, Timestamp next) -> void {
    if (chosen.size() >= 2) ++count;
    if (chosen.size() >= static_cast<size_t>(mining.max_pattern_length)) {
      return;
    }
    if (chosen.size() >= 2 && mining.premise_window > 0 &&
        chosen.back() - chosen.front() > mining.premise_window) {
      return;
    }
    for (Timestamp t = next; t < period; ++t) {
      chosen.push_back(t);
      self(self, t + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
  return count;
}

TEST(BoundedMemorySoakTest, DriftingStreamKeepsModelAndMinerBounded) {
  const ObjectStoreOptions options = SoakOptions();
  MovingObjectStore store(options);
  ReportStreamConfig config;
  config.num_objects = 1;
  config.period = kPeriod;
  config.drift_every_periods = 4;
  config.seed = 7;
  ReportStream stream(config);

  // A model is trained on at most `periods` transactions. Each pattern
  // is a distinct item set present in at least min_support of them, and
  // DBSCAN gives an offset at most periods / min_pts regions.
  const uint64_t periods = static_cast<uint64_t>(
      std::max(options.rebuild.miner.window_periods,
               options.min_training_periods));
  const uint64_t max_patterns =
      periods *
      MaxItemsetsPerTransaction(kPeriod, options.predictor.mining) /
      static_cast<uint64_t>(options.predictor.mining.min_support);
  const uint64_t max_regions =
      static_cast<uint64_t>(kPeriod) *
      (periods /
       static_cast<uint64_t>(options.predictor.regions.dbscan.min_pts));
  // A leaf entry with a three-word key block costs 24 + 4 + 24 bytes;
  // internal entries and node records at most as much again.
  constexpr uint64_t kFrozenBytesPerPattern = 104;
  const uint64_t max_frozen_bytes =
      max_patterns * kFrozenBytesPerPattern + 4096;
  const uint64_t max_miner_bytes =
      sizeof(IncrementalMiner) + max_regions * sizeof(uint64_t);

  uint64_t peak_patterns = 0;
  uint64_t peak_frozen = 0;
  uint64_t peak_miner = 0;
  const HybridPredictor* first_model = nullptr;
  for (int p = 0; p < kPeriods; ++p) {
    for (const StreamedReport& r : stream.Take(static_cast<size_t>(kPeriod))) {
      // An inline rebuild may fail on a window that no longer clusters;
      // the report has landed regardless and the last model serves.
      (void)store.ReportLocation(r.object_id, r.location);
    }
    const StatusOr<MovingObjectStore::MinerSnapshot> miner =
        store.MinerState(1);
    ASSERT_TRUE(miner.ok()) << miner.status().ToString();
    peak_miner = std::max<uint64_t>(peak_miner, miner->memory_bytes);
    ASSERT_LE(miner->memory_bytes, max_miner_bytes) << "period " << p;

    const auto model = store.GetPredictor(1);
    if (!model.ok()) continue;  // not bootstrapped yet
    if (first_model == nullptr) first_model = model->get();
    const TrainingSummary& summary = (*model)->summary();
    peak_patterns = std::max<uint64_t>(peak_patterns, summary.num_patterns);
    peak_frozen = std::max<uint64_t>(peak_frozen, summary.tpt_frozen_bytes);
    ASSERT_LE(summary.num_patterns, max_patterns) << "period " << p;
    ASSERT_LE(summary.tpt_frozen_bytes, max_frozen_bytes) << "period " << p;
    ASSERT_LE((*model)->regions().NumRegions(), max_regions) << "period " << p;
  }
  // The drifting routes did move the model along.
  const auto last = store.GetPredictor(1);
  ASSERT_TRUE(last.ok());
  EXPECT_NE(last->get(), first_model);
  EXPECT_GT(store.metrics_snapshot().counter("rebuild.completed"), 0u);
  RecordProperty("peak_patterns", std::to_string(peak_patterns));
  RecordProperty("peak_frozen_bytes", std::to_string(peak_frozen));
  RecordProperty("peak_miner_bytes", std::to_string(peak_miner));
}

}  // namespace
}  // namespace hpm
