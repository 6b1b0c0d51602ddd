// Property suite: metamorphic laws of pattern ranking. Predict's answer
// is a function of the mined model and the query alone, so it must not
// change with how the TPT is laid out: a model indexed with small nodes
// (more levels, another traversal order) and a model saved and loaded
// again answer every query exactly like the original — the same
// patterns, in the same order, with the same scores, for every k. Ties
// in score are common (equal confidences, equal premise overlap), so
// this holds only because ranking breaks them by a total order rather
// than by the order the search produced the hits in.

#include <algorithm>
#include <atomic>
#include <climits>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid_predictor.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 12;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

HybridPredictorOptions PredictorOptions(int max_entries) {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 12.0;
  options.regions.dbscan.min_pts = 3;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 2;
  options.distant_threshold = 6;
  options.region_match_slack = 6.0;
  options.tpt.max_node_entries = max_entries;
  return options;
}

std::string ScratchPath() {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "hpm_rank_order_" +
         std::to_string(counter.fetch_add(1));
}

struct RankCase {
  Trajectory history;
};

RankCase GenRankCase(Random& rng) {
  RankCase c;
  const int periods = static_cast<int>(5 + rng.Uniform(4));
  c.history = proptest::PeriodicHistory(rng, kPeriod, periods, kExtent,
                                        rng.UniformDouble(1.0, 3.0));
  return c;
}

/// Empty when the two answers are identical field by field.
std::string CompareAnswers(const StatusOr<std::vector<Prediction>>& a,
                           const StatusOr<std::vector<Prediction>>& b) {
  if (a.ok() != b.ok() || a.status().code() != b.status().code()) {
    return "status differs";
  }
  if (!a.ok()) return "";
  if (a->size() != b->size()) {
    return "size " + std::to_string(a->size()) + " vs " +
           std::to_string(b->size());
  }
  for (size_t i = 0; i < a->size(); ++i) {
    const Prediction& x = (*a)[i];
    const Prediction& y = (*b)[i];
    if (x.pattern_id != y.pattern_id) {
      return "rank " + std::to_string(i) + ": pattern " +
             std::to_string(x.pattern_id) + " vs " +
             std::to_string(y.pattern_id);
    }
    if (!(x.location == y.location) || x.score != y.score ||
        x.confidence != y.confidence ||
        x.consequence_region != y.consequence_region ||
        x.source != y.source || x.degraded != y.degraded ||
        x.uncertainty.ToString() != y.uncertainty.ToString()) {
      return "rank " + std::to_string(i) + ": fields differ";
    }
  }
  return "";
}

std::string CheckRankingIgnoresIndexLayout(const RankCase& input) {
  StatusOr<std::unique_ptr<HybridPredictor>> wide =
      HybridPredictor::Train(input.history, PredictorOptions(32));
  StatusOr<std::unique_ptr<HybridPredictor>> narrow =
      HybridPredictor::Train(input.history, PredictorOptions(8));
  // The law is about trained models; a shrunk history too short to train
  // is no counterexample.
  if (!wide.ok() || !narrow.ok()) return "";
  const std::string path = ScratchPath();
  const Status saved = (*wide)->SaveToFile(path);
  if (!saved.ok()) return "SaveToFile failed: " + saved.ToString();
  StatusOr<std::unique_ptr<HybridPredictor>> reloaded =
      HybridPredictor::LoadFromFile(path);
  std::filesystem::remove(path);
  if (!reloaded.ok()) {
    return "LoadFromFile failed: " + reloaded.status().ToString();
  }

  // Every current time of the last period, every horizon up to two
  // periods (forward and backward processing), several k.
  const Timestamp end = static_cast<Timestamp>(input.history.size()) - 1;
  for (Timestamp now = std::max<Timestamp>(0, end - kPeriod + 1); now <= end;
       ++now) {
    PredictiveQuery query;
    query.recent_movements = input.history.RecentMovements(now, 6);
    query.current_time = now;
    for (Timestamp h = 1; h <= 2 * kPeriod; ++h) {
      query.query_time = now + h;
      for (const int k : {1, 3, INT_MAX}) {
        query.k = k;
        const StatusOr<std::vector<Prediction>> base =
            (*wide)->Predict(query);
        const std::string where = " at now=" + std::to_string(now) +
                                  " h=" + std::to_string(h) +
                                  " k=" + std::to_string(k);
        std::string diff = CompareAnswers(base, (*narrow)->Predict(query));
        if (!diff.empty()) {
          return "node capacity 32 vs 8: " + diff + where;
        }
        diff = CompareAnswers(base, (*reloaded)->Predict(query));
        if (!diff.empty()) return "save/reload: " + diff + where;
      }
    }
  }
  return "";
}

TEST(PropRankOrderTest, AnswersIgnoreNodeCapacityAndSaveReload) {
  Property<RankCase> property("rank-order-ignores-index-layout", GenRankCase,
                              CheckRankingIgnoresIndexLayout);
  property.WithShrinker([](const RankCase& input) {
    std::vector<RankCase> out;
    for (Trajectory& shorter : proptest::ShrinkTrajectory(input.history)) {
      out.push_back({std::move(shorter)});
    }
    return out;
  });
  RunnerOptions options;
  options.num_cases = 15;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
