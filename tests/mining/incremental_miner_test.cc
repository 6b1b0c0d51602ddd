// Unit coverage for the incremental pattern maintainer: window
// bookkeeping, exact count maintenance against the offline Apriori
// oracle, promote/demote crossings and drift, the miner's memory
// footprint, Prime()'s replay equivalence and the metric hooks. The
// full randomized differential guarantee lives in
// tests/proptest/prop_incremental_mining_test.cc.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "mining/incremental_miner.h"
#include "mining/offline_miner.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 8;

FrequentRegionParams RegionParams() {
  FrequentRegionParams params;
  params.period = kPeriod;
  params.dbscan.eps = 10.0;
  params.dbscan.min_pts = 3;
  return params;
}

AprioriParams MiningParams() {
  AprioriParams params;
  params.min_support = 3;
  params.min_confidence = 0.3;
  params.max_pattern_length = 3;
  return params;
}

IncrementalMinerOptions MinerOptions() {
  IncrementalMinerOptions options;
  options.window_periods = 6;
  return options;
}

/// One noisy lap over the fixed route (offset t at x ~ 100 t).
std::vector<Point> RouteLap(Random* rng) {
  std::vector<Point> lap;
  for (Timestamp t = 0; t < kPeriod; ++t) {
    lap.push_back({100.0 * static_cast<double>(t) + rng->Gaussian(0, 1.0),
                   50.0 + rng->Gaussian(0, 1.0)});
  }
  return lap;
}

/// A lap far away from every discovered region.
std::vector<Point> FarLap() {
  return std::vector<Point>(static_cast<size_t>(kPeriod), Point{1e6, 1e6});
}

Trajectory Laps(int periods, uint64_t seed) {
  Random rng(seed);
  Trajectory history;
  for (int p = 0; p < periods; ++p) {
    for (const Point& point : RouteLap(&rng)) history.Append(point);
  }
  return history;
}

std::shared_ptr<const FrequentRegionSet> DiscoverRegions(
    const Trajectory& history) {
  StatusOr<FrequentRegionMiningResult> discovery =
      MineFrequentRegions(history, RegionParams());
  EXPECT_TRUE(discovery.ok());
  return std::make_shared<const FrequentRegionSet>(discovery->region_set);
}

/// Appends `points` to `history` one report at a time, advancing the
/// miner after each, as the store does.
void Feed(IncrementalMiner* miner, Trajectory* history,
          const std::vector<Point>& points) {
  for (const Point& point : points) {
    history->Append(point);
    miner->Observe(*history);
  }
}

/// The miner's window: its range of the history it was fed.
Trajectory WindowOf(const IncrementalMiner& miner, const Trajectory& history) {
  StatusOr<Trajectory> window =
      history.Slice(static_cast<Timestamp>(miner.window_begin()),
                    static_cast<Timestamp>(miner.window_end()));
  EXPECT_TRUE(window.ok());
  return *window;
}

/// The offline oracle over the miner's retained window under the
/// miner's adopted region universe: re-map each window period
/// geometrically, then run the exact offline Apriori.
AprioriResult OfflineOverWindow(const IncrementalMiner& miner,
                                const Trajectory& history) {
  const FrequentRegionSet& regions = *miner.regions();
  const Trajectory window = WindowOf(miner, history);
  std::vector<Transaction> transactions;
  for (size_t start = 0; start + static_cast<size_t>(kPeriod) <=
                         window.size();
       start += static_cast<size_t>(kPeriod)) {
    std::vector<Point> points(
        window.points().begin() + static_cast<long>(start),
        window.points().begin() +
            static_cast<long>(start + static_cast<size_t>(kPeriod)));
    transactions.emplace_back(
        MapPeriodPointsToVisits(regions, points, /*slack=*/0.0),
        regions.NumRegions());
  }
  StatusOr<AprioriResult> mined =
      MineTrajectoryPatterns(transactions, regions, MiningParams());
  EXPECT_TRUE(mined.ok());
  return *mined;
}

std::string DescribePatterns(const std::vector<TrajectoryPattern>& ps) {
  std::string out;
  for (const TrajectoryPattern& p : ps) {
    out += "{";
    for (int id : p.premise) out += std::to_string(id) + ",";
    out += "=>" + std::to_string(p.consequence) +
           " s=" + std::to_string(p.support) + "} ";
  }
  return out;
}

/// The maintained set must equal the offline rule set over the same
/// window: same rules, same supports, bit-identical confidences.
void ExpectMatchesOffline(const IncrementalMiner& miner,
                          const Trajectory& history) {
  AprioriResult offline = OfflineOverWindow(miner, history);
  std::sort(offline.patterns.begin(), offline.patterns.end(),
            [](const TrajectoryPattern& a, const TrajectoryPattern& b) {
              if (a.premise.size() != b.premise.size()) {
                return a.premise.size() < b.premise.size();
              }
              if (a.premise != b.premise) return a.premise < b.premise;
              return a.consequence < b.consequence;
            });
  const std::vector<TrajectoryPattern> maintained = miner.CurrentPatterns();
  ASSERT_EQ(maintained.size(), offline.patterns.size())
      << "maintained: " << DescribePatterns(maintained)
      << " offline: " << DescribePatterns(offline.patterns);
  for (size_t i = 0; i < maintained.size(); ++i) {
    EXPECT_EQ(maintained[i].premise, offline.patterns[i].premise);
    EXPECT_EQ(maintained[i].consequence, offline.patterns[i].consequence);
    EXPECT_EQ(maintained[i].support, offline.patterns[i].support);
    EXPECT_EQ(maintained[i].confidence, offline.patterns[i].confidence);
  }
}

TEST(IncrementalMinerTest, WindowBookkeepingBeforeRegions) {
  IncrementalMiner miner(MinerOptions(), kPeriod, MiningParams());
  EXPECT_FALSE(miner.has_regions());
  Trajectory history = Laps(3, 1);
  miner.Observe(history);
  history.Append({0.0, 0.0});
  miner.Observe(history);
  EXPECT_EQ(miner.total_observed(), 3u * kPeriod + 1);
  EXPECT_EQ(miner.window_begin(), 0u);
  EXPECT_EQ(miner.window_end(), 3u * kPeriod);
  EXPECT_EQ(miner.WindowSize(), 3u);
  // No regions yet: the window advances, but nothing is mined.
  EXPECT_EQ(miner.stats().transactions, 0u);
  EXPECT_EQ(miner.CurrentPatterns().size(), 0u);
  EXPECT_EQ(miner.drift(), 0.0);
}

TEST(IncrementalMinerTest, WindowEvictsOldestPeriod) {
  IncrementalMinerOptions options;
  options.window_periods = 2;
  IncrementalMiner miner(options, kPeriod, MiningParams());
  miner.Observe(Laps(5, 2));
  EXPECT_EQ(miner.WindowSize(), 2u);
  EXPECT_EQ(miner.window_begin(), 3u * kPeriod);
  // window_end keeps counting absolute samples even as entries expire.
  EXPECT_EQ(miner.window_end(), 5u * kPeriod);
}

TEST(IncrementalMinerTest, AdoptRegionsRecountsWindowExactly) {
  const Trajectory history = Laps(6, 3);
  IncrementalMiner miner(MinerOptions(), kPeriod, MiningParams());
  miner.Observe(history);
  miner.AdoptRegions(DiscoverRegions(history), history);
  ASSERT_TRUE(miner.has_regions());
  // Every window period maps to the full route: each single-region
  // support equals the window size.
  for (int id = 0; id < static_cast<int>(miner.regions()->NumRegions());
       ++id) {
    EXPECT_EQ(miner.SupportOf({id}), static_cast<int>(miner.WindowSize()));
  }
  ExpectMatchesOffline(miner, history);
}

TEST(IncrementalMinerTest, StreamingMatchesOfflineAfterMorePeriods) {
  Trajectory history = Laps(6, 4);
  IncrementalMiner miner(MinerOptions(), kPeriod, MiningParams());
  miner.Observe(history);
  miner.AdoptRegions(DiscoverRegions(history), history);
  // Keep streaming: pattern periods and far periods interleave, the
  // window slides, counts go up and down — and the maintained set must
  // track the offline oracle at every period boundary.
  Random rng(5);
  for (int p = 0; p < 10; ++p) {
    Feed(&miner, &history, (p % 3 == 2) ? FarLap() : RouteLap(&rng));
    ExpectMatchesOffline(miner, history);
  }
}

TEST(IncrementalMinerTest, CrossingsMoveDriftAndStats) {
  const Trajectory bootstrap = Laps(6, 6);
  // Slack covers the route noise, so calm laps are fully matched and
  // the decay phase below is driven by the decay factor alone.
  IncrementalMinerOptions options = MinerOptions();
  options.region_match_slack = 5.0;
  IncrementalMiner miner(options, kPeriod, MiningParams());
  Trajectory history = bootstrap;
  miner.Observe(history);
  miner.AdoptRegions(DiscoverRegions(bootstrap), history);
  EXPECT_EQ(miner.drift(), 0.0);  // adoption re-bases, it is not drift

  // Far periods push route periods out of the 6-period window; once
  // support falls below min_support the sets demote and drift rises.
  const uint64_t promoted_before = miner.stats().promoted;
  for (int p = 0; p < 6; ++p) Feed(&miner, &history, FarLap());
  EXPECT_GT(miner.stats().demoted, 0u);
  EXPECT_GT(miner.drift(), 0.0);
  EXPECT_GT(miner.stats().unmatched_points, 0u);

  const double peak = miner.drift();
  // Window now holds only unmatched periods; feeding route periods back
  // re-promotes (crossings again) — but afterwards calm repetition
  // decays the score multiplicatively.
  Random rng(7);
  for (int p = 0; p < 6; ++p) Feed(&miner, &history, RouteLap(&rng));
  EXPECT_GT(miner.stats().promoted, promoted_before);
  double drift = miner.drift();
  for (int p = 0; p < 8; ++p) {
    Feed(&miner, &history, RouteLap(&rng));
    EXPECT_LE(miner.drift(), drift + 1e-9);
    drift = miner.drift();
  }
  EXPECT_LT(drift, peak);
}

TEST(IncrementalMinerTest, MemoryIsOneWordPerRegion) {
  // 20 regions on a 20-offset route and a 16-period window: the miner
  // owns its fixed fields plus one slot mask per region, whatever the
  // number of item sets the window holds.
  constexpr Timestamp kLongPeriod = 20;
  FrequentRegionParams params;
  params.period = kLongPeriod;
  params.dbscan.eps = 10.0;
  params.dbscan.min_pts = 3;
  Random rng(11);
  Trajectory history;
  for (int p = 0; p < 16; ++p) {
    for (Timestamp t = 0; t < kLongPeriod; ++t) {
      history.Append({100.0 * static_cast<double>(t) + rng.Gaussian(0, 1.0),
                      50.0 + rng.Gaussian(0, 1.0)});
    }
  }
  StatusOr<FrequentRegionMiningResult> discovery =
      MineFrequentRegions(history, params);
  ASSERT_TRUE(discovery.ok());
  ASSERT_EQ(discovery->region_set.NumRegions(), 20u);

  IncrementalMinerOptions options;
  options.window_periods = 16;
  IncrementalMiner miner(options, kLongPeriod, MiningParams());
  miner.Observe(history);
  miner.AdoptRegions(
      std::make_shared<const FrequentRegionSet>(discovery->region_set),
      history);
  ASSERT_EQ(miner.WindowSize(), 16u);
  EXPECT_FALSE(miner.CurrentPatterns().empty());
  EXPECT_LE(miner.MemoryBytes(), 512u);
  EXPECT_GE(miner.MemoryBytes(), 20u * sizeof(uint64_t));
}

TEST(IncrementalMinerTest, PrimeReplaysToIdenticalState) {
  // Live miner: adopt after 6 periods, then keep streaming 7 more.
  const Trajectory bootstrap = Laps(6, 9);
  const std::shared_ptr<const FrequentRegionSet> regions =
      DiscoverRegions(bootstrap);
  IncrementalMiner live(MinerOptions(), kPeriod, MiningParams());
  Trajectory full = bootstrap;
  live.Observe(full);
  live.AdoptRegions(regions, full);
  const size_t adopted_at = live.window_end();
  Random rng(10);
  for (int p = 0; p < 7; ++p) {
    Feed(&live, &full, (p % 2 == 0) ? RouteLap(&rng) : FarLap());
  }

  // Primed miner: rebuilt from (history, adopted_at, regions) alone —
  // the crash-recovery shape. State must match the live miner exactly.
  IncrementalMiner primed(MinerOptions(), kPeriod, MiningParams());
  primed.Prime(full, adopted_at, regions);
  EXPECT_EQ(primed.window_end(), live.window_end());
  EXPECT_EQ(primed.WindowSize(), live.WindowSize());
  EXPECT_EQ(primed.drift(), live.drift());
  const std::vector<TrajectoryPattern> expected = live.CurrentPatterns();
  const std::vector<TrajectoryPattern> actual = primed.CurrentPatterns();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].premise, expected[i].premise);
    EXPECT_EQ(actual[i].consequence, expected[i].consequence);
    EXPECT_EQ(actual[i].support, expected[i].support);
    EXPECT_EQ(actual[i].confidence, expected[i].confidence);
  }
}

TEST(IncrementalMinerTest, MetricHooksMirrorStats) {
  MetricsRegistry registry;
  MinerMetricHooks hooks;
  hooks.transactions = registry.GetCounter("miner.transactions");
  hooks.unmatched_points = registry.GetCounter("miner.unmatched_points");
  hooks.promoted = registry.GetCounter("miner.promoted");
  hooks.demoted = registry.GetCounter("miner.demoted");

  Trajectory history = Laps(6, 12);
  IncrementalMiner miner(MinerOptions(), kPeriod, MiningParams());
  miner.set_metric_hooks(hooks);
  miner.Observe(history);
  miner.AdoptRegions(DiscoverRegions(history), history);
  for (int p = 0; p < 6; ++p) Feed(&miner, &history, FarLap());
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.counter("miner.transactions"),
            miner.stats().transactions);
  EXPECT_EQ(snapshot.counter("miner.unmatched_points"),
            miner.stats().unmatched_points);
  EXPECT_EQ(snapshot.counter("miner.demoted"), miner.stats().demoted);
  EXPECT_GT(snapshot.counter("miner.demoted"), 0u);
}

}  // namespace
}  // namespace hpm
