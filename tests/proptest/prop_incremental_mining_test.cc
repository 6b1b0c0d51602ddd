// Property suite: the incremental miner is an exact re-expression of
// the offline pipeline. Across random streams, drift schedules and
// window lengths, the maintained pattern set must equal a from-scratch
// Apriori over the same window (P1); a sync-mode store rebuild must
// produce a byte-identical model file to HybridPredictor::Train over
// the miner's window, frozen TPT included (P2); a store that crashes
// mid-stream — with or without a snapshot — must replay its journal
// through the miner into the same pattern state and serving answers as
// an uninterrupted reference (P3); and the miner's promote/demote
// counts and drift score must equal a recount that scans the window's
// transactions (P4).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/hybrid_predictor.h"
#include "datagen/report_stream.h"
#include "mining/incremental_miner.h"
#include "mining/offline_miner.h"
#include "proptest/proptest.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

struct MiningCase {
  ReportStreamConfig stream;
  int total_periods = 8;
  /// P1: periods observed before regions are discovered and adopted.
  int adopt_after = 4;
  int window_periods = 4;
  int min_support = 2;
  double min_confidence = 0.2;
  int max_pattern_length = 3;
  double slack = 4.0;
  /// P3: SaveToDirectory after this many reports; SIZE_MAX = never.
  size_t save_point = SIZE_MAX;
  /// P3: reports ingested before the crash.
  size_t kill_point = 0;
};

MiningCase GenCase(Random& rng) {
  MiningCase c;
  c.stream.num_objects = static_cast<int>(1 + rng.Uniform(3));
  c.stream.period = static_cast<Timestamp>(6 + rng.Uniform(7));
  c.stream.pattern_probability = 0.85 + 0.15 * rng.NextDouble();
  c.stream.noise_sigma = 2.0 * rng.NextDouble();
  c.stream.drift_every_periods = static_cast<int>(rng.Uniform(5));
  c.stream.drift_fraction = 0.3 + 0.7 * rng.NextDouble();
  c.stream.seed = rng.NextUint64();
  c.total_periods = static_cast<int>(6 + rng.Uniform(9));
  c.adopt_after = static_cast<int>(3 + rng.Uniform(3));
  c.window_periods = static_cast<int>(2 + rng.Uniform(5));
  c.min_support = static_cast<int>(2 + rng.Uniform(3));
  c.min_confidence = 0.2 + 0.3 * rng.NextDouble();
  c.max_pattern_length = static_cast<int>(2 + rng.Uniform(3));
  c.slack = 10.0 * rng.NextDouble();
  const size_t total = static_cast<size_t>(c.total_periods) *
                       static_cast<size_t>(c.stream.period) *
                       static_cast<size_t>(c.stream.num_objects);
  c.kill_point = 1 + rng.Uniform(total);
  if (rng.Uniform(2) == 0) c.save_point = rng.Uniform(c.kill_point);
  return c;
}

AprioriParams MiningParams(const MiningCase& c) {
  AprioriParams params;
  params.min_support = c.min_support;
  params.min_confidence = c.min_confidence;
  params.max_pattern_length = c.max_pattern_length;
  return params;
}

FrequentRegionParams RegionParams(const MiningCase& c) {
  FrequentRegionParams params;
  params.period = c.stream.period;
  params.dbscan.eps = 15.0;
  params.dbscan.min_pts = 3;
  return params;
}

std::string CaseDir(const char* stem) {
  static std::atomic<uint64_t> counter{0};
  const std::string dir = std::string(::testing::TempDir()) + "/" + stem +
                          "_" + std::to_string(counter.fetch_add(1)) + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

std::string DescribePattern(const TrajectoryPattern& p) {
  std::string out = "{";
  for (int id : p.premise) out += std::to_string(id) + " ";
  out += "=> " + std::to_string(p.consequence) +
         ", supp=" + std::to_string(p.support) +
         ", conf=" + std::to_string(p.confidence) + "}";
  return out;
}

/// "" when the two pattern sets match exactly (after sorting `offline`
/// into the miner's (premise size, premise, consequence) order).
std::string ComparePatternSets(std::vector<TrajectoryPattern> offline,
                               const std::vector<TrajectoryPattern>& miner) {
  std::sort(offline.begin(), offline.end(),
            [](const TrajectoryPattern& a, const TrajectoryPattern& b) {
              if (a.premise.size() != b.premise.size()) {
                return a.premise.size() < b.premise.size();
              }
              if (a.premise != b.premise) return a.premise < b.premise;
              return a.consequence < b.consequence;
            });
  if (offline.size() != miner.size()) {
    return "pattern count differs: offline " +
           std::to_string(offline.size()) + " vs miner " +
           std::to_string(miner.size());
  }
  for (size_t i = 0; i < offline.size(); ++i) {
    if (offline[i].premise != miner[i].premise ||
        offline[i].consequence != miner[i].consequence ||
        offline[i].support != miner[i].support ||
        offline[i].confidence != miner[i].confidence) {
      return "pattern " + std::to_string(i) + " differs: offline " +
             DescribePattern(offline[i]) + " vs miner " +
             DescribePattern(miner[i]);
    }
  }
  return "";
}

// ---- P1: miner == offline Apriori over the same window ----------------

std::string CheckMinerMatchesOfflineOverWindow(const MiningCase& input) {
  ReportStreamConfig config = input.stream;
  config.num_objects = 1;  // miner-level property: one object suffices
  ReportStream stream(config);

  IncrementalMinerOptions options;
  options.window_periods = input.window_periods;
  options.region_match_slack = input.slack;
  IncrementalMiner miner(options, config.period, MiningParams(input));

  // Warm up without regions, then discover over the observed prefix and
  // adopt — the store's bootstrap handoff in miniature.
  Trajectory history;
  for (int p = 0; p < input.adopt_after; ++p) {
    for (const StreamedReport& r :
         stream.Take(static_cast<size_t>(config.period))) {
      history.Append(r.location);
      miner.Observe(history);
    }
  }
  const StatusOr<FrequentRegionMiningResult> discovery =
      MineFrequentRegions(history, RegionParams(input));
  if (!discovery.ok() || discovery->region_set.NumRegions() == 0) {
    return "";  // nothing clustered: the property is vacuous here
  }
  miner.AdoptRegions(
      std::make_shared<const FrequentRegionSet>(discovery->region_set),
      history);

  const int remaining = input.total_periods - input.adopt_after;
  for (int p = 0; p < remaining; ++p) {
    for (const StreamedReport& r :
         stream.Take(static_cast<size_t>(config.period))) {
      history.Append(r.location);
      miner.Observe(history);
    }
    // At every period boundary, the maintained set must equal a fresh
    // offline mine over exactly the miner's retained window.
    const StatusOr<Trajectory> sliced =
        history.Slice(static_cast<Timestamp>(miner.window_begin()),
                      static_cast<Timestamp>(miner.window_end()));
    if (!sliced.ok()) return "window slice: " + sliced.status().ToString();
    const Trajectory& window = *sliced;
    std::vector<Transaction> transactions;
    for (size_t start = 0; start + static_cast<size_t>(config.period) <=
                           window.size();
         start += static_cast<size_t>(config.period)) {
      std::vector<Point> points(
          window.points().begin() + static_cast<long>(start),
          window.points().begin() +
              static_cast<long>(start + static_cast<size_t>(config.period)));
      transactions.emplace_back(
          MapPeriodPointsToVisits(*miner.regions(), points, input.slack),
          miner.regions()->NumRegions());
    }
    const StatusOr<AprioriResult> offline = MineTrajectoryPatterns(
        transactions, *miner.regions(), MiningParams(input));
    if (!offline.ok()) {
      return "offline oracle failed: " + offline.status().ToString();
    }
    const std::string failure =
        ComparePatternSets(offline->patterns, miner.CurrentPatterns());
    if (!failure.empty()) {
      return "after period " + std::to_string(input.adopt_after + p + 1) +
             ": " + failure;
    }
  }
  return "";
}

// ---- P4: crossings and drift == a recount over the window -------------

/// Every item set of `items` (ascending region ids) in the offline
/// candidate language: 2..max_pattern_length items at strictly
/// increasing offsets, and a premise (all but the last item) spanning
/// at most premise_window offsets when that bound is set.
std::vector<std::vector<int>> ValidItemsets(const std::vector<int>& items,
                                            const FrequentRegionSet& regions,
                                            const AprioriParams& params) {
  std::vector<std::vector<int>> sets;
  const size_t n = items.size();
  if (n >= 31) return sets;  // never reached: periods here are < 13 long
  for (uint32_t bits = 1; bits < (uint32_t{1} << n); ++bits) {
    std::vector<int> set;
    for (size_t i = 0; i < n; ++i) {
      if ((bits >> i) & 1) set.push_back(items[i]);
    }
    if (set.size() < 2 ||
        set.size() > static_cast<size_t>(params.max_pattern_length)) {
      continue;
    }
    bool valid = true;
    for (size_t i = 1; i < set.size(); ++i) {
      if (regions.Region(set[i]).offset <= regions.Region(set[i - 1]).offset) {
        valid = false;
      }
    }
    if (set.size() >= 3 && params.premise_window > 0 &&
        regions.Region(set[set.size() - 2]).offset -
                regions.Region(set.front()).offset >
            params.premise_window) {
      valid = false;
    }
    if (valid) sets.push_back(std::move(set));
  }
  return sets;
}

int ScanSupport(const std::vector<int>& set,
                const std::vector<std::vector<int>>& transactions) {
  int support = 0;
  for (const std::vector<int>& t : transactions) {
    if (std::includes(t.begin(), t.end(), set.begin(), set.end())) {
      ++support;
    }
  }
  return support;
}

std::string CheckDriftMatchesWindowRecount(const MiningCase& input) {
  ReportStreamConfig config = input.stream;
  config.num_objects = 1;
  ReportStream stream(config);
  const AprioriParams params = MiningParams(input);
  const size_t period = static_cast<size_t>(config.period);

  IncrementalMinerOptions options;
  options.window_periods = input.window_periods;
  options.region_match_slack = input.slack;
  IncrementalMiner miner(options, config.period, params);

  Trajectory history;
  const auto feed_period = [&] {
    for (const StreamedReport& r : stream.Take(period)) {
      history.Append(r.location);
      miner.Observe(history);
    }
  };
  for (int p = 0; p < input.adopt_after; ++p) feed_period();
  const StatusOr<FrequentRegionMiningResult> discovery =
      MineFrequentRegions(history, RegionParams(input));
  if (!discovery.ok() || discovery->region_set.NumRegions() == 0) {
    return "";
  }
  const FrequentRegionSet& regions = discovery->region_set;
  miner.AdoptRegions(std::make_shared<const FrequentRegionSet>(regions),
                     history);

  // The test-side window: each period's transaction under the adopted
  // regions, oldest first, seeded with the periods already in it.
  const auto transaction_at = [&](size_t begin, size_t* unmatched) {
    const std::vector<Point> points(
        history.points().begin() + static_cast<long>(begin),
        history.points().begin() + static_cast<long>(begin + period));
    const std::vector<RegionVisit> visits =
        MapPeriodPointsToVisits(regions, points, input.slack);
    *unmatched = points.size() - visits.size();
    return Transaction(visits, regions.NumRegions()).items();
  };
  std::deque<std::vector<int>> window;
  for (size_t begin = miner.window_begin(); begin < miner.window_end();
       begin += period) {
    size_t unmatched = 0;
    window.push_back(transaction_at(begin, &unmatched));
  }

  uint64_t promoted = 0;
  uint64_t demoted = 0;
  double drift = 0.0;
  const int min_support = params.min_support;
  const int remaining = input.total_periods - input.adopt_after;
  for (int p = 0; p < remaining; ++p) {
    feed_period();
    size_t unmatched = 0;
    const std::vector<int> added =
        transaction_at(history.size() - period, &unmatched);
    // +1 first: the new period joins the window.
    std::vector<std::vector<int>> before(window.begin(), window.end());
    size_t crossings = 0;
    for (const std::vector<int>& set : ValidItemsets(added, regions, params)) {
      const int support = ScanSupport(set, before);
      if (support < min_support && support + 1 >= min_support) {
        ++promoted;
        ++crossings;
      }
    }
    window.push_back(added);
    // Then -1: the oldest period leaves a window that has overgrown.
    if (window.size() > static_cast<size_t>(input.window_periods)) {
      const std::vector<int> expired = window.front();
      const std::vector<std::vector<int>> grown(window.begin(),
                                                window.end());
      for (const std::vector<int>& set :
           ValidItemsets(expired, regions, params)) {
        const int support = ScanSupport(set, grown);
        if (support >= min_support && support - 1 < min_support) {
          ++demoted;
          ++crossings;
        }
      }
      window.pop_front();
    }
    drift = drift * options.drift_decay +
            options.crossing_weight * static_cast<double>(crossings) +
            options.unmatched_weight * (static_cast<double>(unmatched) /
                                        static_cast<double>(period));
    const std::string at =
        "after period " + std::to_string(input.adopt_after + p + 1) + ": ";
    if (miner.stats().promoted != promoted ||
        miner.stats().demoted != demoted) {
      return at + "miner promoted/demoted " +
             std::to_string(miner.stats().promoted) + "/" +
             std::to_string(miner.stats().demoted) + " vs recount " +
             std::to_string(promoted) + "/" + std::to_string(demoted);
    }
    if (miner.drift() != drift) {
      return at + "miner drift " + std::to_string(miner.drift()) +
             " vs recount " + std::to_string(drift);
    }
  }
  return "";
}

// ---- P2 / P3: store-level properties ----------------------------------

ObjectStoreOptions StoreOptions(const MiningCase& c, const std::string& dir) {
  ObjectStoreOptions options;
  options.predictor.regions = RegionParams(c);
  options.predictor.mining = MiningParams(c);
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = 4;
  options.recent_window = 5;
  options.num_shards = 2;
  options.rebuild.drift_threshold = 1.5;
  options.rebuild.miner.window_periods = c.window_periods + 2;
  if (!dir.empty()) options.durability.wal_dir = dir + "/wal";
  return options;
}

/// Feeds reports [from, to) of the case's stream. A report whose inline
/// drift-rebuild legitimately fails (e.g. the drifted window no longer
/// clusters) still lands in history/miner/journal, so those statuses
/// are tolerated — determinism, not success, is the property.
void FeedStore(MovingObjectStore& store, const MiningCase& c, size_t from,
               size_t to) {
  ReportStream stream(c.stream);
  size_t i = 0;
  while (i < to) {
    const StreamedReport r = stream.Next();
    if (i >= from) (void)store.ReportLocation(r.object_id, r.location);
    ++i;
  }
}

std::string CheckSyncRebuildIsBitIdenticalToTrain(const MiningCase& input) {
  MovingObjectStore store(StoreOptions(input, ""));
  const size_t total = static_cast<size_t>(input.total_periods) *
                       static_cast<size_t>(input.stream.period) *
                       static_cast<size_t>(input.stream.num_objects);
  FeedStore(store, input, 0, total);
  (void)store.FlushRebuilds();  // may legitimately fail on drifted data

  const std::string dir = CaseDir("prop_incr_rebuild");
  std::filesystem::create_directories(dir);
  for (const ObjectId id : store.ObjectIds()) {
    const auto predictor = store.GetPredictor(id);
    if (!predictor.ok()) continue;  // never bootstrapped
    const auto state = store.MinerState(id);
    if (!state.ok()) return "MinerState: " + state.status().ToString();
    if (state->window_end > state->consumed_samples) continue;  // unflushed
    const StatusOr<std::unique_ptr<HybridPredictor>> reference =
        HybridPredictor::Train(state->window,
                               StoreOptions(input, "").predictor);
    if (!reference.ok()) {
      return "reference train failed where the rebuild succeeded: " +
             reference.status().ToString();
    }
    const std::string served_path =
        dir + "/served_" + std::to_string(id) + ".hpm";
    const std::string reference_path =
        dir + "/reference_" + std::to_string(id) + ".hpm";
    Status saved = (*predictor)->SaveToFile(served_path);
    if (saved.ok()) saved = (*reference)->SaveToFile(reference_path);
    if (!saved.ok()) return "save: " + saved.ToString();
    if (ReadFileBytes(served_path) != ReadFileBytes(reference_path)) {
      return "object " + std::to_string(id) +
             ": served model differs from Train(miner window)";
    }
  }
  std::filesystem::remove_all(dir);
  return "";
}

std::string CheckCrashReplayConvergesThroughMiner(const MiningCase& input) {
  const std::string dir = CaseDir("prop_incr_crash");
  MovingObjectStore reference(StoreOptions(input, ""));
  FeedStore(reference, input, 0, input.kill_point);
  {
    MovingObjectStore durable(StoreOptions(input, dir));
    if (!durable.wal_durable()) return "journal failed to open";
    if (input.save_point < input.kill_point) {
      FeedStore(durable, input, 0, input.save_point);
      const Status saved = durable.SaveToDirectory(dir);
      if (!saved.ok()) return "save: " + saved.ToString();
      FeedStore(durable, input, input.save_point, input.kill_point);
    } else {
      FeedStore(durable, input, 0, input.kill_point);
    }
    // Crash: dropped with no further persistence.
  }
  auto recovered =
      MovingObjectStore::LoadFromDirectory(dir, StoreOptions(input, dir));
  if (!recovered.ok()) {
    return "recovery failed: " + recovered.status().ToString();
  }
  const Status ref_flush = reference.FlushRebuilds();
  const Status rec_flush = recovered->FlushRebuilds();
  if (ref_flush.ok() != rec_flush.ok()) {
    return "flush outcome diverged: reference " + ref_flush.ToString() +
           " vs recovered " + rec_flush.ToString();
  }

  if (reference.ObjectIds() != recovered->ObjectIds()) {
    return "fleet membership differs after recovery";
  }
  for (const ObjectId id : reference.ObjectIds()) {
    const auto want = reference.MinerState(id);
    const auto got = recovered->MinerState(id);
    if (!want.ok() || !got.ok()) return "MinerState failed after recovery";
    if (want->window_end != got->window_end ||
        want->consumed_samples != got->consumed_samples) {
      return "object " + std::to_string(id) + ": miner position differs (" +
             std::to_string(want->window_end) + "/" +
             std::to_string(want->consumed_samples) + " vs " +
             std::to_string(got->window_end) + "/" +
             std::to_string(got->consumed_samples) + ")";
    }
    std::string failure = ComparePatternSets(want->patterns, got->patterns);
    if (!failure.empty()) {
      return "object " + std::to_string(id) + ": " + failure;
    }
    const Timestamp tq =
        static_cast<Timestamp>(reference.HistoryLength(id)) + 3;
    const auto want_pred = reference.PredictLocation(id, tq, 2);
    const auto got_pred = recovered->PredictLocation(id, tq, 2);
    if (want_pred.ok() != got_pred.ok()) {
      return "prediction status differs for object " + std::to_string(id);
    }
    if (want_pred.ok()) {
      if (want_pred->size() != got_pred->size()) {
        return "prediction count differs for object " + std::to_string(id);
      }
      for (size_t i = 0; i < want_pred->size(); ++i) {
        if (!((*want_pred)[i].location == (*got_pred)[i].location) ||
            (*want_pred)[i].score != (*got_pred)[i].score) {
          return "prediction differs for object " + std::to_string(id);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);  // only on success: keep evidence
  return "";
}

TEST(PropIncrementalMining, MinerMatchesOfflineOverWindow) {
  Property<MiningCase> property("miner_matches_offline", GenCase,
                                CheckMinerMatchesOfflineOverWindow);
  RunnerOptions options;
  options.num_cases = 25;
  const auto result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropIncrementalMining, DriftMatchesWindowRecount) {
  Property<MiningCase> property("drift_matches_window_recount", GenCase,
                                CheckDriftMatchesWindowRecount);
  RunnerOptions options;
  options.num_cases = 25;
  const auto result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropIncrementalMining, SyncRebuildIsBitIdenticalToTrain) {
  Property<MiningCase> property("sync_rebuild_bit_identical", GenCase,
                                CheckSyncRebuildIsBitIdenticalToTrain);
  RunnerOptions options;
  options.num_cases = 8;
  const auto result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropIncrementalMining, CrashReplayConvergesThroughMiner) {
  Property<MiningCase> property("incremental_crash_replay", GenCase,
                                CheckCrashReplayConvergesThroughMiner);
  RunnerOptions options;
  options.num_cases = 8;
  const auto result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
