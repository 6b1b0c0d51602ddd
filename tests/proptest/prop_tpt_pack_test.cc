// Property suite: the packed arena (FrozenTpt::Pack) against the
// insertion-built reference (TptTree, paper Algorithm 1, frozen by
// TptTree::Freeze). Packing changes the tree's shape, never its answers:
// on any pattern set, at any node capacity, the packed arena
//   - passes CheckInvariants and holds every pattern once, under its own
//     key and payload, at the height of an evenly cut tree;
//   - survives its wire form (AppendTo -> Parse -> AppendTo, byte for
//     byte), and does not depend on the order of its input;
//   - returns, for every query in both search modes, the reference's hit
//     set (pattern ids, sorted).
// On pattern sets mined from periodic movement (MineOffline + KeyTables,
// queried the way the predictor queries), the packed arena also tests no
// more entries and scans no more key blocks than the reference.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/periodic_generator.h"
#include "mining/offline_miner.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "tpt/frozen_tpt.h"
#include "tpt/key_tables.h"
#include "tpt_reference/pattern_sets.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr SearchMode kModes[] = {SearchMode::kPremiseAndConsequence,
                                 SearchMode::kConsequenceOnly};

std::string ModeName(SearchMode mode) {
  return mode == SearchMode::kPremiseAndConsequence ? "FQP" : "BQP";
}

StatusOr<FrozenTpt> PackPatterns(const std::vector<IndexedPattern>& patterns,
                                 int capacity) {
  std::vector<PatternKey> keys;
  std::vector<LeafPayload> payloads;
  for (const IndexedPattern& p : patterns) {
    keys.push_back(p.key);
    payloads.push_back(
        LeafPayload{p.confidence, p.consequence_region, p.pattern_id, 0});
  }
  StatusOr<KeyBlocks> blocks = FlattenKeys(keys);
  if (!blocks.ok()) return blocks.status();
  return FrozenTpt::Pack(*blocks, payloads, capacity);
}

/// The insertion-built reference at the same node capacity.
StatusOr<FrozenTpt> ReferenceArena(const std::vector<IndexedPattern>& patterns,
                                   int capacity) {
  TptTree::Options options;
  options.max_node_entries = capacity;
  options.min_node_entries = std::max(2, capacity * 2 / 5);
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns, options);
  if (!tree.ok()) return tree.status();
  return tree->Freeze();
}

/// Levels of a tree whose every level is cut into ceil(items / capacity)
/// nodes until one root remains.
int EvenlyCutHeight(size_t n, int capacity) {
  if (n == 0) return 0;
  int height = 1;
  for (size_t items = n; items > static_cast<size_t>(capacity);
       items = (items + capacity - 1) / capacity) {
    ++height;
  }
  return height;
}

std::vector<int> SortedHitIds(const FrozenTpt& arena, const PatternKey& query,
                              SearchMode mode, TptSearchStats* stats) {
  std::vector<int> ids;
  for (const FrozenTpt::Hit& hit : arena.Search(query, mode, stats)) {
    ids.push_back(arena.payload(hit).pattern_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string Wire(const FrozenTpt& arena) {
  std::string wire;
  arena.AppendTo(&wire);
  return wire;
}

/// Empty when `packed` holds exactly `patterns` (ids dense from 0) as
/// valid, evenly cut, order-independent arena with a faithful wire form.
std::string CheckPackedShape(const std::vector<IndexedPattern>& patterns,
                             int capacity, const FrozenTpt& packed) {
  const Status invariants = packed.CheckInvariants();
  if (!invariants.ok()) return "packed invariants: " + invariants.ToString();
  if (packed.size() != patterns.size()) {
    return "packed " + std::to_string(packed.size()) + " of " +
           std::to_string(patterns.size()) + " patterns";
  }
  if (packed.Height() != EvenlyCutHeight(patterns.size(), capacity)) {
    return "packed height " + std::to_string(packed.Height()) +
           ", an evenly cut tree has " +
           std::to_string(EvenlyCutHeight(patterns.size(), capacity));
  }
  std::vector<char> seen(patterns.size(), 0);
  for (const FrozenTpt::Hit& leaf : packed.Leaves()) {
    const LeafPayload& got = packed.payload(leaf);
    if (got.pattern_id < 0 ||
        static_cast<size_t>(got.pattern_id) >= patterns.size() ||
        seen[static_cast<size_t>(got.pattern_id)] != 0) {
      return "leaf pattern id " + std::to_string(got.pattern_id) +
             " out of range or repeated";
    }
    seen[static_cast<size_t>(got.pattern_id)] = 1;
    const IndexedPattern& want =
        patterns[static_cast<size_t>(got.pattern_id)];
    if (!(packed.KeyOf(leaf) == want.key) ||
        got.confidence != want.confidence ||
        got.consequence_region != want.consequence_region) {
      return "pattern " + std::to_string(want.pattern_id) +
             " packed under another key or payload";
    }
  }

  const std::string wire = Wire(packed);
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  if (!reparsed.ok()) return "Parse: " + reparsed.status().ToString();
  if (consumed != wire.size() || Wire(*reparsed) != wire) {
    return "wire form does not round-trip byte for byte";
  }

  std::vector<IndexedPattern> reversed(patterns.rbegin(), patterns.rend());
  StatusOr<FrozenTpt> repacked = PackPatterns(reversed, capacity);
  if (!repacked.ok() || Wire(*repacked) != wire) {
    return "packing the reversed input gave another arena";
  }
  return "";
}

/// Empty when `packed` and `reference` return the same hit set for
/// `query` in `mode`; adds each side's search counts to the totals.
std::string CompareHitSets(const FrozenTpt& packed, const FrozenTpt& reference,
                           const PatternKey& query, SearchMode mode,
                           TptSearchStats* packed_stats,
                           TptSearchStats* reference_stats) {
  const std::vector<int> got = SortedHitIds(packed, query, mode, packed_stats);
  const std::vector<int> want =
      SortedHitIds(reference, query, mode, reference_stats);
  if (got != want) {
    return ModeName(mode) + " search hit " + std::to_string(got.size()) +
           " patterns, the reference " + std::to_string(want.size()) +
           (got.size() == want.size() ? " (other ids)" : "");
  }
  return "";
}

// ---- Random pattern sets -------------------------------------------------

struct RandomCase {
  std::vector<IndexedPattern> patterns;
  std::vector<PatternKey> queries;
  int capacity = 4;
};

RandomCase GenRandomCase(Random& rng) {
  RandomCase c;
  const size_t premise_length = 4 + rng.Uniform(80);
  const size_t consequence_length = 1 + rng.Uniform(12);
  c.capacity = static_cast<int>(4 + rng.Uniform(61));
  const int count = static_cast<int>(rng.Uniform(400));
  c.patterns = proptest::RandomPatternSet(rng, count, premise_length,
                                          consequence_length,
                                          rng.UniformDouble(0.02, 0.4));
  const int num_queries = static_cast<int>(4 + rng.Uniform(8));
  for (int i = 0; i < num_queries; ++i) {
    c.queries.push_back(proptest::RandomPatternKey(
        rng, premise_length, consequence_length, rng.UniformDouble(0.02, 0.3)));
  }
  for (size_t i = 0; i < c.patterns.size() && i < 4; ++i) {
    c.queries.push_back(c.patterns[i * c.patterns.size() / 4].key);
  }
  return c;
}

std::string CheckRandomCase(const RandomCase& input) {
  StatusOr<FrozenTpt> packed = PackPatterns(input.patterns, input.capacity);
  if (!packed.ok()) return "Pack: " + packed.status().ToString();
  std::string failure = CheckPackedShape(input.patterns, input.capacity,
                                         *packed);
  if (!failure.empty()) return failure;
  StatusOr<FrozenTpt> reference =
      ReferenceArena(input.patterns, input.capacity);
  if (!reference.ok()) return "reference: " + reference.status().ToString();
  TptSearchStats packed_stats, reference_stats;
  for (size_t q = 0; q < input.queries.size(); ++q) {
    for (const SearchMode mode : kModes) {
      failure = CompareHitSets(*packed, *reference, input.queries[q], mode,
                               &packed_stats, &reference_stats);
      if (!failure.empty()) return "query " + std::to_string(q) + ": " + failure;
    }
  }
  return "";
}

std::vector<RandomCase> ShrinkRandomCase(const RandomCase& input) {
  std::vector<RandomCase> out;
  for (std::vector<IndexedPattern>& fewer :
       proptest::ShrinkVector(input.patterns)) {
    for (size_t i = 0; i < fewer.size(); ++i) {
      fewer[i].pattern_id = static_cast<int>(i);
    }
    out.push_back({std::move(fewer), input.queries, input.capacity});
  }
  for (std::vector<PatternKey>& fewer :
       proptest::ShrinkVector(input.queries)) {
    if (!fewer.empty()) {
      out.push_back({input.patterns, std::move(fewer), input.capacity});
    }
  }
  return out;
}

TEST(PropTptPackTest, PackedArenaAnswersLikeTheInsertionBuiltTree) {
  Property<RandomCase> property("tpt-pack-vs-insertion", GenRandomCase,
                                CheckRandomCase);
  property.WithShrinker(ShrinkRandomCase);
  RunnerOptions options;
  options.num_cases = 60;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- Mined pattern sets --------------------------------------------------

constexpr Timestamp kPeriod = 20;
constexpr double kExtent = 1000.0;

struct MinedCase {
  std::vector<SeedRoute> routes;
  PeriodicGeneratorConfig config;
  int capacity = 4;
  uint64_t query_seed = 0;
};

MinedCase GenMinedCase(Random& rng) {
  MinedCase c;
  const BoundingBox extent({0.0, 0.0}, {kExtent, kExtent});
  const int num_routes = static_cast<int>(2 + rng.Uniform(3));
  for (int r = 0; r < num_routes; ++r) {
    SeedRoute route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.points.push_back(proptest::RandomPoint(rng, extent));
    }
    c.routes.push_back(std::move(route));
  }
  c.config.period = kPeriod;
  c.config.num_sub_trajectories = static_cast<int>(16 + rng.Uniform(24));
  c.config.pattern_probability = 0.9;
  c.config.noise_sigma = 3.0;
  c.config.time_jitter = 0;
  c.config.detour_probability = 0.2;
  c.config.detour_window = 5;
  c.config.detour_magnitude = 300.0;
  c.config.extent = kExtent;
  c.config.seed = rng.NextUint64();
  c.capacity = static_cast<int>(4 + rng.Uniform(61));
  c.query_seed = rng.NextUint64();
  return c;
}

/// Mines the case's movement into indexed patterns keyed by `tables`.
StatusOr<std::vector<IndexedPattern>> MinePatterns(const MinedCase& input,
                                                   KeyTables* tables,
                                                   size_t* num_regions) {
  StatusOr<Trajectory> history =
      GeneratePeriodicTrajectory(input.routes, input.config);
  if (!history.ok()) return history.status();
  FrequentRegionParams regions;
  regions.period = kPeriod;
  regions.dbscan.eps = 15.0;
  regions.dbscan.min_pts = 3;
  AprioriParams mining;
  mining.min_confidence = 0.2;
  StatusOr<OfflineMineResult> offline =
      MineOffline(*history, regions, mining);
  if (!offline.ok()) return offline.status();
  const FrequentRegionSet& region_set = offline->discovery.region_set;
  std::vector<int> consequences;
  for (const TrajectoryPattern& p : offline->mined.patterns) {
    consequences.push_back(p.consequence);
  }
  *tables = KeyTables::Build(region_set, consequences);
  *num_regions = region_set.NumRegions();
  const KeyBlocks keys =
      tables->EncodePatterns(offline->mined.patterns, region_set);
  std::vector<IndexedPattern> patterns;
  for (size_t i = 0; i < offline->mined.patterns.size(); ++i) {
    const TrajectoryPattern& p = offline->mined.patterns[i];
    patterns.push_back(
        {keys.Key(i), p.confidence, p.consequence, static_cast<int>(i)});
  }
  return patterns;
}

/// Queries shaped like the predictor's: a few recently visited regions,
/// and one consequence offset (FQP) or an offset interval (BQP).
std::vector<std::pair<PatternKey, SearchMode>> MinedQueries(
    const KeyTables& tables, size_t num_regions, uint64_t seed) {
  Random rng(seed);
  std::vector<std::pair<PatternKey, SearchMode>> queries;
  for (int i = 0; i < 48; ++i) {
    std::vector<int> premise;
    const size_t visited = 1 + rng.Uniform(4);
    for (size_t v = 0; v < visited; ++v) {
      premise.push_back(static_cast<int>(rng.Uniform(num_regions)));
    }
    std::sort(premise.begin(), premise.end());
    premise.erase(std::unique(premise.begin(), premise.end()), premise.end());
    PatternKey key;
    const Timestamp offset = static_cast<Timestamp>(rng.Uniform(kPeriod));
    if (i % 2 == 0) {
      if (!tables.EncodeQueryInto(premise, offset, &key).ok()) continue;
      queries.emplace_back(std::move(key), SearchMode::kPremiseAndConsequence);
    } else {
      const Timestamp width = static_cast<Timestamp>(rng.Uniform(4));
      tables.EncodeQueryIntervalInto(premise, offset,
                                     std::min(kPeriod - 1, offset + width),
                                     &key);
      queries.emplace_back(std::move(key), SearchMode::kConsequenceOnly);
    }
  }
  return queries;
}

std::string CheckMinedCase(const MinedCase& input) {
  KeyTables tables;
  size_t num_regions = 0;
  StatusOr<std::vector<IndexedPattern>> patterns =
      MinePatterns(input, &tables, &num_regions);
  if (!patterns.ok()) return "mining: " + patterns.status().ToString();
  if (patterns->empty()) return "";
  StatusOr<FrozenTpt> packed = PackPatterns(*patterns, input.capacity);
  if (!packed.ok()) return "Pack: " + packed.status().ToString();
  std::string failure = CheckPackedShape(*patterns, input.capacity, *packed);
  if (!failure.empty()) return failure;
  StatusOr<FrozenTpt> reference = ReferenceArena(*patterns, input.capacity);
  if (!reference.ok()) return "reference: " + reference.status().ToString();

  TptSearchStats packed_stats, reference_stats;
  const auto queries = MinedQueries(tables, num_regions, input.query_seed);
  for (size_t q = 0; q < queries.size(); ++q) {
    failure = CompareHitSets(*packed, *reference, queries[q].first,
                             queries[q].second, &packed_stats,
                             &reference_stats);
    if (!failure.empty()) return "query " + std::to_string(q) + ": " + failure;
  }
  if (packed_stats.entries_tested > reference_stats.entries_tested ||
      packed_stats.blocks_scanned > reference_stats.blocks_scanned) {
    return std::to_string(patterns->size()) + " patterns at capacity " +
           std::to_string(input.capacity) + ": packed tested " +
           std::to_string(packed_stats.entries_tested) + " entries / " +
           std::to_string(packed_stats.blocks_scanned) +
           " blocks, the reference " +
           std::to_string(reference_stats.entries_tested) + " / " +
           std::to_string(reference_stats.blocks_scanned);
  }
  return "";
}

TEST(PropTptPackTest, MinedPatternSetsAnswerAlikeAndScanNoMore) {
  Property<MinedCase> property("tpt-pack-mined", GenMinedCase,
                               CheckMinedCase);
  RunnerOptions options;
  options.num_cases = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- Input validation ----------------------------------------------------

TEST(PropTptPackTest, PackRejectsMalformedInput) {
  Random rng(proptest::SeedForTest(20261019));
  SCOPED_TRACE(proptest::ReplayLine(proptest::SeedForTest(20261019)));
  const std::vector<IndexedPattern> patterns =
      proptest::RandomPatternSet(rng, 10, 16, 4, 0.2);
  std::vector<PatternKey> keys;
  std::vector<LeafPayload> payloads;
  for (const IndexedPattern& p : patterns) {
    keys.push_back(p.key);
    payloads.push_back(LeafPayload{p.confidence, p.consequence_region,
                                   p.pattern_id, 7});
  }
  StatusOr<KeyBlocks> blocks = FlattenKeys(keys);
  ASSERT_TRUE(blocks.ok());
  StatusOr<FrozenTpt> empty = FrozenTpt::Pack(KeyBlocks{}, {}, 32);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->Height(), 0);

  EXPECT_EQ(FrozenTpt::Pack(*blocks, std::span(payloads).first(9), 32)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FrozenTpt::Pack(*blocks, payloads, FrozenTpt::kMinNodeCapacity - 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FrozenTpt::Pack(*blocks, payloads, FrozenTpt::kMaxNodeCapacity + 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<PatternKey> ragged = keys;
  ragged.back() = PatternKey(17, 4);
  EXPECT_EQ(FlattenKeys(ragged).status().code(),
            StatusCode::kInvalidArgument);
  // A block with a bit past its part's width (16 premise bits, 4
  // consequence bits) is not a key.
  for (const size_t dirty_word : {size_t{0}, blocks->stride() - 1}) {
    KeyBlocks dirty = *blocks;
    dirty.words[dirty.words.size() - blocks->stride() + dirty_word] |=
        uint64_t{1} << 20;
    EXPECT_EQ(FrozenTpt::Pack(dirty, payloads, 32).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Supports ride in with the payloads.
  StatusOr<FrozenTpt> packed = FrozenTpt::Pack(*blocks, payloads, 4);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->Height(), 2);
  for (const LeafPayload& p : packed->payloads()) EXPECT_EQ(p.support, 7);
}

}  // namespace
}  // namespace hpm
