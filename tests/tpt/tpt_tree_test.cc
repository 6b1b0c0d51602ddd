#include "tpt_reference/tpt_tree.h"

#include <gtest/gtest.h>

#include "proptest/proptest.h"

#include <algorithm>
#include <set>

#include "common/random.h"
#include "tpt_reference/brute_force_store.h"

namespace hpm {
namespace {

PatternKey RandomKey(Random* rng, size_t premise_len, size_t cons_len,
                     double premise_density = 0.1) {
  PatternKey key(premise_len, cons_len);
  // Patterns always have at least one premise bit and exactly one
  // consequence bit (as mined patterns do).
  key.mutable_premise().Set(rng->Uniform(premise_len));
  for (size_t i = 0; i < premise_len; ++i) {
    if (rng->Bernoulli(premise_density)) key.mutable_premise().Set(i);
  }
  key.mutable_consequence().Set(rng->Uniform(cons_len));
  return key;
}

IndexedPattern MakePattern(PatternKey key, int id) {
  IndexedPattern p;
  p.key = std::move(key);
  p.confidence = 0.5;
  p.consequence_region = id % 7;
  p.pattern_id = id;
  return p;
}

std::set<int> Ids(const std::vector<const IndexedPattern*>& hits) {
  std::set<int> ids;
  for (const auto* hit : hits) ids.insert(hit->pattern_id);
  return ids;
}

TEST(TptTreeTest, EmptyTree) {
  TptTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  PatternKey q(8, 2);
  q.mutable_premise().Set(0);
  q.mutable_consequence().Set(0);
  EXPECT_TRUE(tree.Search(q, SearchMode::kPremiseAndConsequence).empty());
}

TEST(TptTreeTest, SingleInsertAndFind) {
  TptTree tree;
  PatternKey key(8, 2);
  key.mutable_premise().Set(3);
  key.mutable_consequence().Set(1);
  ASSERT_TRUE(tree.Insert(MakePattern(key, 42)).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  const auto hits = tree.Search(key, SearchMode::kPremiseAndConsequence);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->pattern_id, 42);
}

TEST(TptTreeTest, MismatchedKeyLengthRejected) {
  TptTree tree;
  PatternKey a(8, 2);
  a.mutable_premise().Set(0);
  a.mutable_consequence().Set(0);
  ASSERT_TRUE(tree.Insert(MakePattern(a, 0)).ok());
  PatternKey b(9, 2);
  b.mutable_premise().Set(0);
  b.mutable_consequence().Set(0);
  EXPECT_EQ(tree.Insert(MakePattern(b, 1)).code(),
            StatusCode::kInvalidArgument);
  PatternKey c(8, 3);
  c.mutable_premise().Set(0);
  c.mutable_consequence().Set(0);
  EXPECT_EQ(tree.Insert(MakePattern(c, 2)).code(),
            StatusCode::kInvalidArgument);
}

TEST(TptTreeTest, SplitsGrowHeightAndKeepInvariants) {
  TptTree::Options options;
  options.max_node_entries = 4;
  options.min_node_entries = 2;
  TptTree tree(options);
  const uint64_t seed = proptest::SeedForTest(1);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        tree.Insert(MakePattern(RandomKey(&rng, 32, 8), i)).ok());
    if (i % 20 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after insert " << i;
    }
  }
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_GT(tree.Height(), 2);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(TptTreeTest, SearchFindsExactPatternAmongMany) {
  TptTree tree;
  const uint64_t seed = proptest::SeedForTest(2);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  // A distinctive pattern in a sea of others.
  PatternKey needle(64, 10);
  needle.mutable_premise().Set(63);
  needle.mutable_consequence().Set(9);
  ASSERT_TRUE(tree.Insert(MakePattern(needle, 777)).ok());
  for (int i = 0; i < 300; ++i) {
    PatternKey key(64, 10);
    key.mutable_premise().Set(rng.Uniform(32));  // Lower half only.
    key.mutable_consequence().Set(rng.Uniform(5));
    ASSERT_TRUE(tree.Insert(MakePattern(key, i)).ok());
  }
  const auto hits =
      tree.Search(needle, SearchMode::kPremiseAndConsequence);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->pattern_id, 777);
}

TEST(TptTreeTest, ConsequenceOnlyModeIgnoresPremise) {
  TptTree tree;
  PatternKey key(8, 4);
  key.mutable_premise().Set(2);
  key.mutable_consequence().Set(1);
  ASSERT_TRUE(tree.Insert(MakePattern(key, 0)).ok());
  PatternKey q(8, 4);
  q.mutable_premise().Set(5);  // Disjoint premise.
  q.mutable_consequence().Set(1);
  EXPECT_TRUE(tree.Search(q, SearchMode::kPremiseAndConsequence).empty());
  EXPECT_EQ(tree.Search(q, SearchMode::kConsequenceOnly).size(), 1u);
}

TEST(TptTreeTest, DuplicateKeysAllRetrievable) {
  // Table III notes one pattern key may represent several patterns.
  TptTree tree;
  PatternKey key(8, 2);
  key.mutable_premise().Set(0);
  key.mutable_consequence().Set(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Insert(MakePattern(key, i)).ok());
  }
  const auto hits = tree.Search(key, SearchMode::kPremiseAndConsequence);
  EXPECT_EQ(hits.size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(TptTreeTest, BulkLoadEqualsSequentialInsert) {
  const uint64_t seed = proptest::SeedForTest(3);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  std::vector<IndexedPattern> patterns;
  for (int i = 0; i < 120; ++i) {
    patterns.push_back(MakePattern(RandomKey(&rng, 24, 6), i));
  }
  auto tree = TptTree::BulkLoad(patterns);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 120u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(TptTreeTest, MemoryGrowsWithPatternsAndKeyLength) {
  const uint64_t seed = proptest::SeedForTest(4);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  auto build = [&rng](int n, size_t premise_len) {
    TptTree tree;
    for (int i = 0; i < n; ++i) {
      HPM_CHECK(
          tree.Insert(MakePattern(RandomKey(&rng, premise_len, 4), i)).ok());
    }
    return tree.MemoryBytes();
  };
  const size_t small = build(50, 64);
  const size_t more_patterns = build(500, 64);
  const size_t longer_keys = build(50, 2048);
  EXPECT_GT(more_patterns, small);
  EXPECT_GT(longer_keys, small);
}

TEST(TptTreeDeathTest, BadOptionsAbort) {
  TptTree::Options tiny;
  tiny.max_node_entries = 2;
  tiny.min_node_entries = 2;
  EXPECT_DEATH(TptTree{tiny}, "HPM_CHECK");
  TptTree::Options inconsistent;
  inconsistent.max_node_entries = 8;
  inconsistent.min_node_entries = 6;  // 2*min > max+1.
  EXPECT_DEATH(TptTree{inconsistent}, "HPM_CHECK");
}

/// The central correctness property (paper §V-C): TPT search returns
/// exactly the patterns whose key Intersects the query — the same set a
/// brute-force scan finds — for both search modes, across tree shapes.
class TptSearchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TptSearchEquivalenceTest, MatchesBruteForce) {
  const auto [num_patterns, max_entries] = GetParam();
  const uint64_t seed = proptest::SeedForTest(static_cast<uint64_t>(num_patterns * 31 + max_entries));
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  TptTree::Options options;
  options.max_node_entries = max_entries;
  options.min_node_entries = std::max(2, max_entries * 2 / 5);
  TptTree tree(options);
  BruteForceStore brute;

  const size_t premise_len = 40;
  const size_t cons_len = 12;
  for (int i = 0; i < num_patterns; ++i) {
    const PatternKey key = RandomKey(&rng, premise_len, cons_len, 0.08);
    ASSERT_TRUE(tree.Insert(MakePattern(key, i)).ok());
    ASSERT_TRUE(brute.Insert(MakePattern(key, i)).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());

  for (int q = 0; q < 40; ++q) {
    PatternKey query(premise_len, cons_len);
    for (size_t i = 0; i < premise_len; ++i) {
      if (rng.Bernoulli(0.1)) query.mutable_premise().Set(i);
    }
    for (size_t i = 0; i < cons_len; ++i) {
      if (rng.Bernoulli(0.15)) query.mutable_consequence().Set(i);
    }
    for (const SearchMode mode : {SearchMode::kPremiseAndConsequence,
                                  SearchMode::kConsequenceOnly}) {
      EXPECT_EQ(Ids(tree.Search(query, mode)),
                Ids(brute.Search(query, mode)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TptSearchEquivalenceTest,
    ::testing::Combine(::testing::Values(10, 100, 1000),
                       ::testing::Values(4, 8, 32)));

TEST(TptTreeTest, SearchStatsPruneVersusBrute) {
  const uint64_t seed = proptest::SeedForTest(6);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  TptTree tree;
  for (int i = 0; i < 2000; ++i) {
    // Clustered keys: premise bits localised so subtrees separate well.
    PatternKey key(128, 16);
    const size_t base = (static_cast<size_t>(i) % 8) * 16;
    key.mutable_premise().Set(base + rng.Uniform(16));
    key.mutable_consequence().Set((static_cast<size_t>(i) % 8) * 2);
    ASSERT_TRUE(tree.Insert(MakePattern(key, i)).ok());
  }
  PatternKey query(128, 16);
  query.mutable_premise().Set(3);
  query.mutable_consequence().Set(0);
  TptSearchStats stats;
  (void)tree.Search(query, SearchMode::kPremiseAndConsequence, &stats);
  // The signature tree must prune: far fewer entry tests than patterns.
  EXPECT_LT(stats.entries_tested, 2000u);
  EXPECT_GT(stats.nodes_visited, 0u);
}

}  // namespace
}  // namespace hpm
