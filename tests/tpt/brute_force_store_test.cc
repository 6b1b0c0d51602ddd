#include "tpt_reference/brute_force_store.h"

#include <gtest/gtest.h>

namespace hpm {
namespace {

PatternKey Key(const std::string& consequence, const std::string& premise) {
  return PatternKey(DynamicBitset::FromString(premise),
                    DynamicBitset::FromString(consequence));
}

IndexedPattern MakePattern(PatternKey key, int id, double conf = 0.5) {
  IndexedPattern p;
  p.key = std::move(key);
  p.confidence = conf;
  p.consequence_region = id;
  p.pattern_id = id;
  return p;
}

TEST(BruteForceStoreTest, EmptySearch) {
  BruteForceStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(
      store.Search(Key("1", "1"), SearchMode::kPremiseAndConsequence)
          .empty());
}

TEST(BruteForceStoreTest, InsertAndSearchBothModes) {
  BruteForceStore store;
  ASSERT_TRUE(store.Insert(MakePattern(Key("10", "0011"), 0)).ok());
  ASSERT_TRUE(store.Insert(MakePattern(Key("01", "1100"), 1)).ok());
  EXPECT_EQ(store.size(), 2u);

  const auto both = store.Search(Key("10", "0001"),
                                 SearchMode::kPremiseAndConsequence);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0]->pattern_id, 0);

  const auto cons_only =
      store.Search(Key("01", "0001"), SearchMode::kConsequenceOnly);
  ASSERT_EQ(cons_only.size(), 1u);
  EXPECT_EQ(cons_only[0]->pattern_id, 1);
}

TEST(BruteForceStoreTest, MismatchedLengthsRejected) {
  BruteForceStore store;
  ASSERT_TRUE(store.Insert(MakePattern(Key("10", "0011"), 0)).ok());
  EXPECT_EQ(store.Insert(MakePattern(Key("100", "0011"), 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Insert(MakePattern(Key("10", "00111"), 2)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BruteForceStoreTest, StatsCountEveryEntry) {
  BruteForceStore store;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(store.Insert(MakePattern(Key("10", "0011"), i)).ok());
  }
  TptSearchStats stats;
  (void)store.Search(Key("01", "0100"),
                     SearchMode::kPremiseAndConsequence, &stats);
  EXPECT_EQ(stats.entries_tested, 25u);
}

TEST(BruteForceStoreTest, MemoryBytesGrowsWithInserts) {
  BruteForceStore store;
  const size_t empty = store.MemoryBytes();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Insert(MakePattern(Key("10", "0011"), i)).ok());
  }
  EXPECT_GT(store.MemoryBytes(), empty);
}

}  // namespace
}  // namespace hpm
