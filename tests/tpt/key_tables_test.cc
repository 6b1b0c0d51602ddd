#include "tpt/key_tables.h"

#include <gtest/gtest.h>

namespace hpm {
namespace {

/// Region layout of the paper's Fig. 3 / Table I: R0^0 (offset 0),
/// R1^0 and R1^1 (offset 1), R2^0 and R2^1 (offset 2).
FrequentRegionSet PaperRegions() {
  FrequentRegionSet set;
  set.set_period(3);
  const std::vector<Timestamp> offsets = {0, 1, 1, 2, 2};
  for (size_t i = 0; i < offsets.size(); ++i) {
    FrequentRegion r;
    r.id = static_cast<int>(i);
    r.offset = offsets[i];
    r.center = {static_cast<double>(i) * 10, 0};
    r.mbr.Extend(r.center);
    r.support = 5;
    set.AddRegion(r);
  }
  return set;
}

/// The paper's four patterns (Fig. 3): P0: R0->R1^0 (0.9),
/// P1: R0->R1^1 (0.8), P2: R0^R1^0->R2^0 (0.5), P3: R0^R1^1->R2^1 (0.4).
std::vector<TrajectoryPattern> PaperPatterns() {
  std::vector<TrajectoryPattern> out(4);
  out[0] = {{0}, 1, 0.9, 9};
  out[1] = {{0}, 2, 0.8, 8};
  out[2] = {{0, 1}, 3, 0.5, 5};
  out[3] = {{0, 2}, 4, 0.4, 4};
  return out;
}

/// `n` regions over a period of 100, region i at offset i % 100.
FrequentRegionSet ManyRegions(int n) {
  FrequentRegionSet set;
  set.set_period(100);
  for (int i = 0; i < n; ++i) {
    FrequentRegion r;
    r.id = i;
    r.offset = i % 100;
    r.center = {static_cast<double>(i), 0};
    r.mbr.Extend(r.center);
    r.support = 5;
    set.AddRegion(r);
  }
  return set;
}

/// For ManyRegions(n): one pattern concluding at each of regions 1..99
/// that exists, i.e. at every nonzero offset it covers.
std::vector<TrajectoryPattern> PatternsConcludingAtEveryOffset(int n) {
  std::vector<TrajectoryPattern> out;
  for (int id = 1; id < n && id < 100; ++id) out.push_back({{0}, id, 0.5, 5});
  return out;
}

/// KeyTables::Build over the consequence regions of `patterns`.
KeyTables BuildFor(const FrequentRegionSet& regions,
                   const std::vector<TrajectoryPattern>& patterns) {
  std::vector<int> consequences;
  for (const TrajectoryPattern& p : patterns) {
    consequences.push_back(p.consequence);
  }
  return KeyTables::Build(regions, consequences);
}

/// EncodeQueryIntervalInto a fresh key.
PatternKey IntervalKey(const KeyTables& tables, const std::vector<int>& premise,
                       Timestamp lo, Timestamp hi) {
  PatternKey key;
  tables.EncodeQueryIntervalInto(premise, lo, hi, &key);
  return key;
}

class KeyTablesPaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    regions_ = PaperRegions();
    patterns_ = PaperPatterns();
    tables_ = BuildFor(regions_, patterns_);
  }
  FrequentRegionSet regions_;
  std::vector<TrajectoryPattern> patterns_;
  KeyTables tables_;
};

TEST_F(KeyTablesPaperTest, KeyLengthsMatchTables) {
  // Table I: 5 regions -> premise keys of length 5.
  EXPECT_EQ(tables_.premise_key_length(), 5u);
  // Table II: consequences at offsets 1 and 2 -> length 2.
  EXPECT_EQ(tables_.consequence_key_length(), 2u);
  EXPECT_EQ(tables_.consequence_offsets(),
            (std::vector<Timestamp>{1, 2}));
}

TEST_F(KeyTablesPaperTest, TimeIdMapping) {
  EXPECT_EQ(tables_.TimeIdForOffset(1), 0);
  EXPECT_EQ(tables_.TimeIdForOffset(2), 1);
  EXPECT_EQ(tables_.TimeIdForOffset(0), -1);  // No pattern concludes at 0.
  EXPECT_EQ(tables_.OffsetForTimeId(0), 1);
  EXPECT_EQ(tables_.OffsetForTimeId(1), 2);
}

TEST_F(KeyTablesPaperTest, EncodePatternReproducesTableIII) {
  const KeyBlocks keys = tables_.EncodePatterns(patterns_, regions_);
  EXPECT_EQ(keys.premise_bits, 5u);
  EXPECT_EQ(keys.consequence_bits, 2u);
  ASSERT_EQ(keys.words.size(), patterns_.size() * keys.stride());
  EXPECT_EQ(keys.Key(0).ToString(), "0100001");
  EXPECT_EQ(keys.Key(1).ToString(),
            "0100001");  // Same key for both offset-1 consequences.
  EXPECT_EQ(keys.Key(2).ToString(), "1000011");
  EXPECT_EQ(keys.Key(3).ToString(), "1000101");
  // Arena block layout: consequence word, then premise word.
  EXPECT_EQ(keys.block(2)[0], 0b10u);
  EXPECT_EQ(keys.block(2)[1], 0b00011u);
}

TEST_F(KeyTablesPaperTest, EncodeQueryMatchesPaperExample) {
  // §VI-B: Jane's recent movements R0^0 and R1^0, tq = 2 -> 1000011.
  PatternKey q;
  ASSERT_TRUE(tables_.EncodeQueryInto({0, 1}, 2, &q).ok());
  EXPECT_EQ(q.ToString(), "1000011");
}

TEST_F(KeyTablesPaperTest, EncodeQueryUnknownOffsetIsNotFound) {
  PatternKey q;
  EXPECT_EQ(tables_.EncodeQueryInto({0}, 0, &q).code(),
            StatusCode::kNotFound);
}

TEST_F(KeyTablesPaperTest, EncodeQueryIntervalSetsAllCoveredOffsets) {
  const PatternKey k = IntervalKey(tables_, {0}, 1, 2);
  EXPECT_EQ(k.consequence().Count(), 2u);
  const PatternKey only_two = IntervalKey(tables_, {0}, 2, 5);
  EXPECT_EQ(only_two.consequence().Count(), 1u);
  EXPECT_TRUE(only_two.consequence().Test(1));
  const PatternKey none = IntervalKey(tables_, {0}, 5, 9);
  EXPECT_TRUE(none.consequence().None());
}

TEST_F(KeyTablesPaperTest, EncodeQueryIntervalEmptyWhenReversed) {
  const PatternKey k = IntervalKey(tables_, {0}, 3, 1);
  EXPECT_TRUE(k.consequence().None());
}

TEST(KeyTablesTest, EmptyPatternsGiveEmptyConsequenceTable) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, {});
  EXPECT_EQ(tables.consequence_key_length(), 0u);
  EXPECT_EQ(tables.premise_key_length(), 5u);
  EXPECT_EQ(tables.TimeIdForOffset(1), -1);
}

TEST(KeyTablesTest, EncodeQueryIntervalOnEmptyTablesHasNoConsequence) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, {});
  const PatternKey k = IntervalKey(tables, {0}, 1, 4);
  EXPECT_TRUE(k.consequence().None());
  EXPECT_TRUE(k.premise().Test(0));
}

TEST(KeyTablesTest, ReusedScratchKeyMatchesAFreshEncoding) {
  // The fan-out path reuses one scratch key across objects whose tables
  // differ in size: each encoding must fully overwrite whatever a
  // larger or smaller previous key left behind.
  const FrequentRegionSet wide_regions = ManyRegions(150);
  const KeyTables wide =
      BuildFor(wide_regions, PatternsConcludingAtEveryOffset(150));
  ASSERT_GT(wide.premise_key_length(), 128u);
  ASSERT_GT(wide.consequence_key_length(), 64u);
  const KeyTables narrow = BuildFor(PaperRegions(), PaperPatterns());

  PatternKey scratch;
  const auto expect_query = [&](const KeyTables& tables,
                                const std::vector<int>& premise,
                                Timestamp offset) {
    PatternKey fresh;
    ASSERT_TRUE(tables.EncodeQueryInto(premise, offset, &fresh).ok());
    ASSERT_TRUE(tables.EncodeQueryInto(premise, offset, &scratch).ok());
    EXPECT_EQ(scratch, fresh) << "premise size " << premise.size();
  };
  const auto expect_interval = [&](const KeyTables& tables,
                                   const std::vector<int>& premise,
                                   Timestamp lo, Timestamp hi) {
    tables.EncodeQueryIntervalInto(premise, lo, hi, &scratch);
    EXPECT_EQ(scratch, IntervalKey(tables, premise, lo, hi))
        << "[" << lo << ", " << hi << "]";
  };

  // Many regions, then few, then many again — through both encoders.
  expect_query(wide, {0, 70, 149}, 80);
  expect_query(narrow, {0, 1}, 2);
  expect_query(wide, {1, 64, 128}, 5);
  expect_interval(wide, {3, 65, 130}, 10, 90);
  expect_interval(narrow, {0}, 1, 2);
  expect_interval(wide, {63, 127}, 60, 70);
  expect_query(narrow, {2}, 1);
  expect_interval(wide, {0}, 99, 1);  // Reversed: no consequence bits.
  expect_query(wide, {149}, 99);
}

TEST(KeyTablesDeathTest, EncodeQueryBadRegionAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = BuildFor(regions, PaperPatterns());
  PatternKey q;
  EXPECT_DEATH((void)tables.EncodeQueryInto({7}, 1, &q), "HPM_CHECK");
}

TEST(KeyTablesDeathTest, EncodeQueryNegativeRegionAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = BuildFor(regions, PaperPatterns());
  PatternKey q;
  EXPECT_DEATH((void)tables.EncodeQueryInto({-1}, 1, &q), "HPM_CHECK");
}

TEST(KeyTablesDeathTest, EncodePatternUnknownConsequenceOffsetAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = BuildFor(regions, PaperPatterns());
  // Region 0 concludes at offset 0, which no pattern's consequence uses,
  // so the consequence-time table has no slot for it.
  const TrajectoryPattern rogue = {{1}, 0, 0.5, 3};
  EXPECT_DEATH((void)tables.EncodePatterns({rogue}, regions), "HPM_CHECK");
}

TEST(KeyTablesDeathTest, OffsetForTimeIdOutOfRangeAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = BuildFor(regions, PaperPatterns());
  EXPECT_DEATH((void)tables.OffsetForTimeId(99), "HPM_CHECK");
  EXPECT_DEATH((void)tables.OffsetForTimeId(-1), "HPM_CHECK");
}

}  // namespace
}  // namespace hpm
