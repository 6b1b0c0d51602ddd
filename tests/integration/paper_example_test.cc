// The paper's worked "Jane" example (Fig. 3, Tables I-III, §V-C, §VI-B)
// reproduced end to end: five frequent regions, four trajectory
// patterns, their pattern keys, the TPT search for Jane's query, and the
// exact ranking arithmetic of Forward Query Processing.

#include <gtest/gtest.h>

#include <set>

#include "core/similarity.h"
#include "tpt/key_tables.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

/// Table I's five regions: R0^0 (Home, offset 0), R1^0 (City) and R1^1
/// (Shopping centre) at offset 1, R2^0 (Work) and R2^1 (Beach) at
/// offset 2.
FrequentRegionSet JaneRegions() {
  FrequentRegionSet set;
  set.set_period(3);
  struct Spec {
    Timestamp offset;
    Point center;
  };
  const std::vector<Spec> specs = {
      {0, {100, 100}},   // Home.
      {1, {500, 500}},   // City.
      {1, {500, 100}},   // Shopping centre.
      {2, {900, 500}},   // Work place.
      {2, {900, 100}},   // Beach.
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    FrequentRegion r;
    r.id = static_cast<int>(i);
    r.offset = specs[i].offset;
    r.center = specs[i].center;
    r.mbr = BoundingBox(specs[i].center - Point{10, 10},
                        specs[i].center + Point{10, 10});
    r.support = 10;
    set.AddRegion(r);
  }
  return set;
}

/// Fig. 3's four patterns with the paper's confidences.
std::vector<TrajectoryPattern> JanePatterns() {
  return {
      {{0}, 1, 0.9, 9},     // P0: R0 -> R1^0 (city), 0.9.
      {{0}, 2, 0.8, 8},     // P1: R0 -> R1^1 (shopping), 0.8.
      {{0, 1}, 3, 0.5, 5},  // P2: R0 ^ R1^0 -> R2^0 (work), 0.5.
      {{0, 2}, 4, 0.4, 4},  // P3: R0 ^ R1^1 -> R2^1 (beach), 0.4.
  };
}

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    regions_ = JaneRegions();
    patterns_ = JanePatterns();
    tables_ = KeyTables::Build(regions_, std::vector<int>{1, 2, 3, 4});
    keys_ = tables_.EncodePatterns(patterns_, regions_);
    for (size_t i = 0; i < patterns_.size(); ++i) {
      IndexedPattern entry;
      entry.key = keys_.Key(i);
      entry.confidence = patterns_[i].confidence;
      entry.consequence_region = patterns_[i].consequence;
      entry.pattern_id = static_cast<int>(i);
      ASSERT_TRUE(tpt_.Insert(std::move(entry)).ok());
    }
  }
  FrequentRegionSet regions_;
  std::vector<TrajectoryPattern> patterns_;
  KeyTables tables_;
  KeyBlocks keys_;
  TptTree tpt_;
};

TEST_F(PaperExampleTest, TableIRegionKeys) {
  // Region keys are 2^id over 5 regions: 00001, 00010, 00100, 01000,
  // 10000 — equivalently, premise keys of single regions.
  for (int id = 0; id < 5; ++id) {
    DynamicBitset expected(5);
    expected.Set(static_cast<size_t>(id));
    PatternKey q;
    tables_.EncodeQueryIntervalInto({id}, 0, 2, &q);
    EXPECT_EQ(q.premise(), expected);
  }
}

TEST_F(PaperExampleTest, TableIIConsequenceKeys) {
  // Offsets 1 and 2 get time ids 0 and 1: keys 01 and 10.
  EXPECT_EQ(tables_.consequence_key_length(), 2u);
  EXPECT_EQ(tables_.TimeIdForOffset(1), 0);
  EXPECT_EQ(tables_.TimeIdForOffset(2), 1);
}

TEST_F(PaperExampleTest, TableIIIPatternKeys) {
  const std::vector<std::string> expected = {"0100001", "0100001",
                                             "1000011", "1000101"};
  for (size_t i = 0; i < patterns_.size(); ++i) {
    EXPECT_EQ(keys_.Key(i).ToString(), expected[i])
        << "pattern " << i;
  }
}

TEST_F(PaperExampleTest, SectionVIBQueryKeyAndCandidates) {
  // Jane's recent movements are R0^0 and R1^0, tq = 2; the query key is
  // 1000011 and exactly the two offset-2 patterns intersect it (the
  // shadowed entries of Fig. 4).
  PatternKey qkey;
  ASSERT_TRUE(tables_.EncodeQueryInto({0, 1}, 2, &qkey).ok());
  EXPECT_EQ(qkey.ToString(), "1000011");

  const auto hits =
      tpt_.Search(qkey, SearchMode::kPremiseAndConsequence);
  ASSERT_EQ(hits.size(), 2u);
  std::set<int> ids;
  for (const auto* hit : hits) ids.insert(hit->pattern_id);
  EXPECT_EQ(ids, (std::set<int>{2, 3}));
}

TEST_F(PaperExampleTest, SectionVIBRankingArithmetic) {
  // §VI-B: Sp(1000011, 1000011) = 1 x 0.5 = 0.5 and
  // Sp(1000101, 1000011) = 0.33 x 0.4 = 0.132 with the linear weights.
  PatternKey qkey;
  ASSERT_TRUE(tables_.EncodeQueryInto({0, 1}, 2, &qkey).ok());

  const PatternKey p2 = keys_.Key(2);
  const PatternKey p3 = keys_.Key(3);

  const double sr2 = PremiseSimilarity(p2.premise(), qkey.premise(),
                                       WeightFunction::kLinear);
  const double sr3 = PremiseSimilarity(p3.premise(), qkey.premise(),
                                       WeightFunction::kLinear);
  EXPECT_NEAR(sr2, 1.0, 1e-12);
  EXPECT_NEAR(sr3, 1.0 / 3.0, 1e-9);

  const double sp2 = sr2 * patterns_[2].confidence;
  const double sp3 = sr3 * patterns_[3].confidence;
  EXPECT_NEAR(sp2, 0.5, 1e-12);
  EXPECT_NEAR(sp3, 0.132, 2e-3);  // Paper rounds 0.33 x 0.4.
  EXPECT_GT(sp2, sp3);  // Work place outranks beach, as in the paper.
}

TEST_F(PaperExampleTest, TopOneReturnsWorkPlaceCentre) {
  // With k = 1 only the centre of R2^0 (work place) is returned.
  PatternKey qkey;
  ASSERT_TRUE(tables_.EncodeQueryInto({0, 1}, 2, &qkey).ok());
  const auto hits =
      tpt_.Search(qkey, SearchMode::kPremiseAndConsequence);
  const IndexedPattern* best = nullptr;
  double best_score = -1.0;
  for (const auto* hit : hits) {
    const double score =
        PremiseSimilarity(hit->key.premise(), qkey.premise(),
                          WeightFunction::kLinear) *
        hit->confidence;
    if (score > best_score) {
      best_score = score;
      best = hit;
    }
  }
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->consequence_region, 3);  // R2^0, the work place.
  EXPECT_EQ(regions_.Region(best->consequence_region).center,
            Point(900, 500));
}

TEST_F(PaperExampleTest, FigureFourSharedKeysGroupTogether) {
  // P0 and P1 share the key 0100001; a query for offset 1 from R0 finds
  // both patterns (city and shopping centre).
  PatternKey qkey;
  ASSERT_TRUE(tables_.EncodeQueryInto({0}, 1, &qkey).ok());
  EXPECT_EQ(qkey.ToString(), "0100001");
  const auto hits =
      tpt_.Search(qkey, SearchMode::kPremiseAndConsequence);
  std::set<int> ids;
  for (const auto* hit : hits) ids.insert(hit->pattern_id);
  EXPECT_EQ(ids, (std::set<int>{0, 1}));
}

}  // namespace
}  // namespace hpm
