#include "mining/transaction.h"

#include <gtest/gtest.h>

namespace hpm {
namespace {

TEST(TransactionTest, BuildsSortedDistinctItems) {
  const std::vector<RegionVisit> visits = {
      {0, 2}, {1, 0}, {2, 2}, {3, 5}};
  Transaction t(visits, 8);
  EXPECT_EQ(t.items(), (std::vector<int>{0, 2, 5}));
  EXPECT_EQ(t.size(), 3u);
}

TEST(TransactionTest, EmptyVisits) {
  Transaction t({}, 4);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.items().empty());
}

TEST(TransactionTest, BuildTransactionsFromMiningResult) {
  FrequentRegionMiningResult mining;
  mining.region_set.set_period(4);
  for (int i = 0; i < 3; ++i) {
    FrequentRegion r;
    r.id = i;
    r.offset = i;
    r.center = {static_cast<double>(i), 0};
    r.mbr.Extend(r.center);
    r.support = 2;
    mining.region_set.AddRegion(r);
  }
  mining.visits = {{{0, 0}, {1, 1}}, {{2, 2}}, {}};
  const auto transactions = BuildTransactions(mining);
  ASSERT_EQ(transactions.size(), 3u);
  EXPECT_EQ(transactions[0].items(), (std::vector<int>{0, 1}));
  EXPECT_EQ(transactions[1].items(), (std::vector<int>{2}));
  EXPECT_TRUE(transactions[2].empty());
}

class MapMovementsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_.set_period(10);
    // Region 0 at offset 2 around (100, 100); region 1 at offset 3
    // around (200, 200).
    FrequentRegion r0;
    r0.id = 0;
    r0.offset = 2;
    r0.center = {100, 100};
    r0.mbr = BoundingBox({95, 95}, {105, 105});
    r0.support = 5;
    set_.AddRegion(r0);
    FrequentRegion r1;
    r1.id = 1;
    r1.offset = 3;
    r1.center = {200, 200};
    r1.mbr = BoundingBox({195, 195}, {205, 205});
    r1.support = 5;
    set_.AddRegion(r1);
  }
  FrequentRegionSet set_;
};

TEST_F(MapMovementsTest, MatchesByOffsetAndContainment) {
  const std::vector<TimedPoint> recent = {
      {2, {100, 100}},  // In region 0.
      {3, {200, 200}},  // In region 1.
  };
  EXPECT_EQ(MapMovementsToRegions(set_, recent),
            (std::vector<int>{0, 1}));
}

TEST_F(MapMovementsTest, WrongOffsetDoesNotMatch) {
  const std::vector<TimedPoint> recent = {{5, {100, 100}}};
  EXPECT_TRUE(MapMovementsToRegions(set_, recent).empty());
}

TEST_F(MapMovementsTest, TimeWrapsModuloPeriod) {
  // Absolute time 12 has offset 2 in a period of 10.
  const std::vector<TimedPoint> recent = {{12, {100, 100}}};
  EXPECT_EQ(MapMovementsToRegions(set_, recent), std::vector<int>{0});
}

TEST_F(MapMovementsTest, SlackAdmitsNearMisses) {
  const std::vector<TimedPoint> recent = {{2, {108, 100}}};
  EXPECT_TRUE(MapMovementsToRegions(set_, recent, 0.0).empty());
  EXPECT_EQ(MapMovementsToRegions(set_, recent, 5.0),
            std::vector<int>{0});
}

TEST_F(MapMovementsTest, DuplicatesCollapse) {
  const std::vector<TimedPoint> recent = {
      {2, {100, 100}}, {12, {101, 101}}};  // Both map to region 0.
  EXPECT_EQ(MapMovementsToRegions(set_, recent), std::vector<int>{0});
}

TEST(TransactionDeathTest, RegionIdOutOfUniverseAborts) {
  const std::vector<RegionVisit> visits = {{0, 9}};
  EXPECT_DEATH(Transaction(visits, 4), "HPM_CHECK");
}

}  // namespace
}  // namespace hpm
