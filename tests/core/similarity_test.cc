#include "core/similarity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "proptest/generators.h"

namespace hpm {
namespace {

DynamicBitset Bits(const std::string& s) {
  return DynamicBitset::FromString(s);
}

TEST(WeightFunctionTest, Names) {
  EXPECT_STREQ(WeightFunctionName(WeightFunction::kLinear), "linear");
  EXPECT_STREQ(WeightFunctionName(WeightFunction::kQuadratic), "quadratic");
  EXPECT_STREQ(WeightFunctionName(WeightFunction::kExponential),
               "exponential");
  EXPECT_STREQ(WeightFunctionName(WeightFunction::kFactorial), "factorial");
}

TEST(PositionWeightTest, LinearWeightsMatchPaper) {
  // §VI-A: for premise key 00011 (2 ones), linear weights are 1/3, 2/3.
  EXPECT_NEAR(PositionWeight(WeightFunction::kLinear, 1, 2), 1.0 / 3, 1e-12);
  EXPECT_NEAR(PositionWeight(WeightFunction::kLinear, 2, 2), 2.0 / 3, 1e-12);
}

TEST(PositionWeightTest, QuadraticWeights) {
  // f(i) = i^2; size 3: 1/14, 4/14, 9/14.
  EXPECT_NEAR(PositionWeight(WeightFunction::kQuadratic, 1, 3), 1.0 / 14,
              1e-12);
  EXPECT_NEAR(PositionWeight(WeightFunction::kQuadratic, 3, 3), 9.0 / 14,
              1e-12);
}

TEST(PositionWeightTest, ExponentialWeights) {
  // f(i) = 2^i; size 2: 2/6, 4/6.
  EXPECT_NEAR(PositionWeight(WeightFunction::kExponential, 1, 2), 2.0 / 6,
              1e-12);
  EXPECT_NEAR(PositionWeight(WeightFunction::kExponential, 2, 2), 4.0 / 6,
              1e-12);
}

TEST(PositionWeightTest, FactorialWeights) {
  // f(i) = i!; size 3: 1/9, 2/9, 6/9.
  EXPECT_NEAR(PositionWeight(WeightFunction::kFactorial, 1, 3), 1.0 / 9,
              1e-12);
  EXPECT_NEAR(PositionWeight(WeightFunction::kFactorial, 3, 3), 6.0 / 9,
              1e-12);
}

class WeightSumTest : public ::testing::TestWithParam<WeightFunction> {};

TEST_P(WeightSumTest, WeightsSumToOneAndIncrease) {
  const WeightFunction fn = GetParam();
  for (int size = 1; size <= 8; ++size) {
    double sum = 0.0;
    double prev = 0.0;
    for (int i = 1; i <= size; ++i) {
      const double w = PositionWeight(fn, i, size);
      EXPECT_GT(w, 0.0);
      // Property 1 + §VI-A: later positions weigh at least as much.
      EXPECT_GE(w, prev);
      prev = w;
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, WeightSumTest,
                         ::testing::Values(WeightFunction::kLinear,
                                           WeightFunction::kQuadratic,
                                           WeightFunction::kExponential,
                                           WeightFunction::kFactorial));

TEST(PremiseSimilarityTest, PaperExamples) {
  // §VI-A: Sr(00011, 00011) = 1; Sr(00011, 00010) = 2/3 (linear).
  EXPECT_NEAR(
      PremiseSimilarity(Bits("00011"), Bits("00011"), WeightFunction::kLinear),
      1.0, 1e-12);
  EXPECT_NEAR(
      PremiseSimilarity(Bits("00011"), Bits("00010"), WeightFunction::kLinear),
      2.0 / 3, 1e-12);
}

TEST(PremiseSimilarityTest, LowerPositionWorthLess) {
  EXPECT_NEAR(
      PremiseSimilarity(Bits("00011"), Bits("00001"), WeightFunction::kLinear),
      1.0 / 3, 1e-12);
}

TEST(PremiseSimilarityTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(
      PremiseSimilarity(Bits("00011"), Bits("11100"),
                        WeightFunction::kLinear),
      0.0);
}

TEST(PremiseSimilarityTest, EmptyPremiseIsZero) {
  EXPECT_DOUBLE_EQ(
      PremiseSimilarity(Bits("00000"), Bits("11111"),
                        WeightFunction::kLinear),
      0.0);
}

TEST(PremiseSimilarityTest, ExtraQueryBitsDoNotIncreaseSimilarity) {
  // Only rk's bits matter; rkq superset yields exactly 1.
  EXPECT_NEAR(PremiseSimilarity(Bits("00011"), Bits("11111"),
                                WeightFunction::kQuadratic),
              1.0, 1e-12);
}

TEST(PremiseSimilarityTest, WeightsAssignedByRankAmongSetBits) {
  // rk = 10100: its two '1's are at bit positions 2 and 4; ranks 1 and 2.
  // Query matching only bit 4 gets the rank-2 weight 2/3.
  EXPECT_NEAR(PremiseSimilarity(Bits("10100"), Bits("10000"),
                                WeightFunction::kLinear),
              2.0 / 3, 1e-12);
  EXPECT_NEAR(PremiseSimilarity(Bits("10100"), Bits("00100"),
                                WeightFunction::kLinear),
              1.0 / 3, 1e-12);
}

TEST(PremiseSimilarityTest, BoundedInUnitInterval) {
  for (const auto fn :
       {WeightFunction::kLinear, WeightFunction::kQuadratic,
        WeightFunction::kExponential, WeightFunction::kFactorial}) {
    const double s =
        PremiseSimilarity(Bits("110101"), Bits("010001"), fn);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

/// The list-based form of Equation 1 PremiseSimilarity replaced: collect
/// rk's set positions, then add PositionWeight(i) for each one rkq shares,
/// in ascending position order. Kept as the oracle for the in-place walk.
double ReferencePremiseSimilarity(const DynamicBitset& rk,
                                  const DynamicBitset& rkq,
                                  WeightFunction fn) {
  const std::vector<size_t> bits = rk.SetBits();
  if (bits.empty()) return 0.0;
  const int size = static_cast<int>(bits.size());
  double similarity = 0.0;
  for (int i = 1; i <= size; ++i) {
    if (rkq.Test(bits[static_cast<size_t>(i - 1)])) {
      similarity += PositionWeight(fn, i, size);
    }
  }
  return similarity;
}

TEST(PremiseSimilarityTest, BitIdenticalToSetBitsReferenceOnMultiWordKeys) {
  // Premise keys longer than one 64-bit word, every weight family, and
  // query keys from empty through sparse to a superset of rk. At most 168
  // bits keep the factorial weights finite (171! overflows a double).
  Random rng(20260417);
  for (const auto fn :
       {WeightFunction::kLinear, WeightFunction::kQuadratic,
        WeightFunction::kExponential, WeightFunction::kFactorial}) {
    for (int trial = 0; trial < 400; ++trial) {
      const size_t length = static_cast<size_t>(rng.UniformInt(65, 168));
      const DynamicBitset rk =
          proptest::RandomBitset(rng, length, rng.UniformDouble(0.0, 0.6));
      DynamicBitset rkq =
          proptest::RandomBitset(rng, length, rng.UniformDouble(0.0, 0.6));
      if (trial % 4 == 0) rkq |= rk;  // every rk bit shared
      if (trial % 7 == 0) rkq.Reset();  // none shared
      EXPECT_EQ(PremiseSimilarity(rk, rkq, fn),
                ReferencePremiseSimilarity(rk, rkq, fn))
          << WeightFunctionName(fn) << " rk=" << rk.ToString()
          << " rkq=" << rkq.ToString();
    }
  }
}

TEST(PremiseSimilarityTest, BitIdenticalToReferenceAtWordBoundaries) {
  // Set bits on both sides of each word edge, where the walk's rank
  // counter carries from one word into the next.
  for (const size_t length : {64u, 65u, 128u, 129u, 168u}) {
    DynamicBitset rk(length);
    DynamicBitset rkq(length);
    for (size_t pos : {size_t{0}, size_t{62}, size_t{63}, size_t{64},
                       size_t{127}, size_t{128}, size_t{167}}) {
      if (pos >= length) continue;
      rk.Set(pos);
      if (pos % 2 == 1) rkq.Set(pos);
    }
    for (const auto fn :
         {WeightFunction::kLinear, WeightFunction::kQuadratic,
          WeightFunction::kExponential, WeightFunction::kFactorial}) {
      EXPECT_EQ(PremiseSimilarity(rk, rkq, fn),
                ReferencePremiseSimilarity(rk, rkq, fn))
          << WeightFunctionName(fn) << " length " << length;
    }
  }
}

TEST(ConsequenceSimilarityTest, ExactOffsetIsOne) {
  EXPECT_DOUBLE_EQ(ConsequenceSimilarity(10, 10, 2), 1.0);
}

TEST(ConsequenceSimilarityTest, DecaysLinearlyWithDistance) {
  // Equation 3: Sc = 1 - |tq - t| / (t_eps + 1).
  EXPECT_NEAR(ConsequenceSimilarity(9, 10, 2), 1.0 - 1.0 / 3, 1e-12);
  EXPECT_NEAR(ConsequenceSimilarity(12, 10, 2), 1.0 - 2.0 / 3, 1e-12);
  EXPECT_NEAR(ConsequenceSimilarity(13, 10, 2), 0.0, 1e-12);
}

TEST(ConsequenceSimilarityTest, ClampedAtZeroBeyondRelaxation) {
  EXPECT_DOUBLE_EQ(ConsequenceSimilarity(100, 10, 2), 0.0);
}

TEST(ConsequenceSimilarityTest, SymmetricInTimeDistance) {
  EXPECT_DOUBLE_EQ(ConsequenceSimilarity(8, 10, 3),
                   ConsequenceSimilarity(12, 10, 3));
}

TEST(PositionWeightDeathTest, OutOfRangeAborts) {
  EXPECT_DEATH((void)PositionWeight(WeightFunction::kLinear, 0, 3),
               "HPM_CHECK");
  EXPECT_DEATH((void)PositionWeight(WeightFunction::kLinear, 4, 3),
               "HPM_CHECK");
}

}  // namespace
}  // namespace hpm
