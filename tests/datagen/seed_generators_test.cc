#include "datagen/seed_generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

namespace hpm {
namespace {

SeedConfig Config(Timestamp period = 300, uint64_t seed = 5) {
  SeedConfig c;
  c.period = period;
  c.extent = 10000.0;
  c.seed = seed;
  return c;
}

void ExpectInExtent(const std::vector<Point>& pts, double extent) {
  for (const Point& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, extent);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, extent);
  }
}

double MaxStep(const std::vector<Point>& pts) {
  double max_step = 0.0;
  for (size_t i = 1; i < pts.size(); ++i) {
    max_step = std::max(max_step, Distance(pts[i - 1], pts[i]));
  }
  return max_step;
}

double PathLength(const std::vector<Point>& pts) {
  double len = 0.0;
  for (size_t i = 1; i < pts.size(); ++i) {
    len += Distance(pts[i - 1], pts[i]);
  }
  return len;
}

TEST(ResampleUniformTest, EndpointsPreservedAndSpacingUniform) {
  const std::vector<Point> line = {{0, 0}, {10, 0}, {10, 10}};
  const auto samples = ResampleUniform(line, 21);
  ASSERT_EQ(samples.size(), 21u);
  EXPECT_LT(Distance(samples.front(), {0, 0}), 1e-9);
  EXPECT_LT(Distance(samples.back(), {10, 10}), 1e-9);
  const double step = PathLength(line) / 20.0;
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_NEAR(Distance(samples[i - 1], samples[i]), step, 1e-6);
  }
}

TEST(ResampleUniformTest, DegeneratePolylineRepeatsPoint) {
  const std::vector<Point> still = {{5, 5}, {5, 5}};
  const auto samples = ResampleUniform(still, 10);
  ASSERT_EQ(samples.size(), 10u);
  for (const Point& p : samples) EXPECT_EQ(p, Point(5, 5));
}

// A generator paired with its kind name. The name is what gtest prints
// for the parameter, and so what ctest discovery puts in the case name;
// the default would print the function address, which changes with every
// load of the binary and so renames the cases from run to run.
struct SeedKind {
  const char* name;
  std::vector<Point> (*make)(const SeedConfig&);
};

void PrintTo(const SeedKind& kind, std::ostream* os) { *os << kind.name; }

class SeedGeneratorTest : public ::testing::TestWithParam<SeedKind> {};

TEST_P(SeedGeneratorTest, ProducesPeriodPointsInsideExtent) {
  const auto make = GetParam().make;
  const auto seed = make(Config(300));
  EXPECT_EQ(seed.size(), 300u);
  ExpectInExtent(seed, 10000.0);
}

TEST_P(SeedGeneratorTest, DeterministicGivenSeed) {
  const auto make = GetParam().make;
  const auto a = make(Config(100, 9));
  const auto b = make(Config(100, 9));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_P(SeedGeneratorTest, DifferentSeedsDiffer) {
  const auto make = GetParam().make;
  const auto a = make(Config(100, 1));
  const auto b = make(Config(100, 2));
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += Distance(a[i], b[i]);
  EXPECT_GT(total / static_cast<double>(a.size()), 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SeedGeneratorTest,
    ::testing::Values(SeedKind{"Bike", &MakeBikeSeed},
                      SeedKind{"Cow", &MakeCowSeed},
                      SeedKind{"Car", &MakeCarSeed},
                      SeedKind{"Airplane", &MakeAirplaneSeed}));

TEST(SeedCharacterTest, CowMovesSlowest) {
  const auto cow = MakeCowSeed(Config());
  const auto plane = MakeAirplaneSeed(Config());
  EXPECT_LT(PathLength(cow), PathLength(plane));
}

TEST(SeedCharacterTest, CarFollowsAxisAlignedRoads) {
  const auto car = MakeCarSeed(Config());
  // Steps are axis-aligned except where resampling straddles an
  // intersection corner: the diagonal steps are rare.
  int diagonal = 0;
  for (size_t i = 1; i < car.size(); ++i) {
    const double dx = std::fabs(car[i].x - car[i - 1].x);
    const double dy = std::fabs(car[i].y - car[i - 1].y);
    if (std::min(dx, dy) > 1e-6) ++diagonal;
  }
  EXPECT_LT(diagonal, static_cast<int>(car.size()) / 5);
  // And the route turns at least once.
  bool moved_x = false, moved_y = false;
  for (size_t i = 1; i < car.size(); ++i) {
    moved_x |= std::fabs(car[i].x - car[i - 1].x) > 1.0;
    moved_y |= std::fabs(car[i].y - car[i - 1].y) > 1.0;
  }
  EXPECT_TRUE(moved_x);
  EXPECT_TRUE(moved_y);
}

TEST(SeedCharacterTest, AirplaneFliesStraightLegs) {
  const auto plane = MakeAirplaneSeed(Config());
  // Count direction changes above 20 degrees: a few leg turns only.
  int turns = 0;
  for (size_t i = 2; i < plane.size(); ++i) {
    const Point v1 = plane[i - 1] - plane[i - 2];
    const Point v2 = plane[i] - plane[i - 1];
    const double n1 = v1.Norm(), n2 = v2.Norm();
    if (n1 < 1e-9 || n2 < 1e-9) continue;
    const double cosine = (v1.x * v2.x + v1.y * v2.y) / (n1 * n2);
    if (cosine < std::cos(20.0 * M_PI / 180.0)) ++turns;
  }
  EXPECT_GE(turns, 1);
  EXPECT_LE(turns, 8);
}

TEST(SeedCharacterTest, BikeStepsAreSmooth) {
  const auto bike = MakeBikeSeed(Config());
  // Uniform resampling: consecutive steps nearly equal.
  const double mean_step =
      PathLength(bike) / static_cast<double>(bike.size() - 1);
  EXPECT_LT(MaxStep(bike), mean_step * 1.5);
}

}  // namespace
}  // namespace hpm
