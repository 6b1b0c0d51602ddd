#include "proptest/generators.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace hpm {
namespace proptest {

namespace {

/// Reflects `v` into [lo, hi] (one bounce is enough for steps smaller
/// than the extent).
double Reflect(double v, double lo, double hi) {
  if (v < lo) v = lo + (lo - v);
  if (v > hi) v = hi - (v - hi);
  return std::clamp(v, lo, hi);
}

}  // namespace

Point RandomPoint(Random& rng, const BoundingBox& extent) {
  HPM_CHECK(!extent.IsEmpty());
  return {rng.UniformDouble(extent.min().x, extent.max().x),
          rng.UniformDouble(extent.min().y, extent.max().y)};
}

BoundingBox RandomBox(Random& rng, const BoundingBox& extent) {
  return BoundingBox(RandomPoint(rng, extent), RandomPoint(rng, extent));
}

Trajectory RandomWalk(Random& rng, size_t n, const BoundingBox& extent,
                      double max_step) {
  Trajectory out;
  Point p = RandomPoint(rng, extent);
  for (size_t i = 0; i < n; ++i) {
    out.Append(p);
    p.x = Reflect(p.x + rng.UniformDouble(-max_step, max_step),
                  extent.min().x, extent.max().x);
    p.y = Reflect(p.y + rng.UniformDouble(-max_step, max_step),
                  extent.min().y, extent.max().y);
  }
  return out;
}

Trajectory LinearTrack(Random& rng, size_t n, const BoundingBox& extent,
                       Timestamp horizon) {
  HPM_CHECK(n >= 1);
  const Point start = RandomPoint(rng, extent);
  // The farthest extrapolated timestamp the caller may ask about.
  const double reach = static_cast<double>(n - 1 + horizon);
  const double span_x = extent.max().x - extent.min().x;
  const double span_y = extent.max().y - extent.min().y;
  // Velocity bounded so start + v * reach cannot leave the extent in
  // either direction; direction is then re-rolled freely.
  const double vx_cap =
      reach > 0 ? std::min(start.x - extent.min().x,
                           extent.max().x - start.x) / reach
                : span_x;
  const double vy_cap =
      reach > 0 ? std::min(start.y - extent.min().y,
                           extent.max().y - start.y) / reach
                : span_y;
  const Point velocity = {rng.UniformDouble(-vx_cap, vx_cap),
                          rng.UniformDouble(-vy_cap, vy_cap)};
  Trajectory out;
  for (size_t t = 0; t < n; ++t) {
    out.Append(start + velocity * static_cast<double>(t));
  }
  return out;
}

Trajectory PeriodicHistory(Random& rng, Timestamp period, int periods,
                           const BoundingBox& extent, double noise_stddev) {
  HPM_CHECK(period >= 1 && periods >= 1);
  const double margin = 6.0 * noise_stddev;
  BoundingBox inner(
      {extent.min().x + margin, extent.min().y + margin},
      {std::max(extent.min().x + margin, extent.max().x - margin),
       std::max(extent.min().y + margin, extent.max().y - margin)});
  std::vector<Point> route;
  route.reserve(static_cast<size_t>(period));
  for (Timestamp t = 0; t < period; ++t) {
    route.push_back(RandomPoint(rng, inner));
  }
  Trajectory out;
  for (int d = 0; d < periods; ++d) {
    for (Timestamp t = 0; t < period; ++t) {
      Point p = route[static_cast<size_t>(t)];
      p.x += rng.Gaussian(0.0, noise_stddev);
      p.y += rng.Gaussian(0.0, noise_stddev);
      out.Append(p);
    }
  }
  return out;
}

DynamicBitset RandomBitset(Random& rng, size_t size, double density) {
  DynamicBitset bits(size);
  for (size_t i = 0; i < size; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

PatternKey RandomPatternKey(Random& rng, size_t premise_length,
                            size_t consequence_length, double density) {
  HPM_CHECK(premise_length >= 1 && consequence_length >= 1);
  DynamicBitset premise = RandomBitset(rng, premise_length, density);
  DynamicBitset consequence =
      RandomBitset(rng, consequence_length, density);
  premise.Set(rng.Uniform(premise_length));
  consequence.Set(rng.Uniform(consequence_length));
  return PatternKey(std::move(premise), std::move(consequence));
}

Matrix RandomMatrix(Random& rng, size_t rows, size_t cols, double lo,
                    double hi) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.UniformDouble(lo, hi);
    }
  }
  return m;
}

Matrix RandomWellConditionedMatrix(Random& rng, size_t n) {
  Matrix m = RandomMatrix(rng, n, n, -1.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    m(i, i) += static_cast<double>(n);
  }
  return m;
}

}  // namespace proptest
}  // namespace hpm
