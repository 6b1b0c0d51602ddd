// Random input generators for the property harness. Every generator is
// a pure function of the Random stream it is handed, so a case seed
// reproduces its inputs bit-for-bit (the contract the `--seed=` replay
// path depends on).

#ifndef HPM_PROPTEST_GENERATORS_H_
#define HPM_PROPTEST_GENERATORS_H_

#include <cstddef>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "common/random.h"
#include "geo/bounding_box.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "linalg/matrix.h"
#include "tpt/pattern_key.h"

namespace hpm {
namespace proptest {

/// Uniform point inside `extent` (must be non-empty).
Point RandomPoint(Random& rng, const BoundingBox& extent);

/// Uniform axis-aligned box with corners inside `extent`.
BoundingBox RandomBox(Random& rng, const BoundingBox& extent);

/// Random walk of `n` samples: uniform start, per-step displacement
/// uniform in [-max_step, max_step]^2, reflected into `extent`.
Trajectory RandomWalk(Random& rng, size_t n, const BoundingBox& extent,
                      double max_step);

/// Exactly-linear track: start + velocity * t for t in [0, n). The
/// start and velocity are chosen so every sample, and the extrapolation
/// up to `horizon` further steps, stays inside `extent`.
Trajectory LinearTrack(Random& rng, size_t n, const BoundingBox& extent,
                       Timestamp horizon);

/// Periodic history: a random per-offset route of length `period` is
/// drawn once, then repeated `periods` times with Gaussian noise of the
/// given stddev — the clusterable input the discovery pipeline expects.
/// The route's waypoints keep `margin` distance from the extent edges so
/// noisy samples stay in range.
Trajectory PeriodicHistory(Random& rng, Timestamp period, int periods,
                           const BoundingBox& extent, double noise_stddev);

/// Bitset of `size` bits where each bit is set with probability
/// `density`.
DynamicBitset RandomBitset(Random& rng, size_t size, double density);

/// Pattern key with the given part lengths; each part gets one
/// guaranteed set bit (as mined patterns and encodable queries have)
/// plus further bits at `density`.
PatternKey RandomPatternKey(Random& rng, size_t premise_length,
                            size_t consequence_length, double density);

/// rows x cols matrix with entries uniform in [lo, hi).
Matrix RandomMatrix(Random& rng, size_t rows, size_t cols, double lo,
                    double hi);

/// n x n diagonally-dominant (hence well-conditioned) matrix: uniform
/// entries in [-1,1) plus n on the diagonal.
Matrix RandomWellConditionedMatrix(Random& rng, size_t n);

}  // namespace proptest
}  // namespace hpm

#endif  // HPM_PROPTEST_GENERATORS_H_
