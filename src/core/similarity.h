// Similarity measures used to rank candidate patterns (paper §VI-A/C).

#ifndef HPM_CORE_SIMILARITY_H_
#define HPM_CORE_SIMILARITY_H_

#include <cstddef>
#include <cstdint>

#include "bitset/dynamic_bitset.h"
#include "geo/trajectory.h"

namespace hpm {

/// The position-weight family of §VI-A. The i-th '1' of a premise key
/// (counting from the right, 1-based) gets weight f(i) / sum_j f(j); the
/// paper evaluates four choices of f and reports linear and quadratic as
/// the most accurate.
enum class WeightFunction {
  kLinear,       ///< f(i) = i
  kQuadratic,    ///< f(i) = i^2
  kExponential,  ///< f(i) = 2^i
  kFactorial,    ///< f(i) = i!
};

/// Parses/prints a WeightFunction name ("linear", "quadratic",
/// "exponential", "factorial").
const char* WeightFunctionName(WeightFunction fn);

/// Normalised weight of the i-th of `size` set bits (1-based i).
/// Preconditions: 1 <= i <= size.
double PositionWeight(WeightFunction fn, int i, int size);

/// Premise similarity Sr (Equation 1): the sum of the weights of the
/// '1's in the pattern premise key `rk` that also appear in the query
/// premise key `rkq`. Weights are assigned to rk's set bits in ascending
/// position order — Property 1 guarantees higher positions are closer to
/// the consequence time. Result in [0, 1]; an empty rk yields 0.
/// Precondition: rk.size() == rkq.size().
double PremiseSimilarity(const DynamicBitset& rk, const DynamicBitset& rkq,
                         WeightFunction fn);

/// The same Sr over word views of `num_words` words each — a premise key
/// read in place from the FrozenTpt arena and the query's premise words.
/// Both must keep bits past the key length clear. The DynamicBitset
/// overload forwards here.
double PremiseSimilarity(const uint64_t* rk, const uint64_t* rkq,
                         size_t num_words, WeightFunction fn);

/// Consequence similarity Sc (Equation 3): 1 - |tq - t| / (t_eps + 1),
/// clamped to [0, 1]. `t` is the pattern's consequence offset, `tq` the
/// query offset, `t_eps` the time relaxation length.
double ConsequenceSimilarity(Timestamp t, Timestamp tq, Timestamp t_eps);

}  // namespace hpm

#endif  // HPM_CORE_SIMILARITY_H_
