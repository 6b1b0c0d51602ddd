#include "core/similarity.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "bitset/word_ops.h"
#include "common/status.h"

namespace hpm {

const char* WeightFunctionName(WeightFunction fn) {
  switch (fn) {
    case WeightFunction::kLinear:
      return "linear";
    case WeightFunction::kQuadratic:
      return "quadratic";
    case WeightFunction::kExponential:
      return "exponential";
    case WeightFunction::kFactorial:
      return "factorial";
  }
  return "unknown";
}

namespace {

double RawWeight(WeightFunction fn, int i) {
  switch (fn) {
    case WeightFunction::kLinear:
      return static_cast<double>(i);
    case WeightFunction::kQuadratic:
      return static_cast<double>(i) * static_cast<double>(i);
    case WeightFunction::kExponential:
      return std::exp2(static_cast<double>(i));
    case WeightFunction::kFactorial:
      return std::tgamma(static_cast<double>(i) + 1.0);
  }
  return 0.0;
}

}  // namespace

double PositionWeight(WeightFunction fn, int i, int size) {
  HPM_CHECK(i >= 1 && i <= size);
  double total = 0.0;
  for (int j = 1; j <= size; ++j) total += RawWeight(fn, j);
  return RawWeight(fn, i) / total;
}

double PremiseSimilarity(const DynamicBitset& rk, const DynamicBitset& rkq,
                         WeightFunction fn) {
  HPM_CHECK(rk.size() == rkq.size());
  return PremiseSimilarity(rk.words(), rkq.words(), rk.num_words(), fn);
}

double PremiseSimilarity(const uint64_t* rk, const uint64_t* rkq,
                         size_t num_words, WeightFunction fn) {
  const int size = static_cast<int>(wordops::Popcount(rk, num_words));
  if (size == 0) return 0.0;

  double total = 0.0;
  for (int j = 1; j <= size; ++j) total += RawWeight(fn, j);

  // Walk rk's set bits in ascending position, i counting them from 1, and
  // add the weight of each one rkq shares — the same terms in the same
  // order as summing over an explicit list of positions, without
  // building one. A word with no shared bit only advances i.
  double similarity = 0.0;
  int i = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t bits = rk[w];
    if ((bits & rkq[w]) == 0) {
      i += std::popcount(bits);
      continue;
    }
    while (bits != 0) {
      ++i;
      if ((rkq[w] >> std::countr_zero(bits)) & 1) {
        similarity += RawWeight(fn, i) / total;
      }
      bits &= bits - 1;
    }
  }
  return similarity;
}

double ConsequenceSimilarity(Timestamp t, Timestamp tq, Timestamp t_eps) {
  HPM_CHECK(t_eps >= 0);
  const double distance = static_cast<double>(std::llabs(tq - t));
  const double sc = 1.0 - distance / static_cast<double>(t_eps + 1);
  return sc < 0.0 ? 0.0 : sc;
}

}  // namespace hpm
