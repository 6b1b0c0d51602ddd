#include "tpt_reference/pattern_sets.h"

#include "proptest/generators.h"

namespace hpm {
namespace proptest {

std::vector<IndexedPattern> RandomPatternSet(Random& rng, int count,
                                             size_t premise_length,
                                             size_t consequence_length,
                                             double density) {
  std::vector<IndexedPattern> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    IndexedPattern pattern;
    pattern.key =
        RandomPatternKey(rng, premise_length, consequence_length, density);
    pattern.confidence = rng.UniformDouble(0.05, 1.0);
    pattern.consequence_region =
        static_cast<int>(rng.Uniform(premise_length));
    pattern.pattern_id = i;
    out.push_back(std::move(pattern));
  }
  return out;
}

}  // namespace proptest
}  // namespace hpm
