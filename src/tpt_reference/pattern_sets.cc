#include "tpt_reference/pattern_sets.h"

#include "proptest/generators.h"

namespace hpm {

StatusOr<KeyBlocks> FlattenKeys(std::span<const PatternKey> keys) {
  KeyBlocks blocks;
  if (keys.empty()) return blocks;
  blocks.premise_bits = keys[0].premise().size();
  blocks.consequence_bits = keys[0].consequence().size();
  blocks.words.reserve(keys.size() * blocks.stride());
  for (const PatternKey& key : keys) {
    if (key.premise().size() != blocks.premise_bits ||
        key.consequence().size() != blocks.consequence_bits) {
      return Status::InvalidArgument(
          "pattern key part lengths differ from the first key's");
    }
    const uint64_t* consequence = key.consequence().words();
    const uint64_t* premise = key.premise().words();
    blocks.words.insert(blocks.words.end(), consequence,
                        consequence + blocks.consequence_words());
    blocks.words.insert(blocks.words.end(), premise,
                        premise + blocks.premise_words());
  }
  return blocks;
}

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
