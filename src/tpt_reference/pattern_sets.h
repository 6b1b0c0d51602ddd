// Random pattern sets for the reference TPT's property suites and
// benches, and FlattenKeys, which lays PatternKeys out as the flat
// KeyBlocks array FrozenTpt::Pack reads.

#ifndef HPM_TPT_REFERENCE_PATTERN_SETS_H_
#define HPM_TPT_REFERENCE_PATTERN_SETS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "tpt/pattern_key.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {

/// `keys` as one KeyBlocks array, block i = keys[i], with the first
/// key's part lengths. InvalidArgument when a key's part lengths differ
/// from the first key's.
StatusOr<KeyBlocks> FlattenKeys(std::span<const PatternKey> keys);

namespace proptest {

/// `count` indexed patterns sharing the given key part lengths, with
/// dense pattern ids 0..count-1, random confidences in (0,1] and
/// consequence regions in [0, premise_length). Keys are drawn by
/// RandomPatternKey (proptest/generators.h).
std::vector<IndexedPattern> RandomPatternSet(Random& rng, int count,
                                             size_t premise_length,
                                             size_t consequence_length,
                                             double density);

}  // namespace proptest
}  // namespace hpm

#endif  // HPM_TPT_REFERENCE_PATTERN_SETS_H_
