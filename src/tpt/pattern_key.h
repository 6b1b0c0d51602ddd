// Pattern keys: the bit-signature encoding of trajectory patterns that
// the Trajectory Pattern Tree indexes (paper §V-A).
//
// A pattern key is the concatenation of a consequence key (one bit per
// consequence time offset in use) and a premise key (one bit per frequent
// region, position = region id, hash 2^id). The paper prints keys with
// the consequence key first (most significant); ToString follows that.

#ifndef HPM_TPT_PATTERN_KEY_H_
#define HPM_TPT_PATTERN_KEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitset/dynamic_bitset.h"

namespace hpm {

/// Bit signature of one trajectory pattern (or of a query).
///
/// The two parts are kept as separate bitmaps because the Intersect
/// operation — the workhorse of both insertion and search — requires
/// common '1's on *both* parts independently.
class PatternKey {
 public:
  PatternKey() = default;

  /// Creates an all-zero key with the given part lengths.
  PatternKey(size_t premise_length, size_t consequence_length);

  /// Builds from explicit parts (sizes may differ between keys only if
  /// they belong to different key tables; all keys in one TPT share
  /// lengths).
  PatternKey(DynamicBitset premise, DynamicBitset consequence);

  const DynamicBitset& premise() const { return premise_; }
  const DynamicBitset& consequence() const { return consequence_; }
  DynamicBitset& mutable_premise() { return premise_; }
  DynamicBitset& mutable_consequence() { return consequence_; }

  /// Number of '1's over both parts — the paper's Size(pk).
  size_t Size() const;

  /// Bitwise OR of both parts — the paper's Union. Precondition: equal
  /// part lengths.
  void UnionWith(const PatternKey& other);

  /// True if this key's '1's are a superset of `other`'s on both parts —
  /// the paper's Contain(pk1, pk2) with pk1 = *this.
  bool ContainsKey(const PatternKey& other) const;

  /// Number of '1's set here but absent in `other` —
  /// Difference(pk1, pk2) = Size(pk1 XOR (pk1 AND pk2)).
  size_t DifferenceFrom(const PatternKey& other) const;

  /// True if the keys share at least one '1' on the consequence part AND
  /// at least one '1' on the premise part — the paper's Intersect.
  bool Intersects(const PatternKey& other) const;

  /// Intersect relaxed to the consequence part only; used by BQP, which
  /// gives up the premise constraint (paper §VI-C).
  bool IntersectsConsequence(const PatternKey& other) const;

  bool operator==(const PatternKey& other) const;
  bool operator!=(const PatternKey& other) const {
    return !(*this == other);
  }

  /// Consequence bits then premise bits, most significant first — the
  /// paper's printed form (e.g. "1000011").
  std::string ToString() const;

  /// Heap bytes held by the two bitmaps (Fig. 11a storage accounting).
  size_t MemoryBytes() const;

 private:
  DynamicBitset premise_;
  DynamicBitset consequence_;
};

/// A model's pattern keys in one flat word array, laid out as the
/// FrozenTpt arena lays out its leaf blocks: key i occupies words
/// [i * stride(), (i + 1) * stride()), its consequence words first, then
/// its premise words, with every bit past a part's width zero. This is
/// what KeyTables::EncodePatterns writes and FrozenTpt::Pack reads, so a
/// model's keys are encoded without one allocation per pattern.
struct KeyBlocks {
  size_t premise_bits = 0;
  size_t consequence_bits = 0;
  std::vector<uint64_t> words;

  size_t premise_words() const { return (premise_bits + 63) / 64; }
  size_t consequence_words() const { return (consequence_bits + 63) / 64; }
  size_t stride() const { return consequence_words() + premise_words(); }

  /// Key i's block. Precondition: the array holds more than i blocks.
  const uint64_t* block(size_t i) const { return words.data() + i * stride(); }

  /// Key i as a PatternKey. Allocates: for tests and checks, not for a
  /// model build.
  PatternKey Key(size_t i) const;
};

}  // namespace hpm

#endif  // HPM_TPT_PATTERN_KEY_H_
