#include "tpt/pattern_key.h"

#include "bitset/word_ops.h"
#include "common/status.h"

namespace hpm {

PatternKey::PatternKey(size_t premise_length, size_t consequence_length)
    : premise_(premise_length), consequence_(consequence_length) {}

PatternKey::PatternKey(DynamicBitset premise, DynamicBitset consequence)
    : premise_(std::move(premise)), consequence_(std::move(consequence)) {}

size_t PatternKey::Size() const {
  return premise_.Count() + consequence_.Count();
}

void PatternKey::UnionWith(const PatternKey& other) {
  premise_ |= other.premise_;
  consequence_ |= other.consequence_;
}

// The three key-match predicates all reduce to the wordops primitives —
// the same functions the FrozenTpt arena scan calls on its packed
// blocks — so the mutable and frozen matching semantics are one
// implementation, not three near-copies.

bool PatternKey::ContainsKey(const PatternKey& other) const {
  HPM_CHECK(premise_.size() == other.premise_.size() &&
            consequence_.size() == other.consequence_.size());
  return wordops::Contains(premise_.words(), other.premise_.words(),
                           premise_.num_words()) &&
         wordops::Contains(consequence_.words(), other.consequence_.words(),
                           consequence_.num_words());
}

size_t PatternKey::DifferenceFrom(const PatternKey& other) const {
  return premise_.DifferenceCount(other.premise_) +
         consequence_.DifferenceCount(other.consequence_);
}

bool PatternKey::Intersects(const PatternKey& other) const {
  HPM_CHECK(premise_.size() == other.premise_.size() &&
            consequence_.size() == other.consequence_.size());
  return wordops::AnyCommon(consequence_.words(),
                            other.consequence_.words(),
                            consequence_.num_words()) &&
         wordops::AnyCommon(premise_.words(), other.premise_.words(),
                            premise_.num_words());
}

bool PatternKey::IntersectsConsequence(const PatternKey& other) const {
  HPM_CHECK(consequence_.size() == other.consequence_.size());
  return wordops::AnyCommon(consequence_.words(),
                            other.consequence_.words(),
                            consequence_.num_words());
}

bool PatternKey::operator==(const PatternKey& other) const {
  return premise_ == other.premise_ && consequence_ == other.consequence_;
}

std::string PatternKey::ToString() const {
  return consequence_.ToString() + premise_.ToString();
}

size_t PatternKey::MemoryBytes() const {
  return premise_.MemoryBytes() + consequence_.MemoryBytes();
}

PatternKey KeyBlocks::Key(size_t i) const {
  HPM_CHECK((i + 1) * stride() <= words.size());
  const uint64_t* at = block(i);
  return PatternKey(
      DynamicBitset::FromWords(at + consequence_words(), premise_words(),
                               premise_bits),
      DynamicBitset::FromWords(at, consequence_words(), consequence_bits));
}

}  // namespace hpm
