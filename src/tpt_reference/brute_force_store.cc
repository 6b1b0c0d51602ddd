#include "tpt_reference/brute_force_store.h"

namespace hpm {

Status BruteForceStore::Insert(IndexedPattern pattern) {
  if (!patterns_.empty()) {
    const PatternKey& existing = patterns_.front().key;
    if (existing.premise().size() != pattern.key.premise().size() ||
        existing.consequence().size() != pattern.key.consequence().size()) {
      return Status::InvalidArgument(
          "pattern key part lengths differ from the store's");
    }
  }
  patterns_.push_back(std::move(pattern));
  return Status::OK();
}

std::vector<const IndexedPattern*> BruteForceStore::Search(
    const PatternKey& query, SearchMode mode, TptSearchStats* stats) const {
  std::vector<const IndexedPattern*> out;
  for (const IndexedPattern& p : patterns_) {
    if (stats != nullptr) ++stats->entries_tested;
    const bool match = mode == SearchMode::kPremiseAndConsequence
                           ? p.key.Intersects(query)
                           : p.key.IntersectsConsequence(query);
    if (match) out.push_back(&p);
  }
  return out;
}

size_t BruteForceStore::MemoryBytes() const {
  size_t bytes = sizeof(BruteForceStore);
  for (const IndexedPattern& p : patterns_) {
    bytes += sizeof(IndexedPattern) + p.key.MemoryBytes();
  }
  return bytes;
}

}  // namespace hpm
