// Brute-force pattern store: the baseline TPT is compared against in the
// paper's Fig. 11(b). Same Search contract as TptTree, implemented as a
// linear scan over a flat pattern array.

#ifndef HPM_TPT_REFERENCE_BRUTE_FORCE_STORE_H_
#define HPM_TPT_REFERENCE_BRUTE_FORCE_STORE_H_

#include <vector>

#include "common/status.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {

/// Flat, unindexed pattern storage.
class BruteForceStore {
 public:
  BruteForceStore() = default;

  /// Adds one pattern (key part lengths must match prior entries).
  Status Insert(IndexedPattern pattern);

  /// Linear scan returning every entry matching `query` under `mode`.
  /// Result pointers remain valid until the next Insert.
  std::vector<const IndexedPattern*> Search(
      const PatternKey& query, SearchMode mode,
      TptSearchStats* stats = nullptr) const;

  size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }

  /// Bytes held by the flat array (for storage comparisons).
  size_t MemoryBytes() const;

 private:
  std::vector<IndexedPattern> patterns_;
};

}  // namespace hpm

#endif  // HPM_TPT_REFERENCE_BRUTE_FORCE_STORE_H_
