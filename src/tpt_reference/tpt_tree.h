// Trajectory Pattern Tree (paper §V) built by the paper's Algorithm 1:
// the reference the packed serving arena (tpt/frozen_tpt.h) is tested
// and benchmarked against. It is not part of the hpm library; tests and
// benches link it from hpm_tpt_reference.
//
// Structure: a dynamic balanced multiway tree. Internal entries carry the
// bitwise OR of every key in their subtree; leaf entries carry a pattern
// key together with the pattern's confidence and its consequence region
// ("region key pointer"). Insert descends by ChooseLeaf and splits an
// overfull node quadratically (§V-A). Search descends depth-first,
// pruning any subtree whose union key fails the Intersect test against
// the query key. Freeze emits the tree's own shape as a FrozenTpt, so
// the arena's search can be compared with the pointer tree's exactly.

#ifndef HPM_TPT_REFERENCE_TPT_TREE_H_
#define HPM_TPT_REFERENCE_TPT_TREE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "tpt/frozen_tpt.h"
#include "tpt/pattern_key.h"

namespace hpm {

/// A leaf entry: <pk, c, p> from the paper plus the id of the source
/// pattern so callers can recover the full rule.
struct IndexedPattern {
  PatternKey key;

  /// Rule confidence c.
  double confidence = 0.0;

  /// Region id of the consequence (the paper's region key pointer p).
  int consequence_region = 0;

  /// Index of the pattern in the miner's output vector.
  int pattern_id = 0;
};

/// The insertion-built Trajectory Pattern Tree.
class TptTree {
 public:
  /// Tree node; defined in the .cc file (opaque to clients).
  struct Node;

  struct Options {
    /// Maximum entries per node before a split.
    int max_node_entries = 32;

    /// Minimum entries per node after a split (~40% fill, R-tree style).
    int min_node_entries = 13;
  };

  /// Creates an empty tree with default options.
  TptTree();

  explicit TptTree(Options options);
  ~TptTree();

  TptTree(TptTree&&) noexcept;
  TptTree& operator=(TptTree&&) noexcept;
  TptTree(const TptTree&) = delete;
  TptTree& operator=(const TptTree&) = delete;

  /// Inserts one pattern. All keys in a tree must share part lengths;
  /// mismatched keys return InvalidArgument.
  Status Insert(IndexedPattern pattern);

  /// Builds a tree from a batch by sequential insertion, in batch order,
  /// so the result is the tree the dynamic path would grow.
  static StatusOr<TptTree> BulkLoad(std::vector<IndexedPattern> patterns);
  static StatusOr<TptTree> BulkLoad(std::vector<IndexedPattern> patterns,
                                    Options options);

  /// All leaf entries whose key matches `query` under `mode`. Pointers
  /// remain valid until the next mutation of the tree.
  std::vector<const IndexedPattern*> Search(
      const PatternKey& query, SearchMode mode,
      TptSearchStats* stats = nullptr) const;

  /// Search writing into a caller-owned vector (cleared first) so hot
  /// paths can reuse one buffer across queries. `stats`, when given,
  /// accumulates rather than resets — callers zero it between queries if
  /// they want per-call numbers.
  void SearchInto(const PatternKey& query, SearchMode mode,
                  std::vector<const IndexedPattern*>* out,
                  TptSearchStats* stats = nullptr) const;

  /// Number of indexed patterns.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tree height (leaf = 1, empty tree = 0).
  int Height() const;

  /// Approximate bytes of memory held by nodes, keys and entries — the
  /// Fig. 11a storage metric.
  size_t MemoryBytes() const;

  /// Structural self-check for tests: uniform leaf depth, fill factors,
  /// and that every internal entry key equals the union of its subtree.
  Status CheckInvariants() const;

  /// The arena of this tree's exact shape: nodes in DFS preorder,
  /// children and entries in tree order, so the arena visits, tests and
  /// emits in the same order as Search. Supports are 0. FrozenTpt names
  /// this class a friend, so Freeze fills the arena's arrays directly.
  FrozenTpt Freeze() const;

 private:
  /// Paper Algorithm 1: descends from the root picking, at each level,
  /// the entry that (a) Contains the key with smallest Size, else
  /// (b) Intersects it with smallest Difference, else (c) has smallest
  /// Difference. Records the path for key adjustment.
  Node* ChooseLeaf(const PatternKey& key, std::vector<Node*>* path,
                   std::vector<int>* entry_indices) const;

  /// Splits an overfull node into two; returns the new sibling.
  std::unique_ptr<Node> SplitNode(Node* node);

  void SearchNode(const Node* node, const PatternKey& query, SearchMode mode,
                  std::vector<const IndexedPattern*>* out,
                  TptSearchStats* stats) const;

  Options options_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace hpm

#endif  // HPM_TPT_REFERENCE_TPT_TREE_H_
