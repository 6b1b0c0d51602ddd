// Trajectory Pattern Tree (paper §V): a signature-tree variant indexing
// pattern keys for efficient retrieval of the patterns similar to a
// query's recent movements and query time.
//
// Structure: a dynamic balanced multiway tree. Internal entries carry the
// bitwise OR of every key in their subtree; leaf entries carry a pattern
// key together with the pattern's confidence and its consequence region
// ("region key pointer"). Search descends depth-first, pruning any
// subtree whose union key fails the Intersect test against the query key.

#ifndef HPM_TPT_TPT_TREE_H_
#define HPM_TPT_TPT_TREE_H_

#include <memory>
#include <vector>

#include "common/status.h"
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

/// How query keys are matched during search.
enum class SearchMode {
  /// Paper's Intersect: common '1's required on both premise and
  /// consequence parts (FQP).
  kPremiseAndConsequence,

  /// Common '1's required on the consequence part only; the premise
  /// constraint is given up (BQP, §VI-C).
  kConsequenceOnly,
};

/// Instrumentation collected by a single Search call. The frozen and
/// mutable trees prune identically, so `nodes_visited`/`entries_tested`
/// are layout-independent; `blocks_scanned` counts packed signature
/// blocks fetched from the FrozenTpt key arena and stays 0 on the
/// pointer tree (it is the frozen layout's cost metric).
struct TptSearchStats {
  size_t nodes_visited = 0;
  size_t entries_tested = 0;
  size_t blocks_scanned = 0;
};

/// The Trajectory Pattern Tree — the *mutable builder* form.
///
/// Serving-path searches run against the FrozenTpt arena emitted from a
/// finished tree (frozen_tpt.h); this class owns the dynamic insertion /
/// split machinery, and its Search members remain as the
/// reference implementation the frozen layout is differentially tested
/// against (tests/proptest/prop_tpt_frozen_test.cc).
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

  /// Builds a tree from a batch ("bulk loading" for static historical
  /// data, §V-B). Implemented as sequential insertion, which keeps the
  /// ChooseLeaf similarity grouping identical to the dynamic path.
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

  /// The freezer walks nodes directly to emit the arena layout.
  friend class FrozenTpt;

  Options options_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace hpm

#endif  // HPM_TPT_TPT_TREE_H_
