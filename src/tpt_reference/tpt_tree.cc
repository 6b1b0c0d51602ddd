#include "tpt_reference/tpt_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace hpm {

struct TptTree::Node {
  bool is_leaf = true;

  /// Leaf payload (key lives inside each IndexedPattern).
  std::vector<IndexedPattern> patterns;

  /// Internal payload: union keys parallel to children.
  std::vector<PatternKey> keys;
  std::vector<std::unique_ptr<Node>> children;

  int NumEntries() const {
    return is_leaf ? static_cast<int>(patterns.size())
                   : static_cast<int>(children.size());
  }

  const PatternKey& EntryKey(int i) const {
    return is_leaf ? patterns[static_cast<size_t>(i)].key
                   : keys[static_cast<size_t>(i)];
  }

  /// Union of all entry keys; the node must be non-empty.
  PatternKey UnionKey() const {
    PatternKey u = EntryKey(0);
    for (int i = 1; i < NumEntries(); ++i) u.UnionWith(EntryKey(i));
    return u;
  }
};


TptTree::TptTree() : TptTree(Options{}) {}

TptTree::TptTree(Options options) : options_(options) {
  HPM_CHECK(options_.max_node_entries >= 4);
  HPM_CHECK(options_.min_node_entries >= 2);
  HPM_CHECK(options_.min_node_entries * 2 <= options_.max_node_entries + 1);
  root_ = std::make_unique<Node>();
}

TptTree::~TptTree() = default;
TptTree::TptTree(TptTree&&) noexcept = default;
TptTree& TptTree::operator=(TptTree&&) noexcept = default;

TptTree::Node* TptTree::ChooseLeaf(const PatternKey& key,
                                   std::vector<Node*>* path,
                                   std::vector<int>* entry_indices) const {
  Node* node = root_.get();
  while (!node->is_leaf) {
    const int n = node->NumEntries();
    HPM_CHECK(n > 0);
    int best = -1;
    // (a) Containing entries: choose the smallest Size.
    size_t best_size = std::numeric_limits<size_t>::max();
    for (int i = 0; i < n; ++i) {
      if (node->keys[static_cast<size_t>(i)].ContainsKey(key)) {
        const size_t sz = node->keys[static_cast<size_t>(i)].Size();
        if (sz < best_size) {
          best_size = sz;
          best = i;
        }
      }
    }
    // (b) Intersecting entries: smallest Difference, ties by Size.
    if (best < 0) {
      size_t best_diff = std::numeric_limits<size_t>::max();
      for (int i = 0; i < n; ++i) {
        const PatternKey& ek = node->keys[static_cast<size_t>(i)];
        if (!ek.Intersects(key)) continue;
        const size_t diff = key.DifferenceFrom(ek);
        const size_t sz = ek.Size();
        if (diff < best_diff || (diff == best_diff && sz < best_size)) {
          best_diff = diff;
          best_size = sz;
          best = i;
        }
      }
    }
    // (c) Fallback: smallest Difference over all entries, ties by Size.
    if (best < 0) {
      size_t best_diff = std::numeric_limits<size_t>::max();
      best_size = std::numeric_limits<size_t>::max();
      for (int i = 0; i < n; ++i) {
        const PatternKey& ek = node->keys[static_cast<size_t>(i)];
        const size_t diff = key.DifferenceFrom(ek);
        const size_t sz = ek.Size();
        if (diff < best_diff || (diff == best_diff && sz < best_size)) {
          best_diff = diff;
          best_size = sz;
          best = i;
        }
      }
    }
    HPM_CHECK(best >= 0);
    path->push_back(node);
    entry_indices->push_back(best);
    node = node->children[static_cast<size_t>(best)].get();
  }
  return node;
}

namespace {

/// Symmetric key distance for split-seed picking: bits set in exactly one
/// of the two keys.
size_t KeyDistance(const PatternKey& a, const PatternKey& b) {
  return a.DifferenceFrom(b) + b.DifferenceFrom(a);
}

}  // namespace

std::unique_ptr<TptTree::Node> TptTree::SplitNode(Node* node) {
  const int n = node->NumEntries();
  HPM_CHECK(n > options_.max_node_entries);

  // Quadratic seed pick: the pair of entries with the largest symmetric
  // difference starts the two groups (signature-tree / R-tree idiom).
  int seed_a = 0, seed_b = 1;
  size_t worst = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const size_t d = KeyDistance(node->EntryKey(i), node->EntryKey(j));
      if (d > worst) {
        worst = d;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  PatternKey key_a = node->EntryKey(seed_a);
  PatternKey key_b = node->EntryKey(seed_b);
  std::vector<int> group_a{seed_a}, group_b{seed_b};

  // Assign remaining entries to the group whose union key grows least;
  // once a group must absorb everything left to reach min fill, it does.
  std::vector<int> rest;
  for (int i = 0; i < n; ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(i);
  }
  for (size_t r = 0; r < rest.size(); ++r) {
    const int remaining = static_cast<int>(rest.size() - r);
    const int i = rest[r];
    const PatternKey& ek = node->EntryKey(i);
    bool to_a;
    if (static_cast<int>(group_a.size()) + remaining ==
        options_.min_node_entries) {
      to_a = true;
    } else if (static_cast<int>(group_b.size()) + remaining ==
               options_.min_node_entries) {
      to_a = false;
    } else {
      const size_t grow_a = ek.DifferenceFrom(key_a);
      const size_t grow_b = ek.DifferenceFrom(key_b);
      if (grow_a != grow_b) {
        to_a = grow_a < grow_b;
      } else {
        to_a = group_a.size() <= group_b.size();
      }
    }
    if (to_a) {
      group_a.push_back(i);
      key_a.UnionWith(ek);
    } else {
      group_b.push_back(i);
      key_b.UnionWith(ek);
    }
  }

  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    std::vector<IndexedPattern> kept;
    kept.reserve(group_a.size());
    for (int i : group_a) {
      kept.push_back(std::move(node->patterns[static_cast<size_t>(i)]));
    }
    sibling->patterns.reserve(group_b.size());
    for (int i : group_b) {
      sibling->patterns.push_back(
          std::move(node->patterns[static_cast<size_t>(i)]));
    }
    node->patterns = std::move(kept);
  } else {
    std::vector<PatternKey> kept_keys;
    std::vector<std::unique_ptr<Node>> kept_children;
    kept_keys.reserve(group_a.size());
    kept_children.reserve(group_a.size());
    for (int i : group_a) {
      kept_keys.push_back(std::move(node->keys[static_cast<size_t>(i)]));
      kept_children.push_back(
          std::move(node->children[static_cast<size_t>(i)]));
    }
    sibling->keys.reserve(group_b.size());
    sibling->children.reserve(group_b.size());
    for (int i : group_b) {
      sibling->keys.push_back(std::move(node->keys[static_cast<size_t>(i)]));
      sibling->children.push_back(
          std::move(node->children[static_cast<size_t>(i)]));
    }
    node->keys = std::move(kept_keys);
    node->children = std::move(kept_children);
  }
  return sibling;
}

Status TptTree::Insert(IndexedPattern pattern) {
  // All keys in one tree must agree on part lengths.
  if (size_ > 0) {
    const Node* probe = root_.get();
    const PatternKey& existing = probe->EntryKey(0);
    if (existing.premise().size() != pattern.key.premise().size() ||
        existing.consequence().size() != pattern.key.consequence().size()) {
      return Status::InvalidArgument(
          "pattern key part lengths differ from the tree's");
    }
  }

  std::vector<Node*> path;
  std::vector<int> entry_indices;
  Node* leaf = ChooseLeaf(pattern.key, &path, &entry_indices);
  const PatternKey inserted_key = pattern.key;
  leaf->patterns.push_back(std::move(pattern));
  ++size_;

  // Enlarge the union keys along the path.
  for (size_t level = 0; level < path.size(); ++level) {
    path[level]
        ->keys[static_cast<size_t>(entry_indices[level])]
        .UnionWith(inserted_key);
  }

  // Split upward while nodes overflow.
  Node* node = leaf;
  int level = static_cast<int>(path.size()) - 1;
  while (node->NumEntries() > options_.max_node_entries) {
    std::unique_ptr<Node> sibling = SplitNode(node);
    if (level < 0) {
      // Root split: grow a new root above the two halves.
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->keys.push_back(node->UnionKey());
      new_root->keys.push_back(sibling->UnionKey());
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(sibling));
      root_ = std::move(new_root);
      break;
    }
    Node* parent = path[static_cast<size_t>(level)];
    const int idx = entry_indices[static_cast<size_t>(level)];
    parent->keys[static_cast<size_t>(idx)] = node->UnionKey();
    parent->keys.push_back(sibling->UnionKey());
    parent->children.push_back(std::move(sibling));
    node = parent;
    --level;
  }
  return Status::OK();
}

StatusOr<TptTree> TptTree::BulkLoad(std::vector<IndexedPattern> patterns) {
  return BulkLoad(std::move(patterns), Options{});
}

StatusOr<TptTree> TptTree::BulkLoad(std::vector<IndexedPattern> patterns,
                                    Options options) {
  TptTree tree(options);
  for (IndexedPattern& p : patterns) {
    HPM_RETURN_IF_ERROR(tree.Insert(std::move(p)));
  }
  return tree;
}

void TptTree::SearchNode(const Node* node, const PatternKey& query,
                         SearchMode mode,
                         std::vector<const IndexedPattern*>* out,
                         TptSearchStats* stats) const {
  if (stats != nullptr) ++stats->nodes_visited;
  const auto matches = [&](const PatternKey& key) {
    if (stats != nullptr) ++stats->entries_tested;
    return mode == SearchMode::kPremiseAndConsequence
               ? key.Intersects(query)
               : key.IntersectsConsequence(query);
  };
  if (node->is_leaf) {
    for (const IndexedPattern& p : node->patterns) {
      if (matches(p.key)) out->push_back(&p);
    }
    return;
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    if (matches(node->keys[i])) {
      SearchNode(node->children[i].get(), query, mode, out, stats);
    }
  }
}

std::vector<const IndexedPattern*> TptTree::Search(
    const PatternKey& query, SearchMode mode, TptSearchStats* stats) const {
  std::vector<const IndexedPattern*> out;
  SearchInto(query, mode, &out, stats);
  return out;
}

void TptTree::SearchInto(const PatternKey& query, SearchMode mode,
                         std::vector<const IndexedPattern*>* out,
                         TptSearchStats* stats) const {
  out->clear();
  if (size_ == 0) return;
  SearchNode(root_.get(), query, mode, out, stats);
}

int TptTree::Height() const {
  if (size_ == 0) return 0;
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    ++h;
    node = node->children[0].get();
  }
  return h;
}

namespace {

size_t NodeMemoryBytes(const TptTree::Node* node) {
  size_t bytes = sizeof(TptTree::Node);
  for (const IndexedPattern& p : node->patterns) {
    bytes += sizeof(IndexedPattern) + p.key.MemoryBytes();
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    bytes += sizeof(PatternKey) + node->keys[i].MemoryBytes();
    bytes += sizeof(std::unique_ptr<TptTree::Node>);
    bytes += NodeMemoryBytes(node->children[i].get());
  }
  return bytes;
}

}  // namespace

size_t TptTree::MemoryBytes() const {
  return sizeof(TptTree) + NodeMemoryBytes(root_.get());
}

namespace {

Status CheckNode(const TptTree::Node* node, bool is_root, int min_entries,
                 int max_entries, int depth, int* leaf_depth) {
  const int n = node->NumEntries();
  if (n > max_entries) return Status::Internal("node overflow");
  if (!is_root && n < min_entries) return Status::Internal("node underflow");
  if (node->is_leaf) {
    if (!node->keys.empty() || !node->children.empty()) {
      return Status::Internal("leaf node has internal payload");
    }
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at different depths");
    }
    return Status::OK();
  }
  if (!node->patterns.empty()) {
    return Status::Internal("internal node has leaf payload");
  }
  if (node->keys.size() != node->children.size()) {
    return Status::Internal("keys/children size mismatch");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const TptTree::Node* child = node->children[i].get();
    // The parent entry key must equal the union of the child's keys.
    if (!(node->keys[i] == child->UnionKey())) {
      return Status::Internal("internal entry key != union of subtree");
    }
    HPM_RETURN_IF_ERROR(CheckNode(child, false, min_entries, max_entries,
                                  depth + 1, leaf_depth));
  }
  return Status::OK();
}

}  // namespace

Status TptTree::CheckInvariants() const {
  if (size_ == 0) return Status::OK();
  int leaf_depth = -1;
  return CheckNode(root_.get(), true, options_.min_node_entries,
                   options_.max_node_entries, 0, &leaf_depth);
}

namespace {

void CountSubtree(const TptTree::Node* node, size_t* num_nodes,
                  size_t* num_entries) {
  ++*num_nodes;
  *num_entries += static_cast<size_t>(node->NumEntries());
  if (node->is_leaf) return;
  for (const auto& child : node->children) {
    CountSubtree(child.get(), num_nodes, num_entries);
  }
}

}  // namespace

FrozenTpt TptTree::Freeze() const {
  FrozenTpt frozen;
  if (size_ == 0) return frozen;

  const Node* root = root_.get();
  const PatternKey& first = root->EntryKey(0);
  frozen.premise_bits_ = first.premise().size();
  frozen.consequence_bits_ = first.consequence().size();
  frozen.premise_words_ =
      static_cast<uint32_t>(first.premise().num_words());
  frozen.consequence_words_ =
      static_cast<uint32_t>(first.consequence().num_words());
  frozen.height_ = Height();

  size_t num_nodes = 0, num_entries = 0;
  CountSubtree(root, &num_nodes, &num_entries);
  frozen.nodes_.reserve(num_nodes);
  frozen.entry_target_.resize(num_entries);
  frozen.key_words_ = AlignedWordArena(num_entries * frozen.Stride());
  frozen.payloads_.reserve(size_);

  // DFS preorder, children in entry order — the exact order SearchNode
  // visits, so frozen hits come out in the pointer tree's order.
  size_t entry_cursor = 0;
  const auto emit = [&](const auto& self, const Node* node) -> uint32_t {
    const uint32_t index = static_cast<uint32_t>(frozen.nodes_.size());
    const uint32_t n = static_cast<uint32_t>(node->NumEntries());
    const uint32_t first_entry = static_cast<uint32_t>(entry_cursor);
    frozen.nodes_.push_back(
        FrozenTpt::NodeRef{first_entry, n, node->is_leaf ? 1u : 0u});
    entry_cursor += n;

    const size_t stride = frozen.Stride();
    for (uint32_t i = 0; i < n; ++i) {
      const PatternKey& key = node->EntryKey(static_cast<int>(i));
      uint64_t* block =
          frozen.key_words_.data() + (first_entry + i) * stride;
      std::memcpy(block, key.consequence().words(),
                  frozen.consequence_words_ * sizeof(uint64_t));
      std::memcpy(block + frozen.consequence_words_, key.premise().words(),
                  frozen.premise_words_ * sizeof(uint64_t));
    }
    if (node->is_leaf) {
      for (uint32_t i = 0; i < n; ++i) {
        frozen.entry_target_[first_entry + i] =
            static_cast<uint32_t>(frozen.payloads_.size());
        const IndexedPattern& p = node->patterns[i];
        frozen.payloads_.push_back(
            LeafPayload{p.confidence, p.consequence_region, p.pattern_id});
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        frozen.entry_target_[first_entry + i] =
            self(self, node->children[i].get());
      }
    }
    return index;
  };
  emit(emit, root);
  HPM_CHECK(frozen.nodes_.size() == num_nodes);
  HPM_CHECK(entry_cursor == num_entries);
  HPM_CHECK(frozen.payloads_.size() == size_);
  return frozen;
}

}  // namespace hpm
