// FrozenTpt: the immutable, arena-backed Trajectory Pattern Tree (paper
// §V) that every published model serves from. It is built once — packed
// from the model's encoded pattern keys, or parsed from a model file —
// and searched for the rest of that model generation's life. It stores
//
//   nodes_        all tree nodes, DFS preorder, 32-bit entry offsets
//                 instead of child pointers
//   entry_target_ per entry: child node index (internal) or leaf payload
//                 index (leaf), 32-bit
//   key_words_    every entry's signature packed into ONE contiguous
//                 64-byte-aligned uint64 arena: entry e occupies
//                 [e*stride, (e+1)*stride) with its consequence words
//                 first, then its premise words
//   payloads_     key-free leaf payloads (confidence, consequence region,
//                 pattern id, support; 24 bytes) in leaf-entry order
//
// so a node's entries are one contiguous block run and the
// Intersect/Contain hot loop is a branch-light word-wise AND+popcount
// scan (wordops primitives — the same functions the PatternKey
// predicates call) with prefetch of the upcoming blocks. A leaf entry's
// key lives only in the arena: a Hit names the entry (its key block) and
// its payload, and the predictor scores premise similarity straight
// from the block's premise words. The arena is the whole pattern side of
// a model: a leaf entry is one trajectory pattern, its premise and
// consequence in the key block and its confidence, consequence region,
// id and support in the payload, so a model file stores the arena and no
// other copy of the patterns.
//
// Pack builds the arena the way a packed R-tree is built (Kamel and
// Faloutsos, CIKM 1993; STR, ICDE 1997), not by the paper's Algorithm 1
// insertion. Its input is one flat KeyBlocks array (tpt/pattern_key.h)
// already in the leaf-block layout above. It sorts block indices by
// comparing the blocks in place — consequence bits, then premise bits,
// then pattern id — copies the blocks into the arena in that order, cuts
// them into ceil(n / capacity) leaves of even size, and cuts each level
// above the same way until one root remains. Sorting on the consequence part first keeps the patterns that
// conclude at one period offset in the same leaves, so a query's single
// consequence bit prunes whole subtrees. The build does not change any
// answer: every internal key is the exact union of its subtree, so a
// query's hit set depends only on the leaf keys, and the predictor ranks
// hits in a total order.
//
// The insertion-built tree is kept outside the library as the reference
// (tpt_reference/tpt_tree.h): prop_tpt_frozen_test proves search over
// its frozen arena identical to the pointer tree's, and
// prop_tpt_pack_test proves a packed arena's hit sets equal to the
// reference's.
//
// The arena has a compact wire form (AppendTo/Parse, CRC-footed) so a
// persisted model reloads by validating bytes instead of rebuilding.

#ifndef HPM_TPT_FROZEN_TPT_H_
#define HPM_TPT_FROZEN_TPT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "tpt/pattern_key.h"

namespace hpm {

class TptTree;

/// How query keys are matched during search.
enum class SearchMode {
  /// Paper's Intersect: common '1's required on both premise and
  /// consequence parts (FQP).
  kPremiseAndConsequence,

  /// Common '1's required on the consequence part only; the premise
  /// constraint is given up (BQP, §VI-C).
  kConsequenceOnly,
};

/// Instrumentation collected by a search. `nodes_visited` and
/// `entries_tested` count its pruning; `blocks_scanned` counts the packed
/// signature blocks it fetched from the key arena (the reference pointer
/// tree, which shares this struct, leaves it 0).
struct TptSearchStats {
  size_t nodes_visited = 0;
  size_t entries_tested = 0;
  size_t blocks_scanned = 0;
};

/// How a model's arena is packed.
struct TptOptions {
  /// Most entries in one node. Pack cuts each level into the fewest
  /// nodes this allows, of even size.
  int max_node_entries = 32;
};

/// A frozen leaf entry's payload: the paper's <c, p> plus the id and
/// support of the source pattern. The key pk is not repeated here; it is
/// the arena block of the leaf entry that names this payload.
struct LeafPayload {
  /// Rule confidence c.
  double confidence = 0.0;

  /// Region id of the consequence (the paper's region key pointer p).
  int32_t consequence_region = 0;

  /// Index of the pattern in the model's pattern table.
  int32_t pattern_id = 0;

  /// Transactions containing premise ∪ consequence.
  int32_t support = 0;
};
static_assert(sizeof(LeafPayload) <= 24, "leaf payload must stay compact");

/// A 64-byte-aligned, heap-allocated uint64 array: the signature block
/// arena. Move-only (the frozen tree itself is move-only).
class AlignedWordArena {
 public:
  AlignedWordArena() = default;

  /// Allocates (zero-filled) room for `num_words` words.
  explicit AlignedWordArena(size_t num_words);

  AlignedWordArena(AlignedWordArena&&) noexcept = default;
  AlignedWordArena& operator=(AlignedWordArena&&) noexcept = default;
  AlignedWordArena(const AlignedWordArena&) = delete;
  AlignedWordArena& operator=(const AlignedWordArena&) = delete;

  uint64_t* data() { return words_.get(); }
  const uint64_t* data() const { return words_.get(); }
  size_t size() const { return size_; }

  /// Bytes actually allocated (size rounded up to the 64-byte line).
  size_t AllocatedBytes() const;

 private:
  struct FreeDeleter {
    void operator()(uint64_t* p) const;
  };
  std::unique_ptr<uint64_t[], FreeDeleter> words_;
  size_t size_ = 0;
};

/// The frozen, scannable TPT generation. Default-constructed = empty
/// (matches an untrained / zero-pattern tree: every search returns
/// nothing and touches no node).
class FrozenTpt {
 public:
  FrozenTpt() = default;

  FrozenTpt(FrozenTpt&&) noexcept = default;
  FrozenTpt& operator=(FrozenTpt&&) noexcept = default;
  FrozenTpt(const FrozenTpt&) = delete;
  FrozenTpt& operator=(const FrozenTpt&) = delete;

  /// The node capacities Pack accepts (and a model file may declare).
  static constexpr int kMinNodeCapacity = 4;
  static constexpr int kMaxNodeCapacity = 1 << 16;

  /// Packs leaf entry i = (key block i of `keys`, payloads[i]) into an
  /// arena whose nodes hold at most `capacity` entries (see the file
  /// comment). The layout is a function of the entries alone, not of
  /// their input order; input whose leading entries are already in leaf
  /// order (a packed arena's leaves in payload order, then new entries)
  /// costs a sort of the rest and a merge. Returns InvalidArgument when
  /// `keys` does not hold exactly one block per payload, a block sets a
  /// bit past its part's width, or `capacity` is outside
  /// [kMinNodeCapacity, kMaxNodeCapacity].
  static StatusOr<FrozenTpt> Pack(const KeyBlocks& keys,
                                  std::span<const LeafPayload> payloads,
                                  int capacity);

  /// One matching leaf entry: `entry` indexes the key arena (its block is
  /// the pattern's key), `payload` the payload array.
  struct Hit {
    uint32_t entry = 0;
    uint32_t payload = 0;
  };

  /// Depth bound: Parse rejects deeper topologies and SearchInto's
  /// fixed frame stack assumes it (a sane tree is logarithmic — 64
  /// levels would need ~2^64 patterns).
  static constexpr int kMaxDepth = 64;

  /// All leaf entries matching `query` under `mode`, in depth-first
  /// (leaf-entry) order.
  std::vector<Hit> Search(const PatternKey& query, SearchMode mode,
                          TptSearchStats* stats = nullptr) const;

  /// Search writing into a caller-owned vector (cleared first); `stats`,
  /// when given, accumulates rather than resets — callers zero it between
  /// queries if they want per-call numbers. One depth-first pass over a
  /// fixed stack of kMaxDepth frames; it allocates only when `out` grows.
  void SearchInto(const PatternKey& query, SearchMode mode,
                  std::vector<Hit>* out,
                  TptSearchStats* stats = nullptr) const;

  /// Number of indexed patterns.
  size_t size() const { return payloads_.size(); }
  bool empty() const { return payloads_.empty(); }

  /// Tree height (leaf = 1, empty = 0).
  int Height() const { return height_; }

  size_t premise_bits() const { return premise_bits_; }
  size_t consequence_bits() const { return consequence_bits_; }

  /// Words in one key block's premise / consequence part.
  size_t num_premise_words() const { return premise_words_; }
  size_t num_consequence_words() const { return consequence_words_; }

  /// Leaf payloads in leaf-entry (DFS) order.
  const std::vector<LeafPayload>& payloads() const { return payloads_; }

  const LeafPayload& payload(const Hit& hit) const {
    return payloads_[hit.payload];
  }

  /// The hit entry's key words in the arena (num_premise_words() /
  /// num_consequence_words() long, zero tail bits).
  const uint64_t* premise_words(const Hit& hit) const {
    return key_words_.data() + hit.entry * Stride() + consequence_words_;
  }
  const uint64_t* consequence_words(const Hit& hit) const {
    return key_words_.data() + hit.entry * Stride();
  }

  /// The hit entry's key as a PatternKey. Allocates: for load-time
  /// verification and tests, not the query path.
  PatternKey KeyOf(const Hit& hit) const;

  /// Every leaf entry, in payload order.
  std::vector<Hit> Leaves() const;

  /// Bytes allocated for the arena, topology arrays and payloads (vector
  /// capacities, the arena rounded to its 64-byte lines) — the
  /// `tpt.frozen_bytes` metric.
  size_t MemoryBytes() const;

  /// Structural self-check for tests: runs the same topology validation
  /// Parse applies to untrusted bytes (entry-run contiguity, payload
  /// sequencing, forward-only child references, uniform leaf depth,
  /// zero tail bits).
  Status CheckInvariants() const;

  /// ---- Wire form ------------------------------------------------------
  /// Appends the self-delimiting serialized arena to `out`: a "FTPT"
  /// header, the topology and payload arrays, the packed key words, and
  /// a trailing CRC32 over the whole section.
  void AppendTo(std::string* out) const;

  /// Parses a section written by AppendTo starting at `data`. On success
  /// `*consumed` is the section's byte length. Structural damage —
  /// truncation, corrupt counts, dangling child/payload indices, dirty
  /// tail bits, a negative support, a CRC mismatch — returns DataLoss
  /// without crashing, so callers can quarantine the source file. What
  /// the payloads mean (region ids, pattern ids, confidences) is the
  /// model loader's to check.
  static StatusOr<FrozenTpt> Parse(const char* data, size_t size,
                                   size_t* consumed);

 private:
  /// The insertion-built reference tree (tpt_reference/tpt_tree.h) fills
  /// the arrays below with its own shape in TptTree::Freeze.
  friend class TptTree;

  struct NodeRef {
    /// First entry in the shared entry arrays; this node's entries are
    /// [first_entry, first_entry + num_entries).
    uint32_t first_entry = 0;
    uint32_t num_entries = 0;
    uint32_t is_leaf = 0;
  };

  /// Words per packed key block (consequence words + premise words).
  size_t Stride() const { return consequence_words_ + premise_words_; }

  /// Validates a parsed topology (see Parse); factored out so tests can
  /// hit each rejection path.
  static Status ValidateTopology(const std::vector<NodeRef>& nodes,
                                 const std::vector<uint32_t>& targets,
                                 size_t num_patterns, int* height);

  /// True when every internal entry's key is exactly the OR of the keys
  /// of the node it points to — the invariant search pruning relies on.
  /// Requires a topology ValidateTopology accepted.
  static bool InternalKeysAreUnions(const std::vector<NodeRef>& nodes,
                                    const std::vector<uint32_t>& targets,
                                    const uint64_t* key_words,
                                    size_t stride);

  std::vector<NodeRef> nodes_;
  std::vector<uint32_t> entry_target_;
  AlignedWordArena key_words_;
  std::vector<LeafPayload> payloads_;
  size_t premise_bits_ = 0;
  size_t consequence_bits_ = 0;
  uint32_t premise_words_ = 0;
  uint32_t consequence_words_ = 0;
  int height_ = 0;
};

}  // namespace hpm

#endif  // HPM_TPT_FROZEN_TPT_H_
