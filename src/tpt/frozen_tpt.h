// FrozenTpt: the immutable, arena-backed generation layout of the
// Trajectory Pattern Tree (paper §V), built once from a finished mutable
// TptTree and searched for the rest of that model generation's life.
//
// Why a second representation: every published HybridPredictor is
// immutable after the atomic snapshot swap, yet the mutable tree it
// carried was pointer-chasing — one heap node per tree node, two heap
// word arrays per entry key. The frozen form stores
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
// scan (wordops primitives — the same functions the mutable PatternKey
// predicates call) with prefetch of the upcoming blocks. A leaf entry's
// key lives only in the arena: a Hit names the entry (its key block) and
// its payload, and the predictor scores premise similarity straight
// from the block's premise words. The arena is the whole serving model;
// the pattern table a model file stores is derived from it on save.
//
// Search visits nodes, tests entries, and emits hits in exactly the
// mutable tree's order; prop_tpt_frozen_test proves the results (ids,
// confidences, key words, order) and the TptSearchStats pruning counters
// bit-identical on randomized pattern sets in both SearchModes.
//
// The arena has a compact wire form (AppendTo/Parse, CRC-footed) so a
// persisted model reloads by validating bytes instead of replaying the
// sequential-insert build.

#ifndef HPM_TPT_FROZEN_TPT_H_
#define HPM_TPT_FROZEN_TPT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mining/apriori.h"
#include "tpt/tpt_tree.h"

namespace hpm {

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

  /// Transactions containing premise ∪ consequence. The FTPT section
  /// does not carry it; FillSupports sets it from the pattern table.
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

  /// Emits the arena layout of a finished builder tree. The tree is only
  /// read; the frozen copy shares nothing with it. Supports start at 0.
  static FrozenTpt Freeze(const TptTree& tree);

  /// Sets each payload's support to `table[pattern_id].support`. Call
  /// before the tree is shared. Precondition: every payload's pattern id
  /// indexes `table`.
  void FillSupports(const std::vector<TrajectoryPattern>& table);

  /// One matching leaf entry: `entry` indexes the key arena (its block is
  /// the pattern's key), `payload` the payload array.
  struct Hit {
    uint32_t entry = 0;
    uint32_t payload = 0;
  };

  /// Depth bound: Parse rejects deeper topologies and SearchCursor's
  /// fixed frame stack assumes it (a sane tree is logarithmic — 64
  /// levels would need ~2^64 patterns).
  static constexpr int kMaxDepth = 64;

  /// All leaf entries matching `query` under `mode`, in the mutable
  /// tree's traversal order.
  std::vector<Hit> Search(const PatternKey& query, SearchMode mode,
                          TptSearchStats* stats = nullptr) const;

  /// Search writing into a caller-owned vector (cleared first); `stats`,
  /// when given, accumulates — the same contract as TptTree::SearchInto.
  void SearchInto(const PatternKey& query, SearchMode mode,
                  std::vector<Hit>* out,
                  TptSearchStats* stats = nullptr) const;

  /// A paused depth-first traversal that can be advanced a few entry
  /// tests at a time. SearchInto is exactly StartSearch + Step-to-done,
  /// so interleaved (batched) and sequential execution produce
  /// bit-identical hits, hit order and TptSearchStats by construction —
  /// the cursor IS the search, not a second implementation of it.
  ///
  /// Lifetime: the cursor borrows the tree, the query key's word arrays,
  /// `out` and `stats`; all four must outlive it. A default-constructed
  /// cursor is done.
  class SearchCursor {
   public:
    SearchCursor() = default;

    bool done() const { return depth_ == 0; }

    /// Runs at most `max_entry_tests` entry tests (descents and frame
    /// pops are free — the budget meters signature-block work, the part
    /// worth interleaving). Returns done().
    bool Step(size_t max_entry_tests);

    /// Issues a prefetch for the next signature block Step would test,
    /// so a batch executor can warm it before switching to another
    /// query. No effect on results or stats; no-op when done.
    void Prefetch() const;

   private:
    friend class FrozenTpt;

    struct Frame {
      uint32_t node = 0;
      uint32_t entry = 0;
    };

    const FrozenTpt* tree_ = nullptr;
    const uint64_t* query_consequence_ = nullptr;
    const uint64_t* query_premise_ = nullptr;
    SearchMode mode_ = SearchMode::kPremiseAndConsequence;
    std::vector<Hit>* out_ = nullptr;
    TptSearchStats* stats_ = nullptr;
    /// frames_[0..depth_) is the DFS stack; depth_ == 0 means done.
    std::array<Frame, kMaxDepth> frames_;
    int depth_ = 0;
  };

  /// Begins a resumable search: clears `out`, validates the query key
  /// widths, and (for a non-empty tree) visits the root. Drive the
  /// returned cursor with Step() until done; hits land in `out` in the
  /// same order SearchInto emits them.
  SearchCursor StartSearch(const PatternKey& query, SearchMode mode,
                           std::vector<Hit>* out,
                           TptSearchStats* stats = nullptr) const;

  /// Number of indexed patterns.
  size_t size() const { return payloads_.size(); }
  bool empty() const { return payloads_.empty(); }

  /// Tree height (leaf = 1, empty = 0), carried over from the builder.
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
  /// `tpt.frozen_bytes` metric, comparable against the builder tree's
  /// MemoryBytes().
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
  /// tail bits, a CRC mismatch — returns DataLoss without crashing, so
  /// callers can quarantine the source file and rebuild from patterns.
  static StatusOr<FrozenTpt> Parse(const char* data, size_t size,
                                   size_t* consumed);

 private:
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
