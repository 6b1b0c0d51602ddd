#include "tpt/frozen_tpt.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "bitset/word_ops.h"
#include "common/bytes.h"
#include "common/crc32.h"

namespace hpm {

namespace {

/// Wire-format constants for the "FTPT" section (see AppendTo).
constexpr char kSectionMagic[4] = {'F', 'T', 'P', 'T'};
constexpr uint32_t kSectionVersion = 2;

/// Sanity bound on key widths: wider than any region-grid encoding this
/// system can produce, small enough that a corrupt header cannot make us
/// allocate gigabytes.
constexpr uint32_t kMaxKeyBits = 1u << 22;

/// Uniform leaf depth in a sane tree is logarithmic in pattern count; a
/// parsed topology deeper than this is corrupt (and would otherwise
/// overflow SearchInto's fixed frame stack).
constexpr int kMaxHeight = FrozenTpt::kMaxDepth;

size_t WordsForBits(size_t bits) { return (bits + 63) / 64; }

/// True when every bit of `words` beyond `bits` is zero — the
/// DynamicBitset tail invariant, which FromWords asserts.
bool TailBitsClear(const uint64_t* words, size_t num_words, size_t bits) {
  if (num_words == 0) return true;
  const size_t rem = bits % 64;
  if (rem == 0) return true;
  return (words[num_words - 1] >> rem) == 0;
}

/// Pack's key order: the first bit, counting from bit 0, at which the
/// two word arrays differ decides, and the array that has it set comes
/// first. Returns <0, 0 or >0.
int CompareKeyBits(const uint64_t* a, const uint64_t* b, size_t num_words) {
  for (size_t w = 0; w < num_words; ++w) {
    const uint64_t diff = a[w] ^ b[w];
    if (diff != 0) return ((a[w] >> std::countr_zero(diff)) & 1) ? -1 : 1;
  }
  return 0;
}

/// `word` with its bit order reversed (bit 0 becomes bit 63).
uint64_t ReverseBits(uint64_t word) {
  word = ((word >> 1) & 0x5555555555555555ULL) |
         ((word & 0x5555555555555555ULL) << 1);
  word = ((word >> 2) & 0x3333333333333333ULL) |
         ((word & 0x3333333333333333ULL) << 2);
  word = ((word >> 4) & 0x0F0F0F0F0F0F0F0FULL) |
         ((word & 0x0F0F0F0F0F0F0F0FULL) << 4);
  return __builtin_bswap64(word);
}

/// A leaf entry's place in Pack's order, precomputed so the sort
/// compares integers instead of chasing blocks. `lead[w]` is key word w
/// bit-reversed and inverted: the lowest differing bit of two words
/// becomes the highest differing bit of their leads, and the word that
/// has it set gets the smaller lead, so ascending leads are
/// CompareKeyBits order on the key's first two words.
struct PackOrder {
  uint64_t lead[2] = {0, 0};
  int32_t pattern_id = 0;
  uint32_t source = 0;
};

/// Start of run `r` when `count` items are cut into `runs` runs whose
/// lengths differ by at most one (the longer runs first).
size_t EvenRunStart(size_t count, size_t runs, size_t r) {
  return r * (count / runs) + std::min(r, count % runs);
}

}  // namespace

void AlignedWordArena::FreeDeleter::operator()(uint64_t* p) const {
  std::free(p);
}

AlignedWordArena::AlignedWordArena(size_t num_words) : size_(num_words) {
  if (num_words == 0) return;
  // aligned_alloc requires the size to be a multiple of the alignment;
  // the padding also lets the scan prefetch whole lines safely.
  const size_t bytes = (num_words * sizeof(uint64_t) + 63) / 64 * 64;
  void* p = std::aligned_alloc(64, bytes);
  HPM_CHECK(p != nullptr);
  std::memset(p, 0, bytes);
  words_.reset(static_cast<uint64_t*>(p));
}

size_t AlignedWordArena::AllocatedBytes() const {
  return size_ == 0 ? 0 : (size_ * sizeof(uint64_t) + 63) / 64 * 64;
}

StatusOr<FrozenTpt> FrozenTpt::Pack(const KeyBlocks& keys,
                                    std::span<const LeafPayload> payloads,
                                    int capacity) {
  if (capacity < kMinNodeCapacity || capacity > kMaxNodeCapacity) {
    return Status::InvalidArgument("TPT node capacity out of range");
  }
  const size_t stride = keys.stride();
  if (keys.words.size() != payloads.size() * stride) {
    return Status::InvalidArgument("pack needs one key block per payload");
  }
  FrozenTpt packed;
  if (payloads.empty()) return packed;
  // Internal entries number fewer than the leaves (capacity >= 2), so
  // every entry index fits the 32-bit topology arrays.
  if (payloads.size() > UINT32_MAX / 2) {
    return Status::InvalidArgument("too many patterns to pack");
  }
  packed.premise_bits_ = keys.premise_bits;
  packed.consequence_bits_ = keys.consequence_bits;
  packed.premise_words_ = static_cast<uint32_t>(keys.premise_words());
  packed.consequence_words_ = static_cast<uint32_t>(keys.consequence_words());
  const uint64_t* words = keys.words.data();
  for (size_t i = 0; i < payloads.size(); ++i) {
    const uint64_t* block = words + i * stride;
    if (!TailBitsClear(block, packed.consequence_words_,
                       packed.consequence_bits_) ||
        !TailBitsClear(block + packed.consequence_words_,
                       packed.premise_words_, packed.premise_bits_)) {
      return Status::InvalidArgument("key block sets a bit past its width");
    }
  }

  // Leaf order: key bits (the consequence words lead each block, so
  // consequence bits decide first, then premise bits), pattern id, then
  // input position, so the order is total and the layout deterministic.
  // Key words past the first two, when there are any, are compared in
  // place from the input blocks.
  const size_t lead_words = std::min<size_t>(stride, 2);
  std::vector<PackOrder> order(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    PackOrder& o = order[i];
    for (size_t w = 0; w < lead_words; ++w) {
      o.lead[w] = ~ReverseBits(words[i * stride + w]);
    }
    o.pattern_id = payloads[i].pattern_id;
    o.source = static_cast<uint32_t>(i);
  }
  const auto less = [&](const PackOrder& a, const PackOrder& b) {
    if (a.lead[0] != b.lead[0]) return a.lead[0] < b.lead[0];
    if (a.lead[1] != b.lead[1]) return a.lead[1] < b.lead[1];
    if (stride > lead_words) {
      const int c = CompareKeyBits(
          words + size_t{a.source} * stride + lead_words,
          words + size_t{b.source} * stride + lead_words,
          stride - lead_words);
      if (c != 0) return c < 0;
    }
    if (a.pattern_id != b.pattern_id) return a.pattern_id < b.pattern_id;
    return a.source < b.source;
  };
  // An update lists a packed arena's leaves, already in this order, before
  // its new entries: only the unsorted tail is sorted, then merged in.
  // The order is total, so the result is the same as one full sort.
  const auto sorted_end =
      std::is_sorted_until(order.begin(), order.end(), less);
  std::sort(sorted_end, order.end(), less);
  std::inplace_merge(order.begin(), sorted_end, order.end(), less);

  // Level l (leaves = 0) cuts `items` — the sorted entries, or the nodes
  // of level l - 1 — into `nodes` even runs, one run per node.
  struct Level {
    size_t items = 0;
    size_t nodes = 0;
  };
  const size_t cap = static_cast<size_t>(capacity);
  std::vector<Level> levels;
  size_t num_nodes = 0, num_entries = 0;
  for (size_t items = payloads.size();;) {
    const size_t nodes = (items + cap - 1) / cap;
    levels.push_back(Level{items, nodes});
    num_nodes += nodes;
    num_entries += items;
    if (nodes == 1) break;
    items = nodes;
  }
  packed.height_ = static_cast<int>(levels.size());

  packed.nodes_.reserve(num_nodes);
  packed.entry_target_.resize(num_entries);
  packed.key_words_ = AlignedWordArena(num_entries * stride);
  packed.payloads_.reserve(payloads.size());

  // DFS preorder, children in run order — the layout Parse validates.
  // A node's entries are reserved before its children are emitted, and
  // an internal entry's key is the OR of its child's blocks, which are
  // final once the child returns.
  size_t entry_cursor = 0;
  const auto emit = [&](const auto& self, size_t level,
                        size_t run) -> uint32_t {
    const Level& at = levels[level];
    const size_t first_item = EvenRunStart(at.items, at.nodes, run);
    const uint32_t n = static_cast<uint32_t>(
        EvenRunStart(at.items, at.nodes, run + 1) - first_item);
    const uint32_t index = static_cast<uint32_t>(packed.nodes_.size());
    const uint32_t first_entry = static_cast<uint32_t>(entry_cursor);
    packed.nodes_.push_back(NodeRef{first_entry, n, level == 0 ? 1u : 0u});
    entry_cursor += n;

    for (uint32_t i = 0; i < n; ++i) {
      const size_t entry = size_t{first_entry} + i;
      uint64_t* block = packed.key_words_.data() + entry * stride;
      if (level == 0) {
        const uint32_t source = order[first_item + i].source;
        std::memcpy(block, words + size_t{source} * stride,
                    stride * sizeof(uint64_t));
        packed.entry_target_[entry] =
            static_cast<uint32_t>(packed.payloads_.size());
        packed.payloads_.push_back(payloads[source]);
        continue;
      }
      const uint32_t child = self(self, level - 1, first_item + i);
      packed.entry_target_[entry] = child;
      const NodeRef child_node = packed.nodes_[child];
      const uint64_t* child_block =
          packed.key_words_.data() + size_t{child_node.first_entry} * stride;
      for (uint32_t c = 0; c < child_node.num_entries; ++c) {
        for (size_t w = 0; w < stride; ++w) block[w] |= child_block[w];
        child_block += stride;
      }
    }
    return index;
  };
  emit(emit, levels.size() - 1, 0);
  HPM_CHECK(packed.nodes_.size() == num_nodes);
  HPM_CHECK(entry_cursor == num_entries);
  HPM_CHECK(packed.payloads_.size() == payloads.size());
  return packed;
}

PatternKey FrozenTpt::KeyOf(const Hit& hit) const {
  return PatternKey(
      DynamicBitset::FromWords(premise_words(hit), premise_words_,
                               premise_bits_),
      DynamicBitset::FromWords(consequence_words(hit), consequence_words_,
                               consequence_bits_));
}

std::vector<FrozenTpt::Hit> FrozenTpt::Leaves() const {
  std::vector<Hit> leaves(payloads_.size());
  for (const NodeRef& node : nodes_) {
    if (node.is_leaf == 0) continue;
    for (uint32_t i = 0; i < node.num_entries; ++i) {
      const uint32_t entry = node.first_entry + i;
      leaves[entry_target_[entry]] = Hit{entry, entry_target_[entry]};
    }
  }
  return leaves;
}

std::vector<FrozenTpt::Hit> FrozenTpt::Search(const PatternKey& query,
                                              SearchMode mode,
                                              TptSearchStats* stats) const {
  std::vector<Hit> out;
  SearchInto(query, mode, &out, stats);
  return out;
}

void FrozenTpt::SearchInto(const PatternKey& query, SearchMode mode,
                           std::vector<Hit>* out,
                           TptSearchStats* stats) const {
  out->clear();
  if (payloads_.empty()) return;
  HPM_CHECK(query.consequence().size() == consequence_bits_);
  if (mode == SearchMode::kPremiseAndConsequence) {
    HPM_CHECK(query.premise().size() == premise_bits_);
  }
  const uint64_t* query_consequence = query.consequence().words();
  const uint64_t* query_premise = query.premise().words();
  const size_t stride = Stride();

  // frames[0..depth) is the depth-first stack: each frame is a node and
  // the next of its entries to test.
  struct Frame {
    uint32_t node;
    uint32_t entry;
  };
  std::array<Frame, kMaxDepth> frames{};
  int depth = 0;
  frames[depth++] = Frame{0, 0};
  if (stats != nullptr) ++stats->nodes_visited;
  while (depth > 0) {
    Frame& frame = frames[depth - 1];
    const NodeRef node = nodes_[frame.node];
    if (frame.entry == node.num_entries) {
      --depth;  // This subtree is exhausted; resume in the parent.
      continue;
    }
    const uint32_t i = frame.entry++;
    const uint64_t* block = key_words_.data() + (node.first_entry + i) * stride;
    if (i + 1 < node.num_entries) {
      __builtin_prefetch(block + stride);
    }
    if (stats != nullptr) ++stats->entries_tested;
    // Consequence part first (both modes prune on it), premise part only
    // when FQP still needs it — same short-circuit order as
    // PatternKey::Intersects, so entries_tested/pruning match a pointer
    // tree of the same shape exactly.
    bool match =
        wordops::AnyCommon(block, query_consequence, consequence_words_);
    if (stats != nullptr) ++stats->blocks_scanned;
    if (match && mode == SearchMode::kPremiseAndConsequence) {
      match = wordops::AnyCommon(block + consequence_words_, query_premise,
                                 premise_words_);
      if (stats != nullptr) ++stats->blocks_scanned;
    }
    if (!match) continue;
    const uint32_t target = entry_target_[node.first_entry + i];
    if (node.is_leaf != 0) {
      out->push_back(Hit{node.first_entry + i, target});
    } else {
      HPM_CHECK(depth < kMaxDepth);
      frames[depth++] = Frame{target, 0};
      if (stats != nullptr) ++stats->nodes_visited;
    }
  }
}

size_t FrozenTpt::MemoryBytes() const {
  size_t bytes = sizeof(FrozenTpt);
  bytes += nodes_.capacity() * sizeof(NodeRef);
  bytes += entry_target_.capacity() * sizeof(uint32_t);
  bytes += key_words_.AllocatedBytes();
  bytes += payloads_.capacity() * sizeof(LeafPayload);
  return bytes;
}

Status FrozenTpt::CheckInvariants() const {
  if (nodes_.empty()) {
    if (!entry_target_.empty() || !payloads_.empty()) {
      return Status::Internal("empty frozen TPT carries entries");
    }
    return Status::OK();
  }
  int height = 0;
  HPM_RETURN_IF_ERROR(
      ValidateTopology(nodes_, entry_target_, payloads_.size(), &height));
  if (height != height_) {
    return Status::Internal("frozen TPT height mismatch");
  }
  const size_t stride = Stride();
  for (size_t e = 0; e < entry_target_.size(); ++e) {
    const uint64_t* block = key_words_.data() + e * stride;
    if (!TailBitsClear(block, consequence_words_, consequence_bits_) ||
        !TailBitsClear(block + consequence_words_, premise_words_,
                       premise_bits_)) {
      return Status::Internal("frozen TPT key has dirty tail bits");
    }
  }
  if (!InternalKeysAreUnions(nodes_, entry_target_, key_words_.data(),
                             stride)) {
    return Status::Internal("frozen TPT internal key != union of subtree");
  }
  return Status::OK();
}

void FrozenTpt::AppendTo(std::string* out) const {
  const size_t start = out->size();
  bytes::PutBytes(out, kSectionMagic, sizeof(kSectionMagic));
  bytes::PutU32(out, kSectionVersion);
  bytes::PutU32(out, static_cast<uint32_t>(premise_bits_));
  bytes::PutU32(out, static_cast<uint32_t>(consequence_bits_));
  bytes::PutU32(out, static_cast<uint32_t>(nodes_.size()));
  bytes::PutU32(out, static_cast<uint32_t>(entry_target_.size()));
  bytes::PutU32(out, static_cast<uint32_t>(payloads_.size()));
  for (const NodeRef& node : nodes_) {
    bytes::PutU32(out, node.first_entry);
    bytes::PutU32(out, node.num_entries);
    bytes::PutU32(out, node.is_leaf);
  }
  for (uint32_t target : entry_target_) bytes::PutU32(out, target);
  bytes::PutBytes(out, key_words_.data(),
                  key_words_.size() * sizeof(uint64_t));
  for (const LeafPayload& p : payloads_) {
    bytes::PutF64(out, p.confidence);
    bytes::PutI32(out, p.consequence_region);
    bytes::PutI32(out, p.pattern_id);
    bytes::PutI32(out, p.support);
  }
  bytes::PutU32(out, Crc32(out->data() + start, out->size() - start));
}

Status FrozenTpt::ValidateTopology(const std::vector<NodeRef>& nodes,
                                   const std::vector<uint32_t>& targets,
                                   size_t num_patterns, int* height) {
  // Entry runs must partition the entry arrays contiguously in node
  // order, with no empty nodes (an empty tree has no nodes at all).
  size_t running = 0;
  for (const NodeRef& node : nodes) {
    if (node.is_leaf > 1) {
      return Status::DataLoss("frozen TPT node has corrupt leaf flag");
    }
    if (node.num_entries == 0) {
      return Status::DataLoss("frozen TPT node has zero entries");
    }
    if (node.first_entry != running) {
      return Status::DataLoss("frozen TPT entry runs are not contiguous");
    }
    running += node.num_entries;
  }
  if (running != targets.size()) {
    return Status::DataLoss("frozen TPT entry count mismatch");
  }

  // Leaf targets are payload indices and must appear exactly in payload
  // order; internal targets are strictly-forward child indices, each
  // non-root node referenced exactly once.
  std::vector<uint32_t> referenced_by(nodes.size(), 0);
  uint32_t next_payload = 0;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const NodeRef& node = nodes[n];
    for (uint32_t i = 0; i < node.num_entries; ++i) {
      const uint32_t target = targets[node.first_entry + i];
      if (node.is_leaf != 0) {
        if (target != next_payload) {
          return Status::DataLoss(
              "frozen TPT leaf payload indices out of sequence");
        }
        ++next_payload;
      } else {
        if (target <= n || target >= nodes.size()) {
          return Status::DataLoss("frozen TPT child index out of range");
        }
        if (referenced_by[target] != 0) {
          return Status::DataLoss(
              "frozen TPT child referenced more than once");
        }
        referenced_by[target] = 1;
      }
    }
  }
  if (next_payload != num_patterns) {
    return Status::DataLoss("frozen TPT payload count mismatch");
  }
  for (size_t n = 1; n < nodes.size(); ++n) {
    if (referenced_by[n] == 0) {
      return Status::DataLoss("frozen TPT node is unreachable");
    }
  }

  // Depths propagate in one forward pass (children always follow their
  // parent); leaves must share one depth, bounded by kMaxHeight so no
  // file can drive unbounded search recursion.
  std::vector<int> depth(nodes.size(), 0);
  depth[0] = 1;
  int leaf_depth = -1;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const NodeRef& node = nodes[n];
    if (depth[n] > kMaxHeight) {
      return Status::DataLoss("frozen TPT height exceeds bound");
    }
    if (node.is_leaf != 0) {
      if (leaf_depth == -1) {
        leaf_depth = depth[n];
      } else if (leaf_depth != depth[n]) {
        return Status::DataLoss("frozen TPT leaves at different depths");
      }
      continue;
    }
    for (uint32_t i = 0; i < node.num_entries; ++i) {
      depth[targets[node.first_entry + i]] = depth[n] + 1;
    }
  }
  *height = leaf_depth < 0 ? 0 : leaf_depth;
  return Status::OK();
}

bool FrozenTpt::InternalKeysAreUnions(const std::vector<NodeRef>& nodes,
                                      const std::vector<uint32_t>& targets,
                                      const uint64_t* key_words,
                                      size_t stride) {
  std::vector<uint64_t> merged(stride);
  for (const NodeRef& node : nodes) {
    if (node.is_leaf != 0) continue;
    for (uint32_t e = node.first_entry; e < node.first_entry + node.num_entries;
         ++e) {
      const NodeRef& child = nodes[targets[e]];
      std::fill(merged.begin(), merged.end(), 0);
      for (uint32_t c = child.first_entry;
           c < child.first_entry + child.num_entries; ++c) {
        const uint64_t* block = key_words + size_t{c} * stride;
        for (size_t w = 0; w < stride; ++w) merged[w] |= block[w];
      }
      if (!std::equal(merged.begin(), merged.end(),
                      key_words + size_t{e} * stride)) {
        return false;
      }
    }
  }
  return true;
}

StatusOr<FrozenTpt> FrozenTpt::Parse(const char* data, size_t size,
                                     size_t* consumed) {
  bytes::Cursor in(data, size);
  char magic[sizeof(kSectionMagic)];
  if (!in.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kSectionMagic, sizeof(magic)) != 0) {
    return Status::DataLoss("bad frozen TPT section magic");
  }
  uint32_t version = 0;
  uint32_t premise_bits = 0, consequence_bits = 0;
  uint32_t num_nodes = 0, num_entries = 0, num_patterns = 0;
  in.U32(&version);
  in.U32(&premise_bits);
  in.U32(&consequence_bits);
  in.U32(&num_nodes);
  in.U32(&num_entries);
  if (!in.U32(&num_patterns)) {
    return Status::DataLoss("truncated frozen TPT section header");
  }
  if (version != kSectionVersion) {
    return Status::DataLoss("unsupported frozen TPT section version");
  }
  if (premise_bits > kMaxKeyBits || consequence_bits > kMaxKeyBits) {
    return Status::DataLoss("implausible frozen TPT key width");
  }

  const uint64_t premise_words = WordsForBits(premise_bits);
  const uint64_t consequence_words = WordsForBits(consequence_bits);
  const uint64_t stride = premise_words + consequence_words;

  // Size the whole body up front (64-bit math, so corrupt counts cannot
  // overflow) before allocating anything count-proportional.
  const uint64_t body_bytes = uint64_t{num_nodes} * 12 +
                              uint64_t{num_entries} * 4 +
                              uint64_t{num_entries} * stride * 8 +
                              uint64_t{num_patterns} * 20;
  if (body_bytes + sizeof(uint32_t) > in.remaining()) {
    return Status::DataLoss("truncated frozen TPT section body");
  }
  if (num_patterns > num_entries) {
    return Status::DataLoss("frozen TPT payload count exceeds entries");
  }
  if ((num_nodes == 0) != (num_entries == 0) ||
      (num_nodes == 0 &&
       (num_patterns != 0 || premise_bits != 0 || consequence_bits != 0))) {
    return Status::DataLoss("inconsistent frozen TPT counts");
  }

  std::vector<NodeRef> nodes(num_nodes);
  for (NodeRef& node : nodes) {
    in.U32(&node.first_entry);
    in.U32(&node.num_entries);
    in.U32(&node.is_leaf);
  }
  std::vector<uint32_t> targets(num_entries);
  for (uint32_t& target : targets) in.U32(&target);
  AlignedWordArena key_words(num_entries * stride);
  in.Bytes(key_words.data(), key_words.size() * sizeof(uint64_t));
  std::vector<LeafPayload> payloads(num_patterns);
  for (LeafPayload& p : payloads) {
    in.F64(&p.confidence);
    in.I32(&p.consequence_region);
    in.I32(&p.pattern_id);
    in.I32(&p.support);
  }

  const size_t body_end = in.pos();
  uint32_t stored_crc = 0;
  in.U32(&stored_crc);
  HPM_CHECK(in.ok());  // the body was sized against the bytes up front
  if (Crc32(data, body_end) != stored_crc) {
    return Status::DataLoss("frozen TPT section checksum mismatch");
  }

  FrozenTpt frozen;
  *consumed = in.pos();
  if (num_nodes == 0) return frozen;

  int height = 0;
  HPM_RETURN_IF_ERROR(ValidateTopology(nodes, targets, num_patterns,
                                       &height));

  // Every packed part must honor the DynamicBitset zero-tail invariant
  // (FromWords and the whole-word scan both rely on it).
  for (uint64_t e = 0; e < num_entries; ++e) {
    const uint64_t* block = key_words.data() + e * stride;
    if (!TailBitsClear(block, consequence_words, consequence_bits) ||
        !TailBitsClear(block + consequence_words, premise_words,
                       premise_bits)) {
      return Status::DataLoss("frozen TPT key has bits beyond declared width");
    }
  }

  for (const LeafPayload& p : payloads) {
    if (p.support < 0) {
      return Status::DataLoss("frozen TPT payload has a negative support");
    }
  }

  // A thinned internal key would make search silently prune matches
  // away: no check on the leaves can see it.
  if (!InternalKeysAreUnions(nodes, targets, key_words.data(), stride)) {
    return Status::DataLoss(
        "frozen TPT internal key is not the union of its child's keys");
  }

  frozen.premise_bits_ = premise_bits;
  frozen.consequence_bits_ = consequence_bits;
  frozen.premise_words_ = static_cast<uint32_t>(premise_words);
  frozen.consequence_words_ = static_cast<uint32_t>(consequence_words);
  frozen.height_ = height;
  frozen.payloads_ = std::move(payloads);
  frozen.nodes_ = std::move(nodes);
  frozen.entry_target_ = std::move(targets);
  frozen.key_words_ = std::move(key_words);
  return frozen;
}

}  // namespace hpm
