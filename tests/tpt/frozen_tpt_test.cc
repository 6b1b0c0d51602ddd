// Unit tests for the frozen TPT arena: freeze/search basics, the "FTPT"
// wire section, and above all the parser's handling of corrupt bytes —
// every malformed section must come back as a clean DataLoss (which the
// store layer turns into quarantine + fallback), never a crash, hang, or
// count-driven over-allocation.
//
// Section layout (offsets used by the surgical edits below):
//   0  "FTPT"            16 num_nodes u32
//   4  version u32       20 num_entries u32
//   8  premise_bits u32  24 num_patterns u32
//   12 consequence_bits  28 nodes (3 x u32 each) | targets | key words
//                           | payloads | crc32 over everything before it
// A payload is 20 bytes: confidence f64, consequence region i32,
// pattern id i32, support i32.

#include "tpt/frozen_tpt.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "tpt_reference/pattern_sets.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

constexpr size_t kVersionOffset = 4;
constexpr size_t kPremiseBitsOffset = 8;
constexpr size_t kNumNodesOffset = 16;
constexpr size_t kNumEntriesOffset = 20;
constexpr size_t kNumPatternsOffset = 24;
constexpr size_t kNodesOffset = 28;

PatternKey RandomKey(Random* rng, size_t premise_len, size_t cons_len,
                     double premise_density = 0.15) {
  PatternKey key(premise_len, cons_len);
  key.mutable_premise().Set(rng->Uniform(premise_len));
  for (size_t i = 0; i < premise_len; ++i) {
    if (rng->Bernoulli(premise_density)) key.mutable_premise().Set(i);
  }
  key.mutable_consequence().Set(rng->Uniform(cons_len));
  return key;
}

IndexedPattern MakePattern(PatternKey key, int id) {
  IndexedPattern p;
  p.key = std::move(key);
  p.confidence = 0.25 + 0.01 * static_cast<double>(id % 50);
  p.consequence_region = id % 7;
  p.pattern_id = id;
  return p;
}

/// A multi-level tree (small node capacity) over `count` random patterns.
TptTree BuildTree(int count, uint64_t seed) {
  std::vector<IndexedPattern> patterns;
  Random rng(seed);
  patterns.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    patterns.push_back(MakePattern(RandomKey(&rng, 40, 10), i));
  }
  TptTree::Options options;
  options.max_node_entries = 5;
  options.min_node_entries = 2;
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns, options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

std::string Wire(const FrozenTpt& frozen) {
  std::string out;
  frozen.AppendTo(&out);
  return out;
}

uint32_t ReadU32At(const std::string& s, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, s.data() + offset, sizeof(v));
  return v;
}

void WriteU32At(std::string* s, size_t offset, uint32_t v) {
  std::memcpy(s->data() + offset, &v, sizeof(v));
}

/// Recomputes the section's trailing CRC after a surgical edit, so the
/// corruption reaches the validator it targets instead of the checksum.
void RestampSectionCrc(std::string* s) {
  const uint32_t crc = Crc32(s->data(), s->size() - 4);
  std::memcpy(s->data() + s->size() - 4, &crc, sizeof(crc));
}

Status ParseStatus(const std::string& wire) {
  size_t consumed = 0;
  return FrozenTpt::Parse(wire.data(), wire.size(), &consumed).status();
}

TEST(FrozenTptTest, EmptyTreeFreezesAndRoundTripsEmpty) {
  TptTree tree;
  const FrozenTpt frozen = tree.Freeze();
  EXPECT_TRUE(frozen.empty());
  EXPECT_EQ(frozen.Height(), 0);
  EXPECT_TRUE(frozen.CheckInvariants().ok());

  PatternKey q(8, 2);
  q.mutable_premise().Set(0);
  q.mutable_consequence().Set(0);
  EXPECT_TRUE(frozen.Search(q, SearchMode::kPremiseAndConsequence).empty());

  const std::string wire = Wire(frozen);
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_TRUE(reparsed->empty());
}

TEST(FrozenTptTest, FreezeKeepsPatternsAndAccountsMemory) {
  const TptTree tree = BuildTree(80, 11);
  const FrozenTpt frozen = tree.Freeze();
  EXPECT_EQ(frozen.size(), tree.size());
  EXPECT_EQ(frozen.Height(), tree.Height());
  EXPECT_EQ(frozen.premise_bits(), 40u);
  EXPECT_EQ(frozen.consequence_bits(), 10u);
  EXPECT_TRUE(frozen.CheckInvariants().ok());
  // The arena must be accounted for: more than the bare struct, and the
  // key blocks dominate a pointer-free layout.
  EXPECT_GT(frozen.MemoryBytes(), sizeof(FrozenTpt));
  // Every pattern id appears exactly once among the leaf payloads, and
  // Leaves() names each payload's own entry, in payload order.
  std::vector<bool> seen(frozen.size(), false);
  for (const LeafPayload& p : frozen.payloads()) {
    ASSERT_GE(p.pattern_id, 0);
    ASSERT_LT(static_cast<size_t>(p.pattern_id), seen.size());
    EXPECT_FALSE(seen[static_cast<size_t>(p.pattern_id)]);
    seen[static_cast<size_t>(p.pattern_id)] = true;
  }
  const std::vector<FrozenTpt::Hit> leaves = frozen.Leaves();
  ASSERT_EQ(leaves.size(), frozen.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].payload, i);
  }
}

TEST(FrozenTptTest, LeavesCarryTheBuilderKeys) {
  // The arena block a leaf entry names is the key the pattern was
  // inserted with — the only copy of it the frozen tree keeps.
  std::vector<PatternKey> keys;
  Random rng(31);
  std::vector<IndexedPattern> patterns;
  for (int i = 0; i < 60; ++i) {
    keys.push_back(RandomKey(&rng, 70, 3));
    patterns.push_back(MakePattern(keys.back(), i));
  }
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
  ASSERT_TRUE(tree.ok());
  const FrozenTpt frozen = tree->Freeze();
  ASSERT_EQ(frozen.num_premise_words(), 2u);
  ASSERT_EQ(frozen.num_consequence_words(), 1u);
  for (const FrozenTpt::Hit& leaf : frozen.Leaves()) {
    const LeafPayload& payload = frozen.payload(leaf);
    const PatternKey& want = keys[static_cast<size_t>(payload.pattern_id)];
    EXPECT_TRUE(frozen.KeyOf(leaf) == want);
    EXPECT_EQ(frozen.premise_words(leaf)[1], want.premise().words()[1]);
    EXPECT_EQ(frozen.consequence_words(leaf)[0],
              want.consequence().words()[0]);
  }
}

TEST(FrozenTptTest, SupportsRoundTripThroughTheSection) {
  // The section carries each payload's support, so a parsed arena holds
  // the supports its packed original did.
  Random rng(17);
  std::vector<PatternKey> keys;
  std::vector<LeafPayload> payloads;
  for (int i = 0; i < 40; ++i) {
    keys.push_back(RandomKey(&rng, 40, 10));
    payloads.push_back(LeafPayload{0.5, i % 7, i, 100 + i});
  }
  const StatusOr<KeyBlocks> blocks = FlattenKeys(keys);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  const StatusOr<FrozenTpt> packed = FrozenTpt::Pack(*blocks, payloads, 5);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const std::string wire = Wire(*packed);
  size_t consumed = 0;
  const StatusOr<FrozenTpt> parsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), payloads.size());
  for (const LeafPayload& p : parsed->payloads()) {
    EXPECT_EQ(p.support, 100 + p.pattern_id);
  }
}

TEST(FrozenTptTest, ParseRejectsNegativeSupport) {
  std::string wire = Wire(BuildTree(20, 24).Freeze());
  // The last payload's support is the i32 before the trailing CRC.
  WriteU32At(&wire, wire.size() - 8, static_cast<uint32_t>(-1));
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("negative support"), std::string::npos)
      << status.ToString();
}

TEST(FrozenTptTest, MemoryBytesIsWhatTheArraysAllocate) {
  // tpt.frozen_bytes reports allocation: the struct, the node and
  // entry-target arrays, the 64-byte-rounded key arena and the payloads.
  // Both constructors size every array exactly, so the counts in the
  // section header determine it.
  const FrozenTpt frozen = BuildTree(90, 19).Freeze();
  const std::string wire = Wire(frozen);
  const size_t nodes = ReadU32At(wire, kNumNodesOffset);
  const size_t entries = ReadU32At(wire, kNumEntriesOffset);
  const size_t stride =
      frozen.num_premise_words() + frozen.num_consequence_words();
  const size_t expected = sizeof(FrozenTpt) + nodes * 3 * sizeof(uint32_t) +
                          entries * sizeof(uint32_t) +
                          (entries * stride * sizeof(uint64_t) + 63) / 64 * 64 +
                          frozen.size() * sizeof(LeafPayload);
  EXPECT_EQ(frozen.MemoryBytes(), expected);
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->MemoryBytes(), expected);
}

TEST(FrozenTptTest, OneWordKeysCostAtMost48BytesPerPattern) {
  // Per pattern with one-word premise and consequence parts: a 16-byte
  // arena block, a 4-byte entry target and a 24-byte payload, plus the
  // internal entries and nodes amortized over a default-capacity tree.
  Random rng(37);
  std::vector<IndexedPattern> patterns;
  for (int i = 0; i < 1000; ++i) {
    patterns.push_back(MakePattern(RandomKey(&rng, 20, 18), i));
  }
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
  ASSERT_TRUE(tree.ok());
  const FrozenTpt frozen = tree->Freeze();
  ASSERT_EQ(frozen.num_premise_words() + frozen.num_consequence_words(), 2u);
  const double per_pattern = static_cast<double>(frozen.MemoryBytes()) /
                             static_cast<double>(frozen.size());
  EXPECT_LE(per_pattern, 48.0);
  EXPECT_GE(per_pattern, 44.0);  // Block + target + payload, at least.
}

TEST(FrozenTptTest, ParseIgnoresTrailingBytes) {
  // The section is embedded mid-file: Parse must consume exactly its own
  // bytes and leave whatever follows alone.
  const FrozenTpt frozen = BuildTree(30, 12).Freeze();
  std::string wire = Wire(frozen);
  const size_t section_size = wire.size();
  wire.append("trailing model bytes");
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(consumed, section_size);
  EXPECT_EQ(reparsed->size(), frozen.size());
}

TEST(FrozenTptTest, ParseRejectsBadMagic) {
  std::string wire = Wire(BuildTree(20, 13).Freeze());
  wire[0] ^= 0x20;
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("bad frozen TPT section magic"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsUnsupportedVersion) {
  std::string wire = Wire(BuildTree(20, 14).Freeze());
  WriteU32At(&wire, kVersionOffset, 99);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("unsupported frozen TPT section version"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsImplausibleKeyWidth) {
  std::string wire = Wire(BuildTree(20, 15).Freeze());
  WriteU32At(&wire, kPremiseBitsOffset, 1u << 23);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("implausible frozen TPT key width"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsCorruptNodeCountBeforeAllocating) {
  // A billion-node count must fail the up-front body-size check rather
  // than drive a giant allocation.
  std::string wire = Wire(BuildTree(20, 16).Freeze());
  WriteU32At(&wire, kNumNodesOffset, 1u << 30);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated frozen TPT section body"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsInconsistentCounts) {
  // Zero nodes but nonzero entries can never describe a real tree.
  std::string wire = Wire(BuildTree(20, 17).Freeze());
  WriteU32At(&wire, kNumNodesOffset, 0);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("inconsistent frozen TPT counts"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsPayloadCountExceedingEntries) {
  std::string wire = Wire(BuildTree(20, 18).Freeze());
  const uint32_t num_patterns = ReadU32At(wire, kNumPatternsOffset);
  ASSERT_GT(num_patterns, 1u);
  // Shrinking the entry count below the payload count keeps the declared
  // body within the buffer, so the count check itself must fire.
  WriteU32At(&wire, kNumEntriesOffset, num_patterns - 1);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT payload count exceeds entries"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsBitRotViaSectionChecksum) {
  std::string wire = Wire(BuildTree(40, 19).Freeze());
  // Flip one byte in the middle of the arena, checksum left stale.
  wire[wire.size() / 2] ^= 0x5a;
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT section checksum mismatch"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsZeroEntryNode) {
  std::string wire = Wire(BuildTree(40, 20).Freeze());
  WriteU32At(&wire, kNodesOffset + 4, 0);  // Root's num_entries.
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT node has zero entries"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsBackwardChildIndex) {
  const TptTree tree = BuildTree(60, 21);
  ASSERT_GT(tree.Height(), 1) << "need an internal root for this edit";
  std::string wire = Wire(tree.Freeze());
  const uint32_t num_nodes = ReadU32At(wire, kNumNodesOffset);
  // The root's first child pointer, redirected at the root itself: child
  // indices must be strictly forward, so cycles are impossible.
  const size_t targets_offset = kNodesOffset + 12 * num_nodes;
  WriteU32At(&wire, targets_offset, 0);
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT child index out of range"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsDirtyTailBits) {
  const TptTree tree = BuildTree(40, 22);
  std::string wire = Wire(tree.Freeze());
  const uint32_t num_nodes = ReadU32At(wire, kNumNodesOffset);
  const uint32_t num_entries = ReadU32At(wire, kNumEntriesOffset);
  // First entry's consequence word: set a bit beyond the declared
  // 10-bit width. FromWords asserts the zero-tail invariant, so the
  // parser must reject this before building any bitset.
  const size_t key_words_offset =
      kNodesOffset + 12 * num_nodes + 4 * num_entries;
  wire[key_words_offset + 7] =
      static_cast<char>(wire[key_words_offset + 7] | 0x80);
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("bits beyond declared width"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseNeverCrashesOnAnyTruncation) {
  // Every strict prefix of a valid section must fail cleanly — the
  // bounds-checked reader and the body-size precheck leave no length at
  // which a read can run off the buffer.
  const std::string wire = Wire(BuildTree(25, 23).Freeze());
  for (size_t len = 0; len < wire.size(); ++len) {
    size_t consumed = 0;
    StatusOr<FrozenTpt> parsed = FrozenTpt::Parse(wire.data(), len, &consumed);
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "prefix of " << len << " bytes";
  }
}

}  // namespace
}  // namespace hpm
