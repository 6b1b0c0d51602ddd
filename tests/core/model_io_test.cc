// Tests for model persistence (SaveToFile / LoadFromFile) and dynamic
// pattern incorporation (WithNewHistory, paper §V-B).

#include <gtest/gtest.h>

#include "proptest/proptest.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "tpt/frozen_tpt.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

Point RouteA(Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0, 100.0};
}
Point RouteB(Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0, 1200.0};
}

Trajectory MakeHistory(int days, bool route_b = false, uint64_t seed = 4) {
  Random rng(seed);
  Trajectory traj;
  for (int d = 0; d < days; ++d) {
    for (Timestamp t = 0; t < kPeriod; ++t) {
      Point p = route_b ? RouteB(t) : RouteA(t);
      p.x += rng.Gaussian(0, 1.0);
      p.y += rng.Gaussian(0, 1.0);
      traj.Append(p);
    }
  }
  return traj;
}

HybridPredictorOptions Options() {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 20.0;
  options.regions.dbscan.min_pts = 4;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 3;
  options.distant_threshold = 8;
  options.region_match_slack = 8.0;
  return options;
}

PredictiveQuery RouteAQuery(Timestamp tc_offset, Timestamp length) {
  PredictiveQuery q;
  const Timestamp base = 100 * kPeriod;
  for (Timestamp t = tc_offset - 3; t <= tc_offset; ++t) {
    q.recent_movements.push_back({base + t, RouteA(t)});
  }
  q.current_time = base + tc_offset;
  q.query_time = q.current_time + length;
  return q;
}

std::string TempPath(const char* name) {
  // Process-unique: ctest runs each discovered test as its own process,
  // possibly in parallel, and fixture SetUp writes the same file names.
  return std::string(::testing::TempDir()) + "/" +
         std::to_string(::getpid()) + "_" + name;
}

TEST(ModelIoTest, SaveLoadRoundTripPreservesModel) {
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  const std::string path = TempPath("model_roundtrip.hpm");
  ASSERT_TRUE((*trained)->SaveToFile(path).ok());

  auto loaded = HybridPredictor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->summary().num_frequent_regions,
            (*trained)->summary().num_frequent_regions);
  EXPECT_EQ((*loaded)->summary().num_patterns,
            (*trained)->summary().num_patterns);
  EXPECT_EQ((*loaded)->summary().num_sub_trajectories,
            (*trained)->summary().num_sub_trajectories);
  EXPECT_TRUE((*loaded)->tpt().CheckInvariants().ok());

  // Identical answers on both query paths.
  for (const Timestamp length : {4, 12}) {
    const PredictiveQuery q = RouteAQuery(10, length);
    auto original = (*trained)->Predict(q);
    auto restored = (*loaded)->Predict(q);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(original->size(), restored->size());
    EXPECT_EQ(original->front().location, restored->front().location);
    EXPECT_DOUBLE_EQ(original->front().score, restored->front().score);
    EXPECT_EQ(original->front().source, restored->front().source);
  }
}

TEST(ModelIoTest, LoadRejectsMissingFile) {
  EXPECT_EQ(
      HybridPredictor::LoadFromFile("/nonexistent/model").status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, LoadRejectsForeignFile) {
  const std::string path = TempPath("not_a_model.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a model", f);
  std::fclose(f);
  EXPECT_EQ(HybridPredictor::LoadFromFile(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, LoadRejectsTruncatedFile) {
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  const std::string path = TempPath("model_full.hpm");
  ASSERT_TRUE((*trained)->SaveToFile(path).ok());

  // Copy a truncated prefix.
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  char buffer[256];
  const size_t n = std::fread(buffer, 1, sizeof(buffer), in);
  std::fclose(in);
  const std::string cut_path = TempPath("model_cut.hpm");
  std::FILE* out = std::fopen(cut_path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  std::fwrite(buffer, 1, n / 2, out);
  std::fclose(out);

  EXPECT_FALSE(HybridPredictor::LoadFromFile(cut_path).ok());
}

TEST(ModelIoTest, RandomByteCorruptionNeverCrashes) {
  // Failure injection: flip bytes at random offsets; every corrupted
  // file must either load to a structurally valid model or fail with a
  // clean Status — never crash or hang.
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  const std::string path = TempPath("model_fuzz_base.hpm");
  ASSERT_TRUE((*trained)->SaveToFile(path).ok());

  // Read the pristine bytes.
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.append(buf, n);
  std::fclose(in);
  ASSERT_GT(bytes.size(), 64u);

  const uint64_t seed = proptest::SeedForTest(99);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  const std::string fuzz_path = TempPath("model_fuzz.hpm");
  for (int round = 0; round < 60; ++round) {
    std::string corrupted = bytes;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < flips; ++i) {
      const size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] = static_cast<char>(
          corrupted[pos] ^ static_cast<char>(1 + rng.Uniform(255)));
    }
    std::FILE* out = std::fopen(fuzz_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(corrupted.data(), 1, corrupted.size(), out);
    std::fclose(out);

    auto loaded = HybridPredictor::LoadFromFile(fuzz_path);
    if (loaded.ok()) {
      // If it loads (the flipped bytes were e.g. inside a coordinate),
      // the model must still be structurally sound.
      EXPECT_TRUE((*loaded)->tpt().CheckInvariants().ok());
    }
  }
}

TEST(ModelIoTest, SaveToUnwritablePathFails) {
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ((*trained)->SaveToFile("/nonexistent/dir/model").code(),
            StatusCode::kInvalidArgument);
}

// --- Surgical field corruption ---------------------------------------
//
// The loader validates every count and size it reads; these tests flip
// one specific field each and assert the file is rejected (instead of,
// say, a multi-gigabyte allocation on a corrupt count). Offsets of the
// tail fields are computed from the trained model's own structure:
//   ... | u64 num_regions | regions | u64 num_subs
//       | "FTPT" frozen arena section | footer ("HPMC" + crc32, 8 bytes)
// where each region is 48 bytes + its MBR (1 byte empty flag, +32 if
// set). The frozen section's offset is found by scanning for its magic
// and verifying with FrozenTpt::Parse, which anchors every field before
// it. Section layout: "FTPT" | version u32 | premise_bits u32 |
// consequence_bits u32 | num_nodes u32 | num_entries u32 |
// num_patterns u32 | nodes (3 x u32) | targets u32 | key words |
// payloads (confidence f64, consequence region i32, pattern id i32,
// support i32: 20 bytes) | crc32. Each surgical edit re-stamps the
// footer CRC so the corruption reaches the semantic validator it targets
// instead of tripping the checksum.

constexpr size_t kFooterSize = 8;
constexpr size_t kPayloadSize = 20;

void RestampFooter(std::vector<unsigned char>& bytes) {
  ASSERT_GE(bytes.size(), kFooterSize);
  const size_t body = bytes.size() - kFooterSize;
  const uint32_t crc = Crc32(bytes.data(), body);
  std::memcpy(bytes.data() + body, "HPMC", 4);
  std::memcpy(bytes.data() + body + 4, &crc, sizeof(crc));
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  unsigned char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void OverwriteU64(std::vector<unsigned char>& bytes, size_t offset,
                  uint64_t value) {
  ASSERT_LE(offset + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/// Bytes of one region record: id, offset, index, centre, MBR, support.
size_t RegionRecordBytes(const FrequentRegion& r) {
  return 48 + (r.mbr.IsEmpty() ? 1 : 33);
}

class ModelCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto trained = HybridPredictor::Train(MakeHistory(30), Options());
    ASSERT_TRUE(trained.ok());
    model_ = std::move(*trained);
    ASSERT_FALSE(model_->PatternTable().empty());
    path_ = TempPath("model_corrupt_base.hpm");
    ASSERT_TRUE(model_->SaveToFile(path_).ok());
    bytes_ = ReadFileBytes(path_);

    size_t regions_bytes = 0;
    for (const FrequentRegion& r : model_->regions().regions()) {
      regions_bytes += RegionRecordBytes(r);
    }
    // Locate the frozen-TPT section: the only "FTPT" run that parses
    // cleanly and ends exactly at the footer is the real one.
    const size_t body = bytes_.size() - kFooterSize;
    ftpt_offset_ = bytes_.size();
    for (size_t off = 0; off + 4 <= body; ++off) {
      if (std::memcmp(bytes_.data() + off, "FTPT", 4) != 0) continue;
      size_t consumed = 0;
      const auto parsed = FrozenTpt::Parse(
          reinterpret_cast<const char*>(bytes_.data()) + off, body - off,
          &consumed);
      if (parsed.ok() && off + consumed == body) {
        ftpt_offset_ = off;
        break;
      }
    }
    ASSERT_LT(ftpt_offset_, bytes_.size()) << "frozen TPT section not found";

    num_subs_offset_ = ftpt_offset_ - 8;
    num_regions_offset_ = num_subs_offset_ - regions_bytes - 8;
    payloads_offset_ = bytes_.size() - kFooterSize - 4 -
                       size_t{ReadSectionU32(24)} * kPayloadSize;
  }

  /// Re-stamps the footer CRC, writes the corrupted bytes and returns
  /// the load status.
  Status LoadCorrupted(const char* name) {
    RestampFooter(bytes_);
    const std::string path = TempPath(name);
    WriteFileBytes(path, bytes_);
    return HybridPredictor::LoadFromFile(path).status();
  }

  /// Recomputes the section's own trailing CRC so a corruption deeper in
  /// the parse pipeline (topology, the loader's checks) is what rejects
  /// the file, not the checksum.
  void RestampSectionCrc() {
    const size_t section_end = bytes_.size() - kFooterSize;
    const uint32_t crc = Crc32(bytes_.data() + ftpt_offset_,
                               section_end - 4 - ftpt_offset_);
    std::memcpy(bytes_.data() + section_end - 4, &crc, sizeof(crc));
  }

  uint32_t ReadSectionU32(size_t rel) const {
    uint32_t v = 0;
    std::memcpy(&v, bytes_.data() + ftpt_offset_ + rel, sizeof(v));
    return v;
  }

  void WriteSectionU32(size_t rel, uint32_t v) {
    std::memcpy(bytes_.data() + ftpt_offset_ + rel, &v, sizeof(v));
  }

  /// File offset of payload `index`'s field at `field` (0 confidence,
  /// 8 consequence region, 12 pattern id, 16 support).
  size_t PayloadField(size_t index, size_t field) const {
    return payloads_offset_ + index * kPayloadSize + field;
  }

  std::unique_ptr<HybridPredictor> model_;
  std::string path_;
  std::vector<unsigned char> bytes_;
  size_t ftpt_offset_ = 0;
  size_t num_subs_offset_ = 0;
  size_t num_regions_offset_ = 0;
  size_t payloads_offset_ = 0;
};

TEST_F(ModelCorruptionTest, SanityCheckOffsetsByRoundTrip) {
  // The computed offsets must point at the real fields: overwriting each
  // with its current value must leave the file loadable.
  uint64_t current = 0;
  std::memcpy(&current, bytes_.data() + num_regions_offset_, 8);
  ASSERT_EQ(current, model_->regions().NumRegions());
  std::memcpy(&current, bytes_.data() + num_subs_offset_, 8);
  ASSERT_EQ(current, model_->summary().num_sub_trajectories);
  ASSERT_EQ(ReadSectionU32(24), model_->PatternTable().size());
  const LeafPayload& last = model_->tpt().payloads().back();
  int32_t support = 0;
  std::memcpy(&support,
              bytes_.data() + PayloadField(model_->tpt().size() - 1, 16),
              sizeof(support));
  ASSERT_EQ(support, last.support);
  EXPECT_TRUE(LoadCorrupted("model_untouched.hpm").ok());
}

TEST_F(ModelCorruptionTest, RejectsUnsupportedFormatVersion) {
  // Clobber just the u32 version after the 4-byte magic.
  const uint32_t bad_version = 0xdead;
  std::memcpy(bytes_.data() + 4, &bad_version, sizeof(bad_version));
  const Status status = LoadCorrupted("model_bad_version.hpm");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("unsupported model format version"),
            std::string::npos);
}

TEST_F(ModelCorruptionTest, RejectsCorruptPeriod) {
  // The period is the first options field, an int64 right after
  // magic + version.
  OverwriteU64(bytes_, 8, static_cast<uint64_t>(-1));
  const Status status = LoadCorrupted("model_bad_period.hpm");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("corrupt period"), std::string::npos);
}

TEST_F(ModelCorruptionTest, RejectsQueryOptionsTrainWouldRefuse) {
  // The time relaxation is the int64 at byte 97 (after magic, version,
  // eight 8-byte options, the pruning flag, the node capacity, the
  // weight function and d). BQP's interval arithmetic would overflow on
  // a value like this one, so the loader applies Train's bounds.
  int64_t current = 0;
  std::memcpy(&current, bytes_.data() + 97, sizeof(current));
  ASSERT_EQ(current, model_->options().time_relaxation);
  OverwriteU64(bytes_, 97, uint64_t{1} << 62);
  const Status status = LoadCorrupted("model_bad_relaxation.hpm");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("time relaxation"), std::string::npos)
      << status.ToString();
  // Train refuses the same value: both apply ValidateQueryOptions.
  HybridPredictorOptions options = Options();
  options.time_relaxation = kPeriod + 1;
  EXPECT_EQ(HybridPredictor::Train(MakeHistory(30), options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelCorruptionTest, RejectsOversizedRegionCount) {
  OverwriteU64(bytes_, num_regions_offset_, 1ull << 40);
  const Status status = LoadCorrupted("model_bad_region_count.hpm");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("corrupt region count"),
            std::string::npos);
}

TEST_F(ModelCorruptionTest, RejectsRegionsOutOfOffsetOrder) {
  // Region ids follow period offsets; the predictor's consequence-centre
  // runs rely on it. Move the last region to offset 0, ahead of its
  // predecessors.
  const FrequentRegion& last = model_->regions().regions().back();
  ASSERT_GT(last.offset, model_->regions().regions().front().offset);
  OverwriteU64(bytes_, num_subs_offset_ - RegionRecordBytes(last) + 8, 0);
  const Status status = LoadCorrupted("model_region_order.hpm");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("corrupt region record"), std::string::npos)
      << status.ToString();
}

TEST_F(ModelCorruptionTest, RejectsOversizedPatternCount) {
  // The pattern count is the arena's payload count: a billion payloads
  // must fail the section's up-front body-size check, before allocating.
  WriteSectionU32(24, 1u << 30);
  const Status status = LoadCorrupted("model_bad_pattern_count.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated frozen TPT section body"),
            std::string::npos)
      << status.ToString();
}

TEST_F(ModelCorruptionTest, RejectsOversizedPremiseKey) {
  // Premise bit i is region i, so a premise part wider than the region
  // count could name a region the model does not have.
  ASSERT_NE(ReadSectionU32(8) % 64, 0u) << "the edit must keep the words";
  WriteSectionU32(8, ReadSectionU32(8) + 1);
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_oversized_premise.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("premise width is not the region count"),
            std::string::npos)
      << status.ToString();
}

TEST_F(ModelCorruptionTest, RejectsNegativeSupport) {
  const uint32_t negative = static_cast<uint32_t>(-1);
  std::memcpy(bytes_.data() + PayloadField(0, 16), &negative,
              sizeof(negative));
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_negative_support.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("negative support"), std::string::npos)
      << status.ToString();
}

TEST_F(ModelCorruptionTest, LoadedSupportsComeFromTheArena) {
  // The arena section carries each payload's support, so the supports
  // survive the round trip with no other table in the file.
  const std::vector<TrajectoryPattern> table = model_->PatternTable();
  auto loaded = HybridPredictor::LoadFromFile(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<TrajectoryPattern> restored = (*loaded)->PatternTable();
  ASSERT_EQ(restored.size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_GT(table[i].support, 0);
    EXPECT_EQ(restored[i].support, table[i].support);
  }
}

TEST_F(ModelCorruptionTest, RejectsTruncatedTail) {
  // Clip the last four body bytes (the frozen section's own checksum).
  // LoadCorrupted re-stamps the footer, so the section reader itself
  // must catch the short body.
  bytes_.erase(bytes_.end() - kFooterSize - 4, bytes_.end() - kFooterSize);
  const Status status = LoadCorrupted("model_clipped_tail.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated"), std::string::npos);
}

TEST_F(ModelCorruptionTest, TornWriteWithoutFooterIsDataLoss) {
  // A crash mid-write leaves a prefix with no footer: DataLoss, not a
  // confusing semantic error.
  bytes_.resize(bytes_.size() - kFooterSize);
  const std::string path = TempPath("model_torn.hpm");
  WriteFileBytes(path, bytes_);
  const Status status = HybridPredictor::LoadFromFile(path).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("torn model file"), std::string::npos);
}

TEST_F(ModelCorruptionTest, BitRotWithoutRestampIsChecksumMismatch) {
  // Flip one body byte but keep the old footer: the CRC catches it
  // before any field validator runs.
  bytes_[num_regions_offset_] ^= 0x01;
  const std::string path = TempPath("model_bitrot.hpm");
  WriteFileBytes(path, bytes_);
  const Status status = HybridPredictor::LoadFromFile(path).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos);
}

// --- Frozen-TPT section corruption -----------------------------------
//
// The v3 format stores the frozen search arena verbatim, and the arena is
// the model's only copy of its patterns. Its parser rejects structural
// damage, and the loader rejects an arena that disagrees with the
// regions, each with a clean DataLoss (which the store layer turns into
// quarantine + fallback), never a crash or an over-allocation.

class FrozenSectionCorruptionTest : public ModelCorruptionTest {
 protected:
  /// Byte offset of entry `entry`'s key block (consequence words first).
  size_t KeyBlockOffset(size_t entry) const {
    const size_t stride =
        (ReadSectionU32(8) + 63) / 64 + (ReadSectionU32(12) + 63) / 64;
    return ftpt_offset_ + 28 + size_t{ReadSectionU32(16)} * 12 +
           size_t{ReadSectionU32(20)} * 4 + entry * stride * 8;
  }

  /// The last entry in DFS preorder: a leaf, whose payload is the last.
  size_t LastLeafBlock() const {
    return KeyBlockOffset(ReadSectionU32(20) - 1);
  }

  /// Re-derives every internal entry key as the union of its child
  /// node's keys, so a corruption of leaf keys alone reaches the loader's
  /// checks instead of the section's union check. Nodes are in DFS
  /// preorder (children after parents), so a reverse sweep sees every
  /// child before its parent.
  void RestampInternalKeys() {
    const uint32_t num_nodes = ReadSectionU32(16);
    const size_t stride =
        (ReadSectionU32(8) + 63) / 64 + (ReadSectionU32(12) + 63) / 64;
    const size_t targets = 28 + size_t{num_nodes} * 12;
    const auto word = [&](size_t entry, size_t w) {
      uint64_t v = 0;
      std::memcpy(&v, bytes_.data() + KeyBlockOffset(entry) + w * 8,
                  sizeof(v));
      return v;
    };
    for (size_t n = num_nodes; n-- > 0;) {
      if (ReadSectionU32(28 + n * 12 + 8) != 0) continue;  // leaf
      const uint32_t first = ReadSectionU32(28 + n * 12);
      const uint32_t count = ReadSectionU32(28 + n * 12 + 4);
      for (uint32_t e = first; e < first + count; ++e) {
        const size_t child = ReadSectionU32(targets + size_t{e} * 4);
        const uint32_t child_first = ReadSectionU32(28 + child * 12);
        const uint32_t child_count = ReadSectionU32(28 + child * 12 + 4);
        for (size_t w = 0; w < stride; ++w) {
          uint64_t merged = 0;
          for (uint32_t c = child_first; c < child_first + child_count; ++c) {
            merged |= word(c, w);
          }
          std::memcpy(bytes_.data() + KeyBlockOffset(e) + w * 8, &merged,
                      sizeof(merged));
        }
      }
    }
  }

  /// The last payload's consequence region id.
  int32_t LastConsequenceRegion() const {
    int32_t region = 0;
    std::memcpy(&region,
                bytes_.data() + PayloadField(model_->tpt().size() - 1, 8),
                sizeof(region));
    return region;
  }

  /// Overwrites the last payload's field at `field` and re-stamps the
  /// section CRC.
  template <typename T>
  void SetLastPayloadField(size_t field, T value) {
    std::memcpy(bytes_.data() + PayloadField(model_->tpt().size() - 1, field),
                &value, sizeof(value));
    RestampSectionCrc();
  }
};

TEST_F(FrozenSectionCorruptionTest, CorruptNodeCountIsRejectedBeforeAlloc) {
  // A node count in the billions must bounce off the up-front body-size
  // check (DataLoss), not drive a multi-gigabyte allocation.
  WriteSectionU32(16, 1u << 30);
  const Status status = LoadCorrupted("model_bad_node_count.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated frozen TPT section body"),
            std::string::npos);
}

TEST_F(FrozenSectionCorruptionTest, TruncatedArenaIsDataLoss) {
  // Drop 64 bytes out of the middle of the arena: the declared counts no
  // longer fit in what remains.
  ASSERT_GT(bytes_.size(), ftpt_offset_ + 28 + 64 + kFooterSize);
  bytes_.erase(bytes_.begin() + static_cast<long>(ftpt_offset_) + 28,
               bytes_.begin() + static_cast<long>(ftpt_offset_) + 28 + 64);
  const Status status = LoadCorrupted("model_short_arena.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated frozen TPT section body"),
            std::string::npos);
}

TEST_F(FrozenSectionCorruptionTest, ArenaBitRotFailsSectionChecksum) {
  // Outer footer re-stamped but the section CRC left stale: the inner
  // checksum is the layer that catches the rot.
  bytes_[ftpt_offset_ + 28] ^= 0x5a;
  const Status status = LoadCorrupted("model_arena_bitrot.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT section checksum mismatch"),
            std::string::npos);
}

TEST_F(FrozenSectionCorruptionTest, StructuralRotIsCaughtByTopologyCheck) {
  // Zero the root's entry count and re-stamp both checksums: only the
  // topology validator is left to refuse the section.
  ASSERT_GT(ReadSectionU32(28 + 4), 0u);
  WriteSectionU32(28 + 4, 0);
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_zero_entry_node.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT node has zero entries"),
            std::string::npos);
}

TEST_F(FrozenSectionCorruptionTest, PayloadDriftIsCaughtByCrossCheck) {
  // Point the last payload at an in-range region at another offset and
  // re-stamp both checksums: its key's consequence bit still names the
  // old offset, and the loader's check of each leaf's bit against its
  // payload region must notice.
  const int32_t old_region = LastConsequenceRegion();
  const Timestamp old_offset = model_->regions().Region(old_region).offset;
  int32_t moved = -1;
  for (const FrequentRegion& r : model_->regions().regions()) {
    if (r.offset != old_offset) moved = r.id;
  }
  ASSERT_GE(moved, 0);
  SetLastPayloadField<int32_t>(8, moved);
  const Status status = LoadCorrupted("model_payload_drift.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("consequence bit disagrees with its payload"),
            std::string::npos)
      << status.ToString();
}

TEST_F(FrozenSectionCorruptionTest, ArenaKeyDriftIsCaughtByCrossCheck) {
  // Move the last leaf's consequence bit to another time id inside the
  // width, carry the change into the internal keys above it and re-stamp
  // both checksums. The structure is sound; only the check of the bit
  // against the payload's region can object.
  ASSERT_GE(ReadSectionU32(12), 2u) << "need two consequence time ids";
  ASSERT_LE(ReadSectionU32(12), 64u);
  const size_t block = LastLeafBlock();
  uint64_t word = 0;
  std::memcpy(&word, bytes_.data() + block, sizeof(word));
  ASSERT_EQ(__builtin_popcountll(word), 1);
  const uint64_t moved = word == 1 ? 2 : 1;
  std::memcpy(bytes_.data() + block, &moved, sizeof(moved));
  RestampInternalKeys();
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_key_drift.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("consequence bit disagrees with its payload"),
            std::string::npos)
      << status.ToString();
}

TEST_F(FrozenSectionCorruptionTest, SecondConsequenceBitIsDataLoss) {
  // A leaf concludes at one offset: a second bit in its consequence part
  // (carried up, both checksums re-stamped) is refused.
  ASSERT_GE(ReadSectionU32(12), 2u) << "need two consequence time ids";
  const size_t block = LastLeafBlock();
  uint64_t word = 0;
  std::memcpy(&word, bytes_.data() + block, sizeof(word));
  word |= word == 1 ? 2 : 1;
  std::memcpy(bytes_.data() + block, &word, sizeof(word));
  RestampInternalKeys();
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_two_consequence_bits.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("consequence bit disagrees with its payload"),
            std::string::npos)
      << status.ToString();
}

TEST_F(FrozenSectionCorruptionTest, ConsequenceWidthIsTheOffsetCount) {
  // One more consequence bit than there are distinct consequence offsets
  // (same word count, so the section still parses).
  ASSERT_NE(ReadSectionU32(12) % 64, 0u);
  WriteSectionU32(12, ReadSectionU32(12) + 1);
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_wide_consequence.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("consequence width is not the offset count"),
            std::string::npos)
      << status.ToString();
}

TEST_F(FrozenSectionCorruptionTest, ConsequenceRegionOutOfRangeIsDataLoss) {
  SetLastPayloadField<int32_t>(
      8, static_cast<int32_t>(model_->regions().NumRegions()));
  const Status status = LoadCorrupted("model_region_out_of_range.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("consequence region out of range"),
            std::string::npos)
      << status.ToString();
}

TEST_F(FrozenSectionCorruptionTest, RepeatedPatternIdIsDataLoss) {
  // Two payloads with one pattern id leave another id unused: the ids
  // are no longer a permutation of 0..n-1.
  int32_t first_id = 0;
  std::memcpy(&first_id, bytes_.data() + PayloadField(0, 12),
              sizeof(first_id));
  SetLastPayloadField<int32_t>(12, first_id);
  const Status status = LoadCorrupted("model_repeated_pattern_id.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("pattern ids are not a permutation"),
            std::string::npos)
      << status.ToString();
}

TEST_F(FrozenSectionCorruptionTest, ConfidenceOutsideUnitIntervalIsDataLoss) {
  const std::vector<unsigned char> pristine = bytes_;
  for (const double confidence :
       {1.5, -0.25, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    bytes_ = pristine;
    SetLastPayloadField<double>(0, confidence);
    const Status status = LoadCorrupted("model_bad_confidence.hpm");
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << confidence;
    EXPECT_NE(status.message().find("confidence outside [0, 1]"),
              std::string::npos)
        << status.ToString();
  }
}

TEST_F(FrozenSectionCorruptionTest, InRangeDriftWithRestampedChecksumsLoads) {
  // What the loader cannot see: the file holds one copy of each pattern,
  // so a premise bit flipped inside the width, or a confidence moved
  // inside [0, 1], with both CRCs re-stamped, is a valid model. The CRCs
  // guard these bytes, as they guard region centres and options.
  const size_t premise_word =
      LastLeafBlock() + ((ReadSectionU32(12) + 63) / 64) * 8;
  bytes_[premise_word] ^= 0x01;  // Region 0's bit.
  RestampInternalKeys();
  SetLastPayloadField<double>(0, 0.5);
  const std::string path = TempPath("model_in_range_drift.hpm");
  RestampFooter(bytes_);
  WriteFileBytes(path, bytes_);
  auto loaded = HybridPredictor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->tpt().CheckInvariants().ok());
  EXPECT_EQ((*loaded)->tpt().payloads().back().confidence, 0.5);
}

TEST_F(FrozenSectionCorruptionTest, ThinnedInternalKeyIsDataLoss) {
  // Clear one set bit of the root's first entry key and re-stamp both
  // checksums. The leaves still agree with the regions, so only the
  // union check can notice that search would now prune that subtree's
  // matches.
  ASSERT_EQ(ReadSectionU32(28 + 8), 0u) << "root must be internal";
  const size_t stride =
      (ReadSectionU32(8) + 63) / 64 + (ReadSectionU32(12) + 63) / 64;
  const size_t block = KeyBlockOffset(ReadSectionU32(28));
  bool thinned = false;
  for (size_t w = 0; w < stride && !thinned; ++w) {
    uint64_t word = 0;
    std::memcpy(&word, bytes_.data() + block + w * 8, sizeof(word));
    if (word == 0) continue;
    word &= word - 1;
    std::memcpy(bytes_.data() + block + w * 8, &word, sizeof(word));
    thinned = true;
  }
  ASSERT_TRUE(thinned);
  RestampSectionCrc();
  const Status status = LoadCorrupted("model_thinned_internal_key.hpm");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("internal key is not the union"),
            std::string::npos)
      << status.ToString();
}

TEST(ModelFileLayoutTest, FileIsOptionsRegionsSubCountAndArena) {
  // A model file holds no per-pattern bytes outside the arena: its size
  // is exactly the header, the options, the regions, the sub-trajectory
  // count, the FTPT section and the footer.
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  const HybridPredictor& model = **trained;
  ASSERT_GT(model.tpt().size(), 0u);
  const std::string path = TempPath("model_layout.hpm");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  const StatusOr<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  constexpr size_t kHeader = 4 + 4;  // "HPM1", version.
  // Fifteen 8-byte fields, two u8 flags, and the RMF clamp box (a u8
  // empty flag, then two corners of two doubles when set).
  const size_t options =
      15 * 8 + 2 + 1 + (model.options().rmf.clamp_box.IsEmpty() ? 0 : 32);
  size_t regions = 8;  // u64 count.
  for (const FrequentRegion& r : model.regions().regions()) {
    regions += RegionRecordBytes(r);
  }
  constexpr size_t kNumSubs = 8;
  std::string section;
  model.tpt().AppendTo(&section);
  EXPECT_EQ(bytes->size(),
            kHeader + options + regions + kNumSubs + section.size() +
                kFooterSize);
  EXPECT_EQ(bytes->substr(bytes->size() - kFooterSize - section.size(),
                          section.size()),
            section);
}

// tests/core/testdata/model_v3.hpm is a format-v3 model (FTPT section
// version 2; 875 patterns, 20 regions, a 4-level arena) written by
// SaveToFile from MakeHistory(30) under Options() with node capacity 8.
// Loading it and saving it again must reproduce it
// byte for byte: a change that means to alter the file bytes bumps the
// format version instead.
TEST(ModelFileFixtureTest, OlderWriterFileReSavesByteForByte) {
  const std::string fixture =
      std::string(HPM_TESTDATA_DIR) + "/model_v3.hpm";
  const StatusOr<std::string> original = ReadFileToString(fixture);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  uint32_t version = 0;
  std::memcpy(&version, original->data() + 4, sizeof(version));
  EXPECT_EQ(version, 3u);
  const size_t section = original->find("FTPT");
  ASSERT_NE(section, std::string::npos);
  uint32_t section_version = 0;
  std::memcpy(&section_version, original->data() + section + 4,
              sizeof(section_version));
  EXPECT_EQ(section_version, 2u);

  auto loaded = HybridPredictor::LoadFromFile(fixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->tpt().size(), 875u);
  EXPECT_EQ((*loaded)->regions().NumRegions(), 20u);
  EXPECT_EQ((*loaded)->tpt().Height(), 4);
  EXPECT_TRUE((*loaded)->tpt().CheckInvariants().ok());

  const std::string path = TempPath("fixture_resaved.hpm");
  ASSERT_TRUE((*loaded)->SaveToFile(path).ok());
  const StatusOr<std::string> resaved = ReadFileToString(path);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  ASSERT_EQ(resaved->size(), original->size());
  size_t first_difference = original->size();
  for (size_t i = 0; i < original->size(); ++i) {
    if ((*resaved)[i] != (*original)[i]) {
      first_difference = i;
      break;
    }
  }
  EXPECT_EQ(first_difference, original->size())
      << "re-saved file differs from the fixture at byte "
      << first_difference;
}

TEST(IncorporateTest, NewDataOnKnownRouteAddsNothingNew) {
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  // Fresh days on the same route: every mined rule already exists.
  auto updated = (*trained)->WithNewHistory(MakeHistory(10, false, 99));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ((*updated)->summary().num_patterns,
            (*trained)->summary().num_patterns);
}

TEST(IncorporateTest, RequiresACompletePeriod) {
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  Trajectory partial;
  for (int i = 0; i < 5; ++i) partial.Append({0, 0});
  EXPECT_EQ((*trained)->WithNewHistory(partial).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(IncorporateTest, CrossRoutePatternsEmergeFromNewBehaviour) {
  // Train on a history where the object is on route A OR route B on any
  // given day, then feed new days that *switch* from A to B mid-period:
  // region structure already covers both routes, so new cross-route
  // rules (A-premise -> B-consequence) become minable and insertable.
  const uint64_t seed = proptest::SeedForTest(17);
  SCOPED_TRACE(proptest::ReplayLine(seed));
  Random rng(seed);
  Trajectory history;
  for (int d = 0; d < 30; ++d) {
    const bool b = d % 2 == 0;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      Point p = b ? RouteB(t) : RouteA(t);
      p.x += rng.Gaussian(0, 1.0);
      p.y += rng.Gaussian(0, 1.0);
      history.Append(p);
    }
  }
  auto trained = HybridPredictor::Train(history, Options());
  ASSERT_TRUE(trained.ok());
  const size_t before = (*trained)->summary().num_patterns;

  Trajectory switching;
  for (int d = 0; d < 10; ++d) {
    for (Timestamp t = 0; t < kPeriod; ++t) {
      Point p = (t < kPeriod / 2) ? RouteA(t) : RouteB(t);
      p.x += rng.Gaussian(0, 1.0);
      p.y += rng.Gaussian(0, 1.0);
      switching.Append(p);
    }
  }
  auto updated = (*trained)->WithNewHistory(switching);
  ASSERT_TRUE(updated.ok());
  const size_t added = (*updated)->summary().num_patterns - before;
  EXPECT_GT(added, 0u);
  EXPECT_EQ((*trained)->summary().num_patterns, before);
  EXPECT_TRUE((*updated)->tpt().CheckInvariants().ok());
  EXPECT_EQ((*updated)->tpt().size(),
            (*updated)->summary().num_patterns);

  // The new knowledge is queryable: an object seen on route A early in
  // the period is now predicted to be on route B later.
  PredictiveQuery q;
  const Timestamp base = 200 * kPeriod;
  for (Timestamp t = 5; t <= 8; ++t) {
    q.recent_movements.push_back({base + t, RouteA(t)});
  }
  q.current_time = base + 8;
  q.query_time = base + 15;  // Past the switch point, BQP range.
  auto predictions = (*updated)->Predict(q);
  ASSERT_TRUE(predictions.ok());
  EXPECT_EQ(predictions->front().source, PredictionSource::kPattern);
}

TEST(IncorporateTest, SaveLoadAfterIncorporationRoundTrips) {
  auto trained = HybridPredictor::Train(MakeHistory(30), Options());
  ASSERT_TRUE(trained.ok());
  auto updated = (*trained)->WithNewHistory(MakeHistory(8, true, 5));
  ASSERT_TRUE(updated.ok());
  const std::string path = TempPath("model_after_update.hpm");
  ASSERT_TRUE((*updated)->SaveToFile(path).ok());
  auto loaded = HybridPredictor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->summary().num_patterns,
            (*updated)->summary().num_patterns);
}

}  // namespace
}  // namespace hpm
