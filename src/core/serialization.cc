// Binary persistence for trained HybridPredictor models.
//
// Format v2 (little-endian, as written by the host):
//   magic "HPM1" | version u32 | options | regions | patterns | num_subs u64
//   | builder_bytes u64 | frozen TPT section ("FTPT", own CRC)
//   | footer: magic "HPMC" | crc32 u32 of every preceding byte
// Two fields are retired: the options' min_node_entries and
// builder_bytes described the insertion-built tree that models no
// longer use. They keep their slots; a loaded model re-saves the values
// its file held (HybridPredictor::RetiredFileFields).
// The frozen TPT arena is stored verbatim, so load validates bytes
// (structure + per-section CRC) instead of packing the patterns again,
// and cross-checks the arena's leaf payloads against the re-encoded
// pattern set so a logically inconsistent section can never serve wrong
// answers. The model keeps no pattern table in memory: save
// writes HybridPredictor::PatternTable(), derived from the arena, and
// load reads the table only for that cross-check and for the supports
// the arena section does not carry. The footer makes torn writes and
// bit rot detectable (DataLoss) before the field validators run; the
// file itself is written via AtomicWriteFile, so a crashed save leaves
// the previous model intact rather than a prefix.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "tpt/frozen_tpt.h"

namespace hpm {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'M', '1'};
constexpr char kFooterMagic[4] = {'H', 'P', 'M', 'C'};
constexpr uint32_t kFormatVersion = 2;
constexpr size_t kFooterSize = sizeof(kFooterMagic) + sizeof(uint32_t);

/// Serialises trivially-copyable values into an in-memory buffer; the
/// whole buffer is checksummed and written atomically at the end.
class BinaryWriter {
 public:
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  void WriteBytes(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Reads trivially-copyable values back out of a byte range, latching an
/// error (like the old FILE-based reader) on reads past the end.
class BinaryReader {
 public:
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  void Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    ReadBytes(value, sizeof(T));
  }

  void ReadBytes(void* data, size_t n) {
    if (failed_ || n > size_ - pos_) {
      failed_ = true;
      return;
    }
    std::memcpy(data, data_ + pos_, n);
    pos_ += n;
  }

  bool failed() const { return failed_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

void WritePoint(BinaryWriter* f, const Point& p) {
  f->Write(p.x);
  f->Write(p.y);
}

Point ReadPoint(BinaryReader* f) {
  Point p;
  f->Read(&p.x);
  f->Read(&p.y);
  return p;
}

void WriteBox(BinaryWriter* f, const BoundingBox& box) {
  const uint8_t empty = box.IsEmpty() ? 1 : 0;
  f->Write(empty);
  if (!box.IsEmpty()) {
    WritePoint(f, box.min());
    WritePoint(f, box.max());
  }
}

BoundingBox ReadBox(BinaryReader* f) {
  uint8_t empty = 0;
  f->Read(&empty);
  if (empty) return BoundingBox();
  const Point lo = ReadPoint(f);
  const Point hi = ReadPoint(f);
  return BoundingBox(lo, hi);
}

/// `min_node_entries` fills the retired slot after the node capacity.
void WriteOptions(BinaryWriter* f, const HybridPredictorOptions& o,
                  int64_t min_node_entries) {
  f->Write(o.regions.period);
  f->Write(o.regions.dbscan.eps);
  f->Write(static_cast<int64_t>(o.regions.dbscan.min_pts));
  f->Write(static_cast<int64_t>(o.regions.limit_sub_trajectories));
  f->Write(o.mining.min_confidence);
  f->Write(static_cast<int64_t>(o.mining.min_support));
  f->Write(static_cast<int64_t>(o.mining.max_pattern_length));
  f->Write(o.mining.premise_window);
  f->Write(static_cast<uint8_t>(o.mining.enable_pruning));
  f->Write(static_cast<int64_t>(o.tpt.max_node_entries));
  f->Write(min_node_entries);
  f->Write(static_cast<int64_t>(o.weight_function));
  f->Write(o.distant_threshold);
  f->Write(o.time_relaxation);
  f->Write(o.region_match_slack);
  f->Write(static_cast<int64_t>(o.rmf.retrospect));
  f->Write(static_cast<uint8_t>(o.rmf.auto_retrospect));
  f->Write(static_cast<int64_t>(o.rmf.window));
  WriteBox(f, o.rmf.clamp_box);
}

/// Sets `*min_node_entries` from the retired slot after the capacity.
HybridPredictorOptions ReadOptions(BinaryReader* f,
                                   int64_t* min_node_entries) {
  HybridPredictorOptions o;
  int64_t i64 = 0;
  uint8_t u8 = 0;
  f->Read(&o.regions.period);
  f->Read(&o.regions.dbscan.eps);
  f->Read(&i64);
  o.regions.dbscan.min_pts = static_cast<int>(i64);
  f->Read(&i64);
  o.regions.limit_sub_trajectories = static_cast<int>(i64);
  f->Read(&o.mining.min_confidence);
  f->Read(&i64);
  o.mining.min_support = static_cast<int>(i64);
  f->Read(&i64);
  o.mining.max_pattern_length = static_cast<int>(i64);
  f->Read(&o.mining.premise_window);
  f->Read(&u8);
  o.mining.enable_pruning = u8 != 0;
  f->Read(&i64);
  o.tpt.max_node_entries = static_cast<int>(i64);
  f->Read(min_node_entries);
  f->Read(&i64);
  o.weight_function = static_cast<WeightFunction>(i64);
  f->Read(&o.distant_threshold);
  f->Read(&o.time_relaxation);
  f->Read(&o.region_match_slack);
  f->Read(&i64);
  o.rmf.retrospect = static_cast<int>(i64);
  f->Read(&u8);
  o.rmf.auto_retrospect = u8 != 0;
  f->Read(&i64);
  o.rmf.window = static_cast<int>(i64);
  o.rmf.clamp_box = ReadBox(f);
  return o;
}

}  // namespace

Status HybridPredictor::SaveToFile(const std::string& path) const {
  BinaryWriter f;
  f.WriteBytes(kMagic, sizeof(kMagic));
  f.Write(kFormatVersion);
  WriteOptions(&f, options_, retired_file_fields_.min_node_entries);

  f.Write(static_cast<uint64_t>(regions_.NumRegions()));
  for (const FrequentRegion& r : regions_.regions()) {
    f.Write(static_cast<int64_t>(r.id));
    f.Write(r.offset);
    f.Write(static_cast<int64_t>(r.index_at_offset));
    WritePoint(&f, r.center);
    WriteBox(&f, r.mbr);
    f.Write(static_cast<int64_t>(r.support));
  }

  const std::vector<TrajectoryPattern> patterns = PatternTable();
  f.Write(static_cast<uint64_t>(patterns.size()));
  for (const TrajectoryPattern& p : patterns) {
    f.Write(static_cast<uint64_t>(p.premise.size()));
    for (int id : p.premise) f.Write(static_cast<int64_t>(id));
    f.Write(static_cast<int64_t>(p.consequence));
    f.Write(p.confidence);
    f.Write(static_cast<int64_t>(p.support));
  }

  f.Write(static_cast<uint64_t>(summary_.num_sub_trajectories));
  f.Write(retired_file_fields_.builder_bytes);

  std::string frozen_section;
  tpt_.AppendTo(&frozen_section);
  f.WriteBytes(frozen_section.data(), frozen_section.size());

  std::string content = f.buffer();
  const uint32_t crc = Crc32(content);
  content.append(kFooterMagic, sizeof(kFooterMagic));
  content.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return AtomicWriteFile(path, content).Annotate("model");
}

StatusOr<std::unique_ptr<HybridPredictor>> HybridPredictor::LoadFromFile(
    const std::string& path) {
  StatusOr<std::string> read = ReadFileToString(path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kInvalidArgument) {
      return Status::InvalidArgument("cannot open file for reading: " + path);
    }
    return read.status();
  }
  const std::string& content = *read;

  // Header magic first: a foreign file is InvalidArgument, reserving
  // DataLoss for files that *were* hpm models but got torn or flipped.
  if (content.size() < sizeof(kMagic) ||
      std::memcmp(content.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an hpm model file: " + path);
  }
  if (content.size() < sizeof(kMagic) + kFooterSize ||
      std::memcmp(content.data() + content.size() - kFooterSize,
                  kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Status::DataLoss("torn model file (missing footer): " + path);
  }
  const size_t body_size = content.size() - kFooterSize;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc,
              content.data() + body_size + sizeof(kFooterMagic),
              sizeof(stored_crc));
  if (Crc32(content.data(), body_size) != stored_crc) {
    return Status::DataLoss("model file checksum mismatch: " + path);
  }

  BinaryReader f(content.data() + sizeof(kMagic),
                 body_size - sizeof(kMagic));
  uint32_t version = 0;
  f.Read(&version);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition("unsupported model format version " +
                                      std::to_string(version));
  }
  RetiredFileFields retired;
  HybridPredictorOptions options = ReadOptions(&f, &retired.min_node_entries);
  if (f.failed()) {
    return Status::InvalidArgument("truncated model file: " + path);
  }
  if (options.regions.period <= 0 ||
      options.regions.period > (1 << 24)) {
    return Status::InvalidArgument("corrupt period");
  }
  if (options.tpt.max_node_entries < FrozenTpt::kMinNodeCapacity ||
      options.tpt.max_node_entries > FrozenTpt::kMaxNodeCapacity) {
    return Status::InvalidArgument("corrupt TPT options");
  }
  if (static_cast<int64_t>(options.weight_function) < 0 ||
      static_cast<int64_t>(options.weight_function) >
          static_cast<int64_t>(WeightFunction::kFactorial)) {
    return Status::InvalidArgument("corrupt weight function");
  }

  FrequentRegionSet regions;
  regions.set_period(options.regions.period);
  uint64_t num_regions = 0;
  f.Read(&num_regions);
  if (f.failed() || num_regions > (1u << 24)) {
    return Status::InvalidArgument("corrupt region count");
  }
  for (uint64_t i = 0; i < num_regions; ++i) {
    FrequentRegion r;
    int64_t i64 = 0;
    f.Read(&i64);
    r.id = static_cast<int>(i64);
    f.Read(&r.offset);
    f.Read(&i64);
    r.index_at_offset = static_cast<int>(i64);
    r.center = ReadPoint(&f);
    r.mbr = ReadBox(&f);
    f.Read(&i64);
    r.support = static_cast<int>(i64);
    if (f.failed() || r.id != static_cast<int>(i) || r.offset < 0 ||
        r.offset >= options.regions.period) {
      return Status::InvalidArgument("corrupt region record");
    }
    regions.AddRegion(std::move(r));
  }

  std::vector<TrajectoryPattern> patterns;
  uint64_t num_patterns = 0;
  f.Read(&num_patterns);
  if (f.failed() || num_patterns > (1u << 28)) {
    return Status::InvalidArgument("corrupt pattern count");
  }
  patterns.reserve(num_patterns);
  for (uint64_t i = 0; i < num_patterns; ++i) {
    TrajectoryPattern p;
    uint64_t premise_size = 0;
    f.Read(&premise_size);
    if (f.failed() || premise_size > 64) {
      return Status::InvalidArgument("corrupt premise size");
    }
    for (uint64_t j = 0; j < premise_size; ++j) {
      int64_t id = 0;
      f.Read(&id);
      if (id < 0 || static_cast<uint64_t>(id) >= num_regions) {
        return Status::InvalidArgument("premise region id out of range");
      }
      // The key holds a premise as a bit set, so only a strictly
      // ascending id list survives the round trip through the arena.
      if (!p.premise.empty() && id <= p.premise.back()) {
        return Status::InvalidArgument(
            "premise region ids not strictly ascending");
      }
      p.premise.push_back(static_cast<int>(id));
    }
    int64_t i64 = 0;
    f.Read(&i64);
    if (i64 < 0 || static_cast<uint64_t>(i64) >= num_regions) {
      return Status::InvalidArgument("consequence region id out of range");
    }
    p.consequence = static_cast<int>(i64);
    f.Read(&p.confidence);
    f.Read(&i64);
    if (f.failed()) {
      return Status::InvalidArgument("truncated pattern record");
    }
    if (i64 < 0 || i64 > INT32_MAX) {
      return Status::InvalidArgument("pattern support out of range");
    }
    p.support = static_cast<int>(i64);
    patterns.push_back(std::move(p));
  }

  uint64_t num_subs = 0;
  f.Read(&num_subs);
  f.Read(&retired.builder_bytes);
  if (f.failed()) {
    return Status::InvalidArgument("truncated model file: " + path);
  }

  // The serving index loads straight from the stored arena — no
  // packing. Parse validates structure and the section CRC (DataLoss on
  // damage, so the store layer quarantines the file).
  const size_t section_offset = sizeof(kMagic) + f.pos();
  size_t section_consumed = 0;
  StatusOr<FrozenTpt> frozen = FrozenTpt::Parse(
      content.data() + section_offset, body_size - section_offset,
      &section_consumed);
  if (!frozen.ok()) return frozen.status().Annotate("model " + path);
  if (section_offset + section_consumed != body_size) {
    return Status::DataLoss("trailing garbage after frozen TPT section: " +
                            path);
  }

  // Cross-check the arena's leaf payloads against the re-encoded
  // pattern set: every pattern indexed exactly once, with the exact key,
  // confidence and consequence the miner produced. A section that
  // passes its CRC but disagrees with the patterns is corruption, not a
  // servable index.
  KeyTables tables = KeyTables::Build(regions, patterns);
  if (frozen->size() != patterns.size()) {
    return Status::DataLoss("frozen TPT pattern count mismatch: " + path);
  }
  if (!frozen->empty() &&
      (frozen->premise_bits() != tables.premise_key_length() ||
       frozen->consequence_bits() != tables.consequence_key_length())) {
    return Status::DataLoss("frozen TPT key widths disagree with tables: " +
                            path);
  }
  const KeyBlocks keys = tables.EncodePatterns(patterns, regions);
  const size_t stride = keys.stride();
  std::vector<uint8_t> indexed_once(patterns.size(), 0);
  for (const FrozenTpt::Hit& leaf : frozen->Leaves()) {
    const LeafPayload& entry = frozen->payload(leaf);
    if (entry.pattern_id < 0 ||
        static_cast<size_t>(entry.pattern_id) >= patterns.size() ||
        indexed_once[static_cast<size_t>(entry.pattern_id)] != 0) {
      return Status::DataLoss("frozen TPT leaf payload ids corrupt: " + path);
    }
    indexed_once[static_cast<size_t>(entry.pattern_id)] = 1;
    const TrajectoryPattern& p =
        patterns[static_cast<size_t>(entry.pattern_id)];
    if (entry.confidence != p.confidence ||
        entry.consequence_region != p.consequence ||
        !std::equal(keys.block(static_cast<size_t>(entry.pattern_id)),
                    keys.block(static_cast<size_t>(entry.pattern_id)) + stride,
                    frozen->consequence_words(leaf))) {
      return Status::DataLoss("frozen TPT disagrees with pattern set: " +
                              path);
    }
  }
  frozen->FillSupports(patterns);

  auto predictor = std::unique_ptr<HybridPredictor>(
      new HybridPredictor(options, std::move(regions), std::move(tables),
                          std::move(*frozen)));
  predictor->summary_.num_sub_trajectories =
      static_cast<size_t>(num_subs);
  predictor->summary_.num_frequent_regions =
      predictor->regions_.NumRegions();
  predictor->summary_.num_patterns = predictor->tpt_.size();
  predictor->summary_.tpt_frozen_bytes = predictor->tpt_.MemoryBytes();
  predictor->summary_.tpt_height = predictor->tpt_.Height();
  predictor->retired_file_fields_ = retired;
  return predictor;
}

}  // namespace hpm
