// Binary persistence for trained HybridPredictor models.
//
// Format v3 (little-endian, as written by the host):
//   magic "HPM1" | version u32 | options | regions | num_subs u64
//   | frozen TPT section ("FTPT", own CRC)
//   | footer: magic "HPMC" | crc32 u32 of every preceding byte
// The frozen TPT arena is the model's pattern set (each leaf entry is one
// pattern: its key block holds premise and consequence, its payload the
// confidence, consequence region, id and support), stored verbatim, so
// the file carries nothing derived and load validates bytes instead of
// packing again. Parse checks the arena's structure; the loader checks
// the arena against the regions (key widths, consequence regions and
// bits, the pattern-id permutation, confidences) and rebuilds the key
// tables from the payloads through KeyTables::Build, as Train does. A
// premise-bit flip or an in-range confidence change that keeps both CRCs
// valid still loads: the CRCs guard those bytes, as they guard region
// centres and options. The footer makes torn writes and bit rot
// detectable (DataLoss) before the field validators run; the file itself
// is written via AtomicWriteFile, so a crashed save leaves the previous
// model intact rather than a prefix. A file of another format version is
// FailedPrecondition: files older than v3 do not load.

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
constexpr uint32_t kFormatVersion = 3;
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

  /// Reads an int64 slot into an int, failing when it does not fit (a
  /// narrowed value would re-save as different bytes).
  void ReadInt(int* value) {
    int64_t wide = 0;
    Read(&wide);
    if (wide < INT32_MIN || wide > INT32_MAX) Fail();
    *value = static_cast<int>(wide);
  }

  /// Reads a u8 flag, failing on anything but 0 or 1.
  void ReadFlag(bool* value) {
    uint8_t byte = 0;
    Read(&byte);
    if (byte > 1) Fail();
    *value = byte != 0;
  }

  void Fail() { failed_ = true; }
  bool failed() const { return failed_; }
  size_t pos() const { return pos_; }

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

/// Fails the reader on a box whose corners are not ordered (or NaN):
/// BoundingBox would reorder them, and the model would re-save
/// differently.
BoundingBox ReadBox(BinaryReader* f) {
  bool empty = false;
  f->ReadFlag(&empty);
  if (empty) return BoundingBox();
  const Point lo = ReadPoint(f);
  const Point hi = ReadPoint(f);
  if (!(lo.x <= hi.x && lo.y <= hi.y)) f->Fail();
  return BoundingBox(lo, hi);
}

void WriteOptions(BinaryWriter* f, const HybridPredictorOptions& o) {
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
  f->Write(static_cast<int64_t>(o.weight_function));
  f->Write(o.distant_threshold);
  f->Write(o.time_relaxation);
  f->Write(o.region_match_slack);
  f->Write(static_cast<int64_t>(o.rmf.retrospect));
  f->Write(static_cast<uint8_t>(o.rmf.auto_retrospect));
  f->Write(static_cast<int64_t>(o.rmf.window));
  WriteBox(f, o.rmf.clamp_box);
}

HybridPredictorOptions ReadOptions(BinaryReader* f) {
  HybridPredictorOptions o;
  int weight_function = 0;
  f->Read(&o.regions.period);
  f->Read(&o.regions.dbscan.eps);
  f->ReadInt(&o.regions.dbscan.min_pts);
  f->ReadInt(&o.regions.limit_sub_trajectories);
  f->Read(&o.mining.min_confidence);
  f->ReadInt(&o.mining.min_support);
  f->ReadInt(&o.mining.max_pattern_length);
  f->Read(&o.mining.premise_window);
  f->ReadFlag(&o.mining.enable_pruning);
  f->ReadInt(&o.tpt.max_node_entries);
  f->ReadInt(&weight_function);
  if (weight_function < 0 ||
      weight_function > static_cast<int>(WeightFunction::kFactorial)) {
    f->Fail();
  }
  o.weight_function = static_cast<WeightFunction>(weight_function);
  f->Read(&o.distant_threshold);
  f->Read(&o.time_relaxation);
  f->Read(&o.region_match_slack);
  f->ReadInt(&o.rmf.retrospect);
  f->ReadFlag(&o.rmf.auto_retrospect);
  f->ReadInt(&o.rmf.window);
  o.rmf.clamp_box = ReadBox(f);
  return o;
}

}  // namespace

Status HybridPredictor::SaveToFile(const std::string& path) const {
  BinaryWriter f;
  f.WriteBytes(kMagic, sizeof(kMagic));
  f.Write(kFormatVersion);
  WriteOptions(&f, options_);

  f.Write(static_cast<uint64_t>(regions_.NumRegions()));
  for (const FrequentRegion& r : regions_.regions()) {
    f.Write(static_cast<int64_t>(r.id));
    f.Write(r.offset);
    f.Write(static_cast<int64_t>(r.index_at_offset));
    WritePoint(&f, r.center);
    WriteBox(&f, r.mbr);
    f.Write(static_cast<int64_t>(r.support));
  }

  f.Write(static_cast<uint64_t>(summary_.num_sub_trajectories));

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
  HybridPredictorOptions options = ReadOptions(&f);
  if (f.failed()) {
    return Status::InvalidArgument("corrupt or truncated model options: " +
                                   path);
  }
  if (options.regions.period <= 0 ||
      options.regions.period > (1 << 24)) {
    return Status::InvalidArgument("corrupt period");
  }
  if (options.tpt.max_node_entries < FrozenTpt::kMinNodeCapacity ||
      options.tpt.max_node_entries > FrozenTpt::kMaxNodeCapacity) {
    return Status::InvalidArgument("corrupt TPT options");
  }
  HPM_RETURN_IF_ERROR(ValidateQueryOptions(options));

  FrequentRegionSet regions;
  regions.set_period(options.regions.period);
  uint64_t num_regions = 0;
  f.Read(&num_regions);
  if (f.failed() || num_regions > (1u << 24)) {
    return Status::InvalidArgument("corrupt region count");
  }
  for (uint64_t i = 0; i < num_regions; ++i) {
    FrequentRegion r;
    int64_t id = 0;
    f.Read(&id);
    f.Read(&r.offset);
    f.ReadInt(&r.index_at_offset);
    r.center = ReadPoint(&f);
    r.mbr = ReadBox(&f);
    f.ReadInt(&r.support);
    // Region ids follow offset order (frequent_region.h), which the
    // predictor's consequence-centre runs rely on.
    if (f.failed() || id != static_cast<int64_t>(i) || r.offset < 0 ||
        r.offset >= options.regions.period ||
        (i > 0 && r.offset < regions.regions().back().offset)) {
      return Status::InvalidArgument("corrupt region record");
    }
    r.id = static_cast<int>(id);
    regions.AddRegion(std::move(r));
  }

  uint64_t num_subs = 0;
  f.Read(&num_subs);
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

  // The arena against the regions: what the predictor, PatternTable()
  // and RankAndTake index or sort by must be in range, and each leaf's
  // one consequence bit must be the time id of its payload region's
  // offset under the tables rebuilt from the payloads.
  const auto inconsistent = [&path](const char* what) {
    return Status::DataLoss(std::string("frozen TPT ") + what + ": " + path);
  };
  if (!frozen->empty() && frozen->premise_bits() != regions.NumRegions()) {
    return inconsistent("premise width is not the region count");
  }
  std::vector<int> consequences;
  std::vector<uint8_t> id_seen(frozen->size(), 0);
  consequences.reserve(frozen->size());
  for (const LeafPayload& p : frozen->payloads()) {
    if (p.consequence_region < 0 ||
        static_cast<size_t>(p.consequence_region) >= regions.NumRegions()) {
      return inconsistent("consequence region out of range");
    }
    if (p.pattern_id < 0 ||
        static_cast<size_t>(p.pattern_id) >= id_seen.size() ||
        id_seen[static_cast<size_t>(p.pattern_id)]++ != 0) {
      return inconsistent("pattern ids are not a permutation");
    }
    if (!(p.confidence >= 0.0 && p.confidence <= 1.0)) {
      return inconsistent("confidence outside [0, 1]");
    }
    consequences.push_back(p.consequence_region);
  }
  KeyTables tables = KeyTables::Build(regions, consequences);
  if (!frozen->empty() &&
      frozen->consequence_bits() != tables.consequence_key_length()) {
    return inconsistent("consequence width is not the offset count");
  }
  for (const FrozenTpt::Hit& leaf : frozen->Leaves()) {
    const Timestamp offset =
        regions.Region(frozen->payload(leaf).consequence_region).offset;
    const size_t time_id =
        static_cast<size_t>(tables.TimeIdForOffset(offset));
    const uint64_t* bits = frozen->consequence_words(leaf);
    for (size_t w = 0; w < frozen->num_consequence_words(); ++w) {
      const uint64_t want =
          w == time_id / 64 ? uint64_t{1} << (time_id % 64) : 0;
      if (bits[w] != want) {
        return inconsistent("consequence bit disagrees with its payload");
      }
    }
  }

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
  return predictor;
}

}  // namespace hpm
