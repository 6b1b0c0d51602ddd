// Binary persistence for trained HybridPredictor models.
//
// Format v3 (little-endian, written and read with common/bytes.h):
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

#include "common/bytes.h"
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

void PutPoint(std::string* out, const Point& p) {
  bytes::PutF64(out, p.x);
  bytes::PutF64(out, p.y);
}

Point ReadPoint(bytes::Cursor* in) {
  Point p;
  in->F64(&p.x);
  in->F64(&p.y);
  return p;
}

void PutBox(std::string* out, const BoundingBox& box) {
  bytes::PutU8(out, box.IsEmpty() ? 1 : 0);
  if (!box.IsEmpty()) {
    PutPoint(out, box.min());
    PutPoint(out, box.max());
  }
}

/// Fails the cursor on a box whose corners are not ordered (or NaN):
/// BoundingBox would reorder them, and the model would re-save
/// differently.
BoundingBox ReadBox(bytes::Cursor* in) {
  bool empty = false;
  in->Flag(&empty);
  if (empty) return BoundingBox();
  const Point lo = ReadPoint(in);
  const Point hi = ReadPoint(in);
  if (!(lo.x <= hi.x && lo.y <= hi.y)) in->Fail();
  return BoundingBox(lo, hi);
}

void PutOptions(std::string* out, const HybridPredictorOptions& o) {
  bytes::PutI64(out, o.regions.period);
  bytes::PutF64(out, o.regions.dbscan.eps);
  bytes::PutI64(out, o.regions.dbscan.min_pts);
  bytes::PutI64(out, o.regions.limit_sub_trajectories);
  bytes::PutF64(out, o.mining.min_confidence);
  bytes::PutI64(out, o.mining.min_support);
  bytes::PutI64(out, o.mining.max_pattern_length);
  bytes::PutI64(out, o.mining.premise_window);
  bytes::PutU8(out, o.mining.enable_pruning ? 1 : 0);
  bytes::PutI64(out, o.tpt.max_node_entries);
  bytes::PutI64(out, static_cast<int64_t>(o.weight_function));
  bytes::PutI64(out, o.distant_threshold);
  bytes::PutI64(out, o.time_relaxation);
  bytes::PutF64(out, o.region_match_slack);
  bytes::PutI64(out, o.rmf.retrospect);
  bytes::PutU8(out, o.rmf.auto_retrospect ? 1 : 0);
  bytes::PutI64(out, o.rmf.window);
  PutBox(out, o.rmf.clamp_box);
}

HybridPredictorOptions ReadOptions(bytes::Cursor* in) {
  HybridPredictorOptions o;
  int weight_function = 0;
  in->I64(&o.regions.period);
  in->F64(&o.regions.dbscan.eps);
  in->Int(&o.regions.dbscan.min_pts);
  in->Int(&o.regions.limit_sub_trajectories);
  in->F64(&o.mining.min_confidence);
  in->Int(&o.mining.min_support);
  in->Int(&o.mining.max_pattern_length);
  in->I64(&o.mining.premise_window);
  in->Flag(&o.mining.enable_pruning);
  in->Int(&o.tpt.max_node_entries);
  in->Int(&weight_function);
  if (weight_function < 0 ||
      weight_function > static_cast<int>(WeightFunction::kFactorial)) {
    in->Fail();
  }
  o.weight_function = static_cast<WeightFunction>(weight_function);
  in->I64(&o.distant_threshold);
  in->I64(&o.time_relaxation);
  in->F64(&o.region_match_slack);
  in->Int(&o.rmf.retrospect);
  in->Flag(&o.rmf.auto_retrospect);
  in->Int(&o.rmf.window);
  o.rmf.clamp_box = ReadBox(in);
  return o;
}

}  // namespace

Status HybridPredictor::SaveToFile(const std::string& path) const {
  std::string content;
  bytes::PutBytes(&content, kMagic, sizeof(kMagic));
  bytes::PutU32(&content, kFormatVersion);
  PutOptions(&content, options_);

  bytes::PutU64(&content, regions_.NumRegions());
  for (const FrequentRegion& r : regions_.regions()) {
    bytes::PutI64(&content, r.id);
    bytes::PutI64(&content, r.offset);
    bytes::PutI64(&content, r.index_at_offset);
    PutPoint(&content, r.center);
    PutBox(&content, r.mbr);
    bytes::PutI64(&content, r.support);
  }

  bytes::PutU64(&content, summary_.num_sub_trajectories);
  tpt_.AppendTo(&content);

  const uint32_t crc = Crc32(content);
  bytes::PutBytes(&content, kFooterMagic, sizeof(kFooterMagic));
  bytes::PutU32(&content, crc);
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
  bytes::Cursor(content.data() + body_size + sizeof(kFooterMagic),
                sizeof(stored_crc))
      .U32(&stored_crc);
  if (Crc32(content.data(), body_size) != stored_crc) {
    return Status::DataLoss("model file checksum mismatch: " + path);
  }

  bytes::Cursor in(content.data() + sizeof(kMagic),
                  body_size - sizeof(kMagic));
  uint32_t version = 0;
  in.U32(&version);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition("unsupported model format version " +
                                      std::to_string(version));
  }
  HybridPredictorOptions options = ReadOptions(&in);
  if (!in.ok()) {
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
  in.U64(&num_regions);
  if (!in.ok() || num_regions > (1u << 24)) {
    return Status::InvalidArgument("corrupt region count");
  }
  for (uint64_t i = 0; i < num_regions; ++i) {
    FrequentRegion r;
    int64_t id = 0;
    in.I64(&id);
    in.I64(&r.offset);
    in.Int(&r.index_at_offset);
    r.center = ReadPoint(&in);
    r.mbr = ReadBox(&in);
    in.Int(&r.support);
    // Region ids follow offset order (frequent_region.h), which the
    // predictor's consequence-centre runs rely on.
    if (!in.ok() || id != static_cast<int64_t>(i) || r.offset < 0 ||
        r.offset >= options.regions.period ||
        (i > 0 && r.offset < regions.regions().back().offset)) {
      return Status::InvalidArgument("corrupt region record");
    }
    r.id = static_cast<int>(id);
    regions.AddRegion(std::move(r));
  }

  uint64_t num_subs = 0;
  in.U64(&num_subs);
  if (!in.ok()) {
    return Status::InvalidArgument("truncated model file: " + path);
  }

  // The serving index loads straight from the stored arena — no
  // packing. Parse validates structure and the section CRC (DataLoss on
  // damage, so the store layer quarantines the file).
  const size_t section_offset = sizeof(kMagic) + in.pos();
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
