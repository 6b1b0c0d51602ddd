#include "tpt/key_tables.h"

#include <algorithm>

namespace hpm {

KeyTables KeyTables::Build(const FrequentRegionSet& regions,
                           std::span<const int> consequence_regions) {
  KeyTables tables;
  tables.num_regions_ = regions.NumRegions();

  // Mark each consequence offset, then number the marked offsets in
  // ascending order: time ids are dense and follow offset order.
  std::vector<int>& time_ids = tables.time_id_of_offset_;
  for (int region : consequence_regions) {
    const Timestamp offset = regions.Region(region).offset;
    HPM_CHECK(offset >= 0);
    if (static_cast<size_t>(offset) >= time_ids.size()) {
      time_ids.resize(static_cast<size_t>(offset) + 1, -1);
    }
    time_ids[static_cast<size_t>(offset)] = 0;
  }
  for (size_t offset = 0; offset < time_ids.size(); ++offset) {
    if (time_ids[offset] < 0) continue;
    time_ids[offset] = static_cast<int>(tables.consequence_offsets_.size());
    tables.consequence_offsets_.push_back(static_cast<Timestamp>(offset));
  }
  return tables;
}

int KeyTables::TimeIdForOffset(Timestamp offset) const {
  if (offset < 0 ||
      static_cast<size_t>(offset) >= time_id_of_offset_.size()) {
    return -1;
  }
  return time_id_of_offset_[static_cast<size_t>(offset)];
}

Timestamp KeyTables::OffsetForTimeId(int time_id) const {
  HPM_CHECK(time_id >= 0 &&
            static_cast<size_t>(time_id) < consequence_offsets_.size());
  return consequence_offsets_[static_cast<size_t>(time_id)];
}

void KeyTables::EncodePremiseInto(const std::vector<int>& region_ids,
                                  DynamicBitset* out) const {
  out->Resize(num_regions_);
  out->Reset();
  for (int id : region_ids) {
    HPM_CHECK(id >= 0 && static_cast<size_t>(id) < num_regions_);
    out->Set(static_cast<size_t>(id));
  }
}

KeyBlocks KeyTables::EncodePatterns(
    const std::vector<TrajectoryPattern>& patterns,
    const FrequentRegionSet& regions) const {
  KeyBlocks keys;
  keys.premise_bits = num_regions_;
  keys.consequence_bits = consequence_key_length();
  const size_t consequence_words = keys.consequence_words();
  const size_t stride = keys.stride();
  keys.words.assign(patterns.size() * stride, 0);
  uint64_t* block = keys.words.data();
  for (const TrajectoryPattern& p : patterns) {
    const int time_id = TimeIdForOffset(regions.Region(p.consequence).offset);
    HPM_CHECK(time_id >= 0);
    block[time_id / 64] |= uint64_t{1} << (time_id % 64);
    uint64_t* premise = block + consequence_words;
    for (int id : p.premise) {
      HPM_CHECK(id >= 0 && static_cast<size_t>(id) < num_regions_);
      premise[id / 64] |= uint64_t{1} << (id % 64);
    }
    block += stride;
  }
  return keys;
}

Status KeyTables::EncodeQueryInto(const std::vector<int>& premise_regions,
                                  Timestamp query_offset,
                                  PatternKey* out) const {
  const int time_id = TimeIdForOffset(query_offset);
  if (time_id < 0) {
    return Status::NotFound("no pattern concludes at the query offset");
  }
  EncodePremiseInto(premise_regions, &out->mutable_premise());
  DynamicBitset& consequence = out->mutable_consequence();
  consequence.Resize(consequence_key_length());
  consequence.Reset();
  consequence.Set(static_cast<size_t>(time_id));
  return Status::OK();
}

void KeyTables::EncodeQueryIntervalInto(
    const std::vector<int>& premise_regions, Timestamp lo, Timestamp hi,
    PatternKey* out) const {
  EncodePremiseInto(premise_regions, &out->mutable_premise());
  DynamicBitset& consequence = out->mutable_consequence();
  consequence.Resize(consequence_key_length());
  consequence.Reset();
  if (lo > hi) return;
  // consequence_offsets_ is sorted; mark every offset in [lo, hi].
  const auto begin = std::lower_bound(consequence_offsets_.begin(),
                                      consequence_offsets_.end(), lo);
  const auto end = std::upper_bound(consequence_offsets_.begin(),
                                    consequence_offsets_.end(), hi);
  for (auto it = begin; it != end; ++it) {
    consequence.Set(static_cast<size_t>(it - consequence_offsets_.begin()));
  }
}

}  // namespace hpm
