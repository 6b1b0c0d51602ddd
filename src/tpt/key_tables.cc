#include "tpt/key_tables.h"

#include <algorithm>

namespace hpm {

KeyTables KeyTables::Build(const FrequentRegionSet& regions,
                           const std::vector<TrajectoryPattern>& patterns) {
  KeyTables tables;
  tables.num_regions_ = regions.NumRegions();

  std::vector<Timestamp> offsets;
  offsets.reserve(patterns.size());
  for (const TrajectoryPattern& p : patterns) {
    offsets.push_back(regions.Region(p.consequence).offset);
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  tables.consequence_offsets_ = std::move(offsets);
  for (size_t i = 0; i < tables.consequence_offsets_.size(); ++i) {
    tables.offset_to_time_id_.emplace(tables.consequence_offsets_[i],
                                      static_cast<int>(i));
  }
  return tables;
}

int KeyTables::TimeIdForOffset(Timestamp offset) const {
  const auto it = offset_to_time_id_.find(offset);
  return it == offset_to_time_id_.end() ? -1 : it->second;
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

PatternKey KeyTables::EncodePattern(const TrajectoryPattern& pattern,
                                    const FrequentRegionSet& regions) const {
  PatternKey key(num_regions_, consequence_key_length());
  EncodePremiseInto(pattern.premise, &key.mutable_premise());
  const int time_id =
      TimeIdForOffset(regions.Region(pattern.consequence).offset);
  HPM_CHECK(time_id >= 0);
  key.mutable_consequence().Set(static_cast<size_t>(time_id));
  return key;
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
