// Region-key and consequence-key tables (paper §V-A, Tables I & II).
//
// The region key table maps frequent-region ids to bit positions via the
// hash 2^id (the table itself need not be materialised — the hash is the
// id — but the premise-key length is the number of frequent regions).
// The consequence key table collects the distinct time offsets appearing
// as pattern consequences, sorts them, and assigns dense time ids; the
// reverse map is a vector indexed by offset.
//
// Build is the one table builder: a model build and an incremental
// rebuild call it with their patterns' consequence regions, the model
// loader with its arena payloads' consequence regions, so a loaded model
// holds the tables its build made. EncodePatterns is the one pattern
// encoder: it writes all of a model's keys in a single pass into one
// KeyBlocks array, already in the frozen arena's leaf-block layout, which
// FrozenTpt::Pack sorts and copies.

#ifndef HPM_TPT_KEY_TABLES_H_
#define HPM_TPT_KEY_TABLES_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "geo/trajectory.h"
#include "mining/apriori.h"
#include "mining/frequent_region.h"
#include "tpt/pattern_key.h"

namespace hpm {

/// Immutable encoder from patterns / queries to pattern keys.
class KeyTables {
 public:
  KeyTables() = default;

  /// Builds the tables from the mined regions and the consequence region
  /// of every pattern: premise-key length = number of regions;
  /// consequence-key length = number of distinct offsets among those
  /// regions. Precondition: every id indexes `regions`.
  static KeyTables Build(const FrequentRegionSet& regions,
                         std::span<const int> consequence_regions);

  /// Length of every premise key (number of frequent regions).
  size_t premise_key_length() const { return num_regions_; }

  /// Length of every consequence key (number of consequence offsets).
  size_t consequence_key_length() const {
    return consequence_offsets_.size();
  }

  /// The sorted consequence offsets (time id i -> offset).
  const std::vector<Timestamp>& consequence_offsets() const {
    return consequence_offsets_;
  }

  /// Time id of an offset, or -1 when no pattern concludes at it.
  int TimeIdForOffset(Timestamp offset) const;

  /// Offset of a time id. Precondition: 0 <= id < consequence count.
  Timestamp OffsetForTimeId(int time_id) const;

  /// Encodes mined patterns into one flat array: block i is the key of
  /// patterns[i]. Every region id and consequence offset must be known
  /// to the tables (they are, when the tables were built from the same
  /// mining run, or from a superset of it).
  KeyBlocks EncodePatterns(const std::vector<TrajectoryPattern>& patterns,
                           const FrequentRegionSet& regions) const;

  /// Encodes a query into `out`: premise bits for the recently-visited
  /// regions, one consequence bit for the query offset. `out`'s bitmaps
  /// are resized and reused in place, so one per-query scratch key serves
  /// tables of any size without allocating. Returns NotFound when no
  /// pattern concludes at `query_offset` (FQP then falls back to the
  /// motion function); `out` is valid only on OK.
  Status EncodeQueryInto(const std::vector<int>& premise_regions,
                         Timestamp query_offset, PatternKey* out) const;

  /// Encodes a BQP query into `out` (reused as in EncodeQueryInto):
  /// premise bits as above, consequence bits for *every* table offset
  /// inside [lo, hi] (inclusive, clamped). The consequence part is
  /// empty-bitted when the interval covers no offset.
  void EncodeQueryIntervalInto(const std::vector<int>& premise_regions,
                               Timestamp lo, Timestamp hi,
                               PatternKey* out) const;

 private:
  /// Premise bits for `region_ids`, written into a reused bitmap.
  void EncodePremiseInto(const std::vector<int>& region_ids,
                         DynamicBitset* out) const;

  size_t num_regions_ = 0;
  std::vector<Timestamp> consequence_offsets_;
  /// Time id of each offset in [0, last consequence offset], -1 where no
  /// pattern concludes.
  std::vector<int> time_id_of_offset_;
};

}  // namespace hpm

#endif  // HPM_TPT_KEY_TABLES_H_
